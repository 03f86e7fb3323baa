#include "crashpad/ticket.hpp"

#include <sstream>

namespace legosdn::crashpad {

std::string ProblemTicket::to_string() const {
  std::ostringstream os;
  os << "ticket #" << id << " app=" << app << " event_seq=" << event_seq
     << " t=" << to_ms(at) << "ms\n"
     << "  offending event: " << offending_event << "\n"
     << "  crash info:      " << crash_info << "\n"
     << "  recovery policy: " << policy_applied;
  if (restore_available) {
    os << "\n  rollback:        checkpoint @" << restore_seq << " + "
       << replay_span << " replayed event" << (replay_span == 1 ? "" : "s");
  }
  if (!shadow_digests.empty()) {
    os << "\n  shadow digests: ";
    for (const auto& [dpid, digest] : shadow_digests)
      os << " s" << dpid << "=" << std::hex << digest << std::dec;
  }
  if (!recent_events.empty()) {
    os << "\n  recent events:";
    for (const auto& e : recent_events) os << "\n    " << e;
  }
  return os.str();
}

std::uint64_t TicketLog::file(ProblemTicket t) {
  std::lock_guard<std::mutex> lk(mu_);
  t.id = next_id_++;
  tickets_.push_back(std::move(t));
  if (tickets_.size() > kCapacity) tickets_.pop_front();
  return tickets_.back().id;
}

std::size_t TicketLog::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::size_t>(next_id_ - 1);
}

std::vector<ProblemTicket> TicketLog::for_app(const std::string& app) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ProblemTicket> out;
  for (const auto& t : tickets_)
    if (t.app == app) out.push_back(t);
  return out;
}

} // namespace legosdn::crashpad
