#include "netsim/switch.hpp"

#include <algorithm>

namespace legosdn::netsim {

void SimSwitch::add_port(PortNo port, std::string name) {
  SwitchPort p;
  p.desc.port = port;
  p.desc.hw_addr =
      MacAddress::from_uint64((raw(dpid_) << 16) | raw(port) | 0x020000000000ULL);
  p.desc.name = name.empty()
                    ? "s" + std::to_string(raw(dpid_)) + "-eth" + std::to_string(raw(port))
                    : std::move(name);
  p.desc.link_up = true;
  ports_[port] = std::move(p);
  ++generation_;
}

SwitchPort* SimSwitch::port(PortNo p) {
  auto it = ports_.find(p);
  return it == ports_.end() ? nullptr : &it->second;
}

const SwitchPort* SimSwitch::port(PortNo p) const {
  auto it = ports_.find(p);
  return it == ports_.end() ? nullptr : &it->second;
}

std::vector<PortNo> SimSwitch::port_numbers() const {
  std::vector<PortNo> out;
  out.reserve(ports_.size());
  for (const auto& [no, _] : ports_) out.push_back(no);
  return out;
}

of::FeaturesReply SimSwitch::features() const {
  of::FeaturesReply f;
  f.dpid = dpid_;
  for (const auto& [_, p] : ports_) f.ports.push_back(p.desc);
  return f;
}

void SimSwitch::handle_message(const of::Message& msg, SimTime now,
                               std::vector<of::Message>& out) {
  if (!up_) return; // a dead switch answers nothing
  if (const auto* mod = msg.get_if<of::FlowMod>()) {
    auto res = table_.apply(*mod, now);
    if (!res.ok) {
      out.push_back({msg.xid, of::OfError{dpid_, of::OfErrorType::kFlowModFailed, 0,
                                          res.error}});
      return;
    }
    // Deleted entries that asked for notification emit flow-removed.
    for (const auto& e : res.removed) {
      if (!e.send_flow_removed) continue;
      if (mod->command != of::FlowModCommand::kDelete &&
          mod->command != of::FlowModCommand::kDeleteStrict)
        continue; // replacement by ADD does not notify in OF 1.0
      of::FlowRemoved fr;
      fr.dpid = dpid_;
      fr.match = e.match;
      fr.cookie = e.cookie;
      fr.priority = e.priority;
      fr.reason = of::FlowRemovedReason::kDelete;
      fr.duration_sec =
          static_cast<std::uint32_t>((raw(now) - raw(e.install_time)) / 1'000'000'000);
      fr.idle_timeout = e.idle_timeout;
      fr.packet_count = e.packet_count;
      fr.byte_count = e.byte_count;
      out.push_back({msg.xid, fr});
    }
    return;
  }
  if (const auto* echo = msg.get_if<of::EchoRequest>()) {
    out.push_back({msg.xid, of::EchoReply{echo->payload}});
    return;
  }
  if (msg.is<of::FeaturesRequest>()) {
    out.push_back({msg.xid, features()});
    return;
  }
  if (const auto* req = msg.get_if<of::StatsRequest>()) {
    out.push_back({msg.xid, build_stats(*req, now)});
    return;
  }
  if (msg.is<of::BarrierRequest>()) {
    out.push_back({msg.xid, of::BarrierReply{dpid_}});
    return;
  }
  if (msg.is<of::Hello>()) {
    out.push_back({msg.xid, of::Hello{}});
    return;
  }
  // Anything else addressed at a switch is a protocol error.
  out.push_back({msg.xid, of::OfError{dpid_, of::OfErrorType::kBadRequest, 0,
                                      "unhandled " + of::type_name(msg.body)}});
}

of::StatsReply SimSwitch::build_stats(const of::StatsRequest& req, SimTime now) const {
  of::StatsReply rep;
  rep.dpid = dpid_;
  rep.kind = req.kind;
  switch (req.kind) {
    case of::StatsKind::kFlow: {
      for (const auto& e : table_.entries()) {
        if (!req.match.subsumes(e.match)) continue;
        of::FlowStatsEntry f;
        f.match = e.match;
        f.cookie = e.cookie;
        f.priority = e.priority;
        f.duration_sec = static_cast<std::uint32_t>((raw(now) - raw(e.install_time)) /
                                                    1'000'000'000);
        f.idle_timeout = e.idle_timeout;
        f.hard_timeout = e.hard_timeout;
        f.packet_count = e.packet_count;
        f.byte_count = e.byte_count;
        f.actions = e.actions;
        rep.flows.push_back(std::move(f));
      }
      break;
    }
    case of::StatsKind::kPort: {
      for (const auto& [no, p] : ports_) {
        if (req.port != ports::kNone && req.port != no) continue;
        rep.ports.push_back({no, p.rx_packets, p.tx_packets, p.rx_bytes, p.tx_bytes,
                             p.drops});
      }
      break;
    }
    case of::StatsKind::kAggregate: {
      for (const auto& e : table_.entries()) {
        if (!req.match.subsumes(e.match)) continue;
        rep.aggregate.packet_count += e.packet_count;
        rep.aggregate.byte_count += e.byte_count;
        rep.aggregate.flow_count += 1;
      }
      break;
    }
  }
  return rep;
}

void SimSwitch::expire_flows(SimTime now, std::vector<of::Message>& out) {
  if (!up_) return;
  // Network::advance_time calls this on every switch at every tick; the O(1)
  // deadline-heap peek keeps the common nothing-due case scan-free.
  if (!table_.has_pending_expiry(now)) return;
  for (const auto& ex : table_.expire(now)) {
    if (!ex.entry.send_flow_removed) continue;
    of::FlowRemoved fr;
    fr.dpid = dpid_;
    fr.match = ex.entry.match;
    fr.cookie = ex.entry.cookie;
    fr.priority = ex.entry.priority;
    fr.reason = ex.reason;
    fr.duration_sec = static_cast<std::uint32_t>(
        (raw(now) - raw(ex.entry.install_time)) / 1'000'000'000);
    fr.idle_timeout = ex.entry.idle_timeout;
    fr.packet_count = ex.entry.packet_count;
    fr.byte_count = ex.entry.byte_count;
    out.push_back({0, fr});
  }
}

std::uint32_t SimSwitch::buffer_packet(PortNo in_port, const of::Packet& p) {
  // Bounded buffer pool, as on a real switch: oldest entry evicted when full.
  constexpr std::size_t kMaxBuffers = 256;
  if (buffers_.size() >= kMaxBuffers) buffers_.erase(buffers_.begin());
  const std::uint32_t id = next_buffer_id_++;
  buffers_[id] = {in_port, p};
  return id;
}

std::optional<std::pair<PortNo, of::Packet>> SimSwitch::take_buffered(std::uint32_t id) {
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return std::nullopt;
  auto out = std::move(it->second);
  buffers_.erase(it);
  return out;
}

void SimSwitch::cold_restart() {
  ++generation_;
  table_.clear();
  buffers_.clear();
  next_buffer_id_ = 1;
  for (auto& [_, p] : ports_) {
    p.rx_packets = p.tx_packets = p.rx_bytes = p.tx_bytes = p.drops = 0;
  }
}

} // namespace legosdn::netsim
