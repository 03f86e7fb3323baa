#include "legosdn/diversity.hpp"

#include <algorithm>
#include <cassert>

#include "openflow/wire10.hpp"

namespace legosdn::lego {
namespace {

/// Canonical fingerprint of an output bundle: sorted encodings with xids
/// zeroed, so replicas that allocate xids differently still agree.
std::string bundle_fingerprint(const std::vector<of::Message>& emitted) {
  std::vector<std::string> parts;
  parts.reserve(emitted.size());
  for (of::Message m : emitted) {
    m.xid = 0;
    auto bytes = of::wire10::encode_framed(m);
    parts.emplace_back(bytes.begin(), bytes.end());
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const auto& p : parts) {
    out += p;
    out += '\x1F';
  }
  return out;
}

} // namespace

DiversityDomain::DiversityDomain(std::string name,
                                 std::vector<appvisor::DomainPtr> replicas)
    : name_(std::move(name)), replicas_(std::move(replicas)) {
  assert(replicas_.size() >= 3 && replicas_.size() % 2 == 1 &&
         "diversity needs an odd replica count >= 3");
}

std::vector<ctl::EventType> DiversityDomain::subscriptions() const {
  return replicas_.front()->subscriptions();
}

Status DiversityDomain::start() {
  for (auto& r : replicas_) {
    if (auto st = r->start(); !st) return st;
  }
  return Status::success();
}

bool DiversityDomain::alive() const {
  std::size_t up = 0;
  for (const auto& r : replicas_)
    if (r->alive()) ++up;
  return up > replicas_.size() / 2;
}

appvisor::EventOutcome DiversityDomain::deliver(const ctl::Event& event,
                                                SimTime now) {
  vote_stats_.votes += 1;
  struct Ballot {
    appvisor::EventOutcome outcome;
    std::string fingerprint;
    bool ok = false;
  };
  std::vector<Ballot> ballots;
  std::size_t crashed = 0;
  for (auto& r : replicas_) {
    if (!r->alive()) {
      crashed += 1;
      continue;
    }
    Ballot b;
    b.outcome = r->deliver(event, now);
    b.ok = b.outcome.ok();
    if (b.ok) b.fingerprint = bundle_fingerprint(b.outcome.emitted);
    else crashed += 1;
    ballots.push_back(std::move(b));
  }

  // Tally fingerprints of successful replicas.
  std::map<std::string, std::size_t> tally;
  for (const auto& b : ballots)
    if (b.ok) tally[b.fingerprint] += 1;
  const std::size_t majority = replicas_.size() / 2 + 1;

  for (auto& b : ballots) {
    if (!b.ok) continue;
    if (tally[b.fingerprint] >= majority) {
      if (tally[b.fingerprint] == replicas_.size()) vote_stats_.unanimous += 1;
      else vote_stats_.majority_only += 1;
      if (crashed > 0) vote_stats_.masked_crashes += 1;
      return std::move(b.outcome);
    }
  }

  // No majority: the ensemble as a whole failed on this event.
  vote_stats_.no_majority += 1;
  appvisor::EventOutcome out;
  out.kind = appvisor::EventOutcome::Kind::kCrashed;
  out.crash_info = "diversity ensemble reached no majority (" +
                   std::to_string(crashed) + "/" + std::to_string(replicas_.size()) +
                   " replicas crashed)";
  return out;
}

Result<std::vector<std::uint8_t>> DiversityDomain::snapshot() {
  for (auto& r : replicas_) {
    if (!r->alive()) continue;
    if (auto s = r->snapshot()) return s;
  }
  return Error{Error::Code::kCrashed, "no live replica to snapshot"};
}

Status DiversityDomain::restore(std::span<const std::uint8_t> state) {
  Status last = Status::success();
  for (auto& r : replicas_) {
    if (auto st = r->restore(state); !st) last = st;
  }
  return last;
}

Status DiversityDomain::restart() {
  Status last = Status::success();
  for (auto& r : replicas_) {
    if (auto st = r->restart(); !st) last = st;
  }
  return last;
}

void DiversityDomain::shutdown() {
  for (auto& r : replicas_) r->shutdown();
}

// ---------------------------------------------------------------------------
// CloneDomain
// ---------------------------------------------------------------------------

CloneDomain::CloneDomain(appvisor::DomainPtr primary, appvisor::DomainPtr clone)
    : primary_(std::move(primary)), clone_(std::move(clone)) {}

Status CloneDomain::start() {
  if (auto st = primary_->start(); !st) return st;
  return clone_->start();
}

appvisor::EventOutcome CloneDomain::deliver(const ctl::Event& event, SimTime now) {
  // Feed both; the clone's responses are ignored unless the primary fails.
  appvisor::EventOutcome primary_out;
  if (primary_->alive()) {
    primary_out = primary_->deliver(event, now);
  } else {
    primary_out.kind = appvisor::EventOutcome::Kind::kCrashed;
    primary_out.crash_info = "primary down";
  }
  appvisor::EventOutcome clone_out;
  bool clone_ok = false;
  if (clone_->alive()) {
    clone_out = clone_->deliver(event, now);
    clone_ok = clone_out.ok();
  }
  if (primary_out.ok()) return primary_out;
  if (clone_ok) {
    // Switch-over: the clone becomes the primary. "Since the bug is assumed
    // to be non-deterministic, the clone is unlikely to be affected."
    std::swap(primary_, clone_);
    failovers_ += 1;
    return clone_out;
  }
  return primary_out; // both failed: surface the primary's crash
}

Result<std::vector<std::uint8_t>> CloneDomain::snapshot() {
  if (primary_->alive()) return primary_->snapshot();
  if (clone_->alive()) return clone_->snapshot();
  return Error{Error::Code::kCrashed, "both primary and clone down"};
}

Status CloneDomain::restore(std::span<const std::uint8_t> state) {
  Status a = primary_->restore(state);
  Status b = clone_->restore(state);
  return a ? b : a;
}

Status CloneDomain::restart() {
  Status a = primary_->restart();
  Status b = clone_->restart();
  return a ? b : a;
}

void CloneDomain::shutdown() {
  primary_->shutdown();
  clone_->shutdown();
}

} // namespace legosdn::lego
