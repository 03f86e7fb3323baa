// Problem tickets (§3.3).
//
// "When subverting a failure, Crash-Pad will generate a problem ticket from
//  the captured stack-traces generated by the SDN-App, controller logs and
//  the offending event. The problem ticket can help developers to triage the
//  SDN-App's bug."
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"

namespace legosdn::crashpad {

struct ProblemTicket {
  std::uint64_t id = 0;
  std::string app;
  /// Position of the offender in *this app's* event log (per-app `seen`
  /// counter, which numbers recent_events below). The controller-wide
  /// dispatch counter ticks for every app and lane, so it races ahead of any
  /// one app's log and must not be used here.
  std::uint64_t event_seq = 0;
  std::string offending_event;   ///< rendered event (the replay input)
  std::string crash_info;        ///< the app's "stack trace" / last words
  std::string policy_applied;    ///< how Crash-Pad recovered
  std::vector<std::string> recent_events; ///< controller log excerpt (context)
  SimTime at{};

  /// Composed-restore provenance: the checkpoint the rollback rewinds to
  /// (the app's newest snapshot) and how many logged events the replay must
  /// re-deliver to catch up to the offender (0 under per-event
  /// checkpointing).
  bool restore_available = false;
  std::uint64_t restore_seq = 0;
  std::uint64_t replay_span = 0;

  /// Per-switch NetLog shadow `logical_digest()` values at crash time
  /// (dpid, digest), in ascending dpid order. Delta-debug can bisect *which
  /// switch* diverged by diffing these against another run's digests without
  /// replaying the whole history (ROADMAP: crash-ticket forensics).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shadow_digests;

  std::string to_string() const;
};

/// The newest kCapacity tickets, so that a long-running controller's memory
/// does not grow with every app fault; count() and the ids still cover every
/// ticket ever filed.
class TicketLog {
public:
  static constexpr std::size_t kCapacity = 1024;

  /// Thread-safe: apps on different shard lanes can crash (and be recovered)
  /// concurrently, each filing its own ticket. Ids are 1, 2, 3, ...
  std::uint64_t file(ProblemTicket t);

  /// The retained tickets, oldest first. A reference into the log: call only
  /// from quiesced state (tests, post-drain reporting), not concurrently with
  /// file().
  const std::deque<ProblemTicket>& all() const noexcept { return tickets_; }
  /// Tickets filed, evicted ones included.
  std::size_t count() const;

  /// Copies of the retained tickets filed against one app, oldest first; they
  /// stay valid however many tickets are filed (and evicted) later.
  std::vector<ProblemTicket> for_app(const std::string& app) const;

private:
  mutable std::mutex mu_;
  std::deque<ProblemTicket> tickets_;
  std::uint64_t next_id_ = 1;
};

} // namespace legosdn::crashpad
