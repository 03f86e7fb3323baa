// Out-of-program tracing for the traced benchmark run.
//
// Every timestamp here is taken by the benchmark around calls into the
// program's public interfaces: an IsolationDomain wrapper (serial dispatch)
// or a cloneable App decorator (shard lanes) brackets checkpoint capture,
// delivery and restore; the NetLog transaction observer stamps
// begin/apply/commit/rollback; the southbound hooks bracket every message
// the controller sends. Marks carry the benchmark's event id (the packet-in's
// trace tag), correlated on the dispatching thread through a thread-local
// "current event" that the wrappers set. Marks live in per-thread memory
// buffers and are collected once the run is quiescent.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "appvisor/isolation.hpp"
#include "controller/app.hpp"

namespace perfbench::trace {

enum class Mark : std::uint8_t {
  kInject,        ///< southbound handed the packet-in to the dispatcher
  kDispatchBegin, ///< serial controller thread picked the event up
  kDispatchEnd,   ///< serial controller returned from run()
  kCaptureBegin,
  kCaptureEnd,
  kDeliverBegin,
  kDeliverEnd,
  kDeliverFail,   ///< the delivery crashed (fail-stop)
  kReplayBegin,   ///< a recovery replay delivery
  kReplayEnd,
  kRestoreBegin,
  kRestoreEnd,
  kTxnBegin,      ///< NetLog begin or join
  kApply,         ///< NetLog apply of a non-state-changing message
  kApplyMod,      ///< NetLog apply of a state-changing message
  kCommit,
  kRollback,
  kSbBegin,       ///< a southbound send hook was entered
  kSbEnd,
};

struct Rec {
  std::uint32_t event = 0;
  Mark kind{};
  std::int64_t t = 0;
};

/// Marks are dropped unless tracing is enabled.
void set_enabled(bool on);
bool enabled();

void set_current(std::uint32_t event);
std::uint32_t current();

void mark_at(std::uint32_t event, Mark kind, std::int64_t t);
void mark(std::uint32_t event, Mark kind);
inline void mark_here(Mark kind) { mark(current(), kind); }

/// Collect and clear every thread's buffer. Only call while no thread marks.
std::vector<Rec> take_all();

/// Wraps the real isolation domain of one app under serial dispatch.
class TracingDomain : public legosdn::appvisor::IsolationDomain {
public:
  explicit TracingDomain(legosdn::appvisor::DomainPtr inner) : inner_(std::move(inner)) {}

  std::string app_name() const override { return inner_->app_name(); }
  std::vector<legosdn::ctl::EventType> subscriptions() const override {
    return inner_->subscriptions();
  }
  legosdn::Status start() override { return inner_->start(); }
  bool alive() const override { return inner_->alive(); }
  legosdn::appvisor::EventOutcome deliver(const legosdn::ctl::Event& event,
                                          legosdn::SimTime now) override;
  legosdn::Result<std::vector<std::uint8_t>> snapshot() override;
  legosdn::Status restore(std::span<const std::uint8_t> state) override;
  legosdn::Status restart() override;
  void shutdown() override { inner_->shutdown(); }
  const legosdn::appvisor::TransportStats* transport_stats() const override {
    return inner_->transport_stats();
  }

  legosdn::appvisor::IsolationDomain& inner() noexcept { return *inner_; }

private:
  legosdn::appvisor::DomainPtr inner_;
  bool replaying_ = false; ///< deliveries between a restore and the next capture
};

/// Wraps an app under shard lanes, one clone per lane. Sets the current
/// event from the packet-in's trace tag when the event is delivered; the
/// capture that precedes delivery is stamped then.
class TracingApp : public legosdn::ctl::App {
public:
  explicit TracingApp(legosdn::ctl::AppPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::vector<legosdn::ctl::EventType> subscriptions() const override {
    return inner_->subscriptions();
  }
  legosdn::ctl::Disposition handle_event(const legosdn::ctl::Event& e,
                                         legosdn::ctl::ServiceApi& api) override;
  std::vector<std::uint8_t> snapshot_state() const override;
  void restore_state(std::span<const std::uint8_t> state) override;
  void reset() override;
  legosdn::ctl::AppPtr clone() const override;

private:
  legosdn::ctl::AppPtr inner_;
  // One instance runs on one lane thread, so these need no lock. The const
  // snapshot_state() records its capture here for the delivery that follows.
  mutable bool capture_pending_ = false;
  mutable std::int64_t capture_begin_ = 0;
  mutable std::int64_t capture_end_ = 0;
  mutable bool replaying_ = false;
};

// --- analysis --------------------------------------------------------------

enum Layer : std::uint8_t {
  kController,
  kCheckpoint,
  kAppvisor,
  kInvariant,
  kNetlog,
  kNetsim,
  kSouthbound,
  kCrashpad,
  kQueue, ///< waiting in the controller's input queue or a lane queue
  kLayerCount,
  kUncovered = kLayerCount,
};
const char* layer_name(Layer l);

/// Per-event times kept by the rig, indexed by event id.
struct EventTiming {
  std::int64_t sched = 0; ///< when the open-loop schedule said to send
  std::int64_t send = 0;  ///< when the generator actually sent
  std::int64_t done = 0;  ///< completion (0 = never completed)
  bool poison = false;
};

/// EventTiming slots by event id, in a ring: a slot is reused kSlots ids
/// later, long after its event was drained and read. The ring is allocated
/// up front, so the benchmark's own memory does not grow with the number of
/// packet-ins the program manages to take.
class Timings {
public:
  static constexpr std::uint32_t kSlots = 1u << 17;

  EventTiming& operator[](std::uint32_t id) { return slots_[id & (kSlots - 1)]; }
  const EventTiming& operator[](std::uint32_t id) const { return slots_[id & (kSlots - 1)]; }

private:
  std::vector<EventTiming> slots_ = std::vector<EventTiming>(kSlots);
};

struct Breakdown {
  std::array<double, kLayerCount> self_us{}; ///< normal events only
  double latency_us = 0;                     ///< sum of normal-event latencies
  double uncovered_us = 0;
  std::uint64_t events = 0;
  std::uint64_t txns = 0;
  std::uint64_t verifying_txns = 0;
  std::vector<double> queue_wait, ingress, egress, capture, deliver, baseline,
      verify, apply, commit, netsim, restore;
  std::vector<double> latency; ///< normal events, sched -> done
};

/// Attribute each traced event's latency to layers. `ids` lists the events
/// of the traced phase; `wire` selects the socket southbound's timeline
/// (send hooks are southbound work and the tail is the wire egress) over the
/// in-process one (send hooks are netsim work).
Breakdown analyze(std::vector<Rec> recs, const Timings& timing,
                  const std::vector<std::uint32_t>& ids, bool wire);

} // namespace perfbench::trace
