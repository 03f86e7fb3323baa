// Sharded parallel event dispatch (ROADMAP "sharded parallel event
// pipeline"; the consumer/producer lane shape follows alcor-control-agent's
// src/comm pipeline).
//
// N lanes, each a FIFO queue plus one dispatcher thread. submit() routes an
// event through the ShardRouter: dpid-local events go to their shard's lane
// (preserving per-switch order), events spanning shards are executed under a
// stop-the-world barrier:
//
//   barrier protocol — a global event with submission sequence S is turned
//   into one barrier token per lane, enqueued atomically behind every event
//   already submitted. A lane reaching its token parks; the last lane to
//   arrive executes the event alone (every lane has drained all pre-S work,
//   none has started post-S work), then releases the others. Global events
//   therefore observe — and are observed in — a total order consistent with
//   submission order, which is exactly what cross-switch updates need
//   (Rama's per-switch-serial + cross-switch-barrier ordering model).
//
// What is NOT preserved relative to serial dispatch: the interleaving of
// events for *different* switches between two barriers is unspecified.
// Correctness for cross-shard side effects (an app's transaction touching
// foreign switches) is the NetLog stripe locks' job, not the dispatcher's.
//
// submit() is thread-safe and re-entrant: sinks may submit derived events
// (packet-in punts raised while a transaction forwards a packet-out) from
// lane threads; drain() counts them, so it only returns once the whole
// cascade has quiesced.
//
// Batching (DESIGN.md §4.7): submit_batch() pre-routes a span of events and
// appends each lane's run under one lock acquisition; lane threads swap out
// the whole pending deque per wakeup (double-buffer drain) instead of
// popping one event per lock. A "batch" is the maximal run of local events a
// lane executes between two queue swaps or barrier tokens; the on_batch_end
// hook fires at each boundary so downstream state (coalesced NetLog
// transactions) can flush before the batch's events count as complete —
// drain() can therefore never observe a half-flushed batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "controller/shard_router.hpp"

namespace legosdn::ctl {

class ShardedDispatcher {
public:
  /// Receives each event exactly once. `shard` is the lane index, or
  /// ShardRouter::kGlobal when called under the barrier (world stopped).
  using Sink = std::function<void(Event, std::size_t shard)>;

  struct Config {
    std::size_t shards = 2;
    /// Called on the lane thread at every batch boundary: after the last
    /// event of a drained run returns from the sink, before those events
    /// count as finished (drain() cannot return in between), and before any
    /// barrier arrival. LegoController flushes coalesced NetLog transactions
    /// here. Never called with shard == kGlobal. May be empty.
    std::function<void(std::size_t shard)> on_batch_end;
  };

  ShardedDispatcher(Config cfg, Sink sink);
  ~ShardedDispatcher();

  ShardedDispatcher(const ShardedDispatcher&) = delete;
  ShardedDispatcher& operator=(const ShardedDispatcher&) = delete;

  /// Route one event to its lane (or post a barrier for global events).
  void submit(Event e);

  /// Route a span of events with one lane-lock acquisition per contiguous
  /// per-lane run instead of one per event. Equivalent to calling submit()
  /// on each element in order: per-switch FIFO holds because a lane's run is
  /// appended in submission order, and a global event flushes all pending
  /// runs before its barrier tokens land, so the total barrier order is
  /// unchanged.
  void submit_batch(std::vector<Event> events);

  /// Block until every submitted event — including events submitted by sinks
  /// while draining — has completed.
  void drain();

  const ShardRouter& router() const noexcept { return router_; }
  std::size_t shards() const noexcept { return lanes_.size(); }

  struct Stats {
    std::uint64_t dispatched = 0; ///< events completed (locals + globals)
    std::uint64_t barriers = 0;   ///< global events executed
    std::uint64_t batches = 0;    ///< drained runs of >=1 local events
    /// Lane-queue mutex acquisitions on the hot path (submit pushes, drain
    /// swaps, per-batch stat updates) — the amortization the batching buys is
    /// visible as dispatched/lock_acquisitions rising above ~0.5.
    std::uint64_t lock_acquisitions = 0;
    std::size_t queue_peak = 0;   ///< deepest any lane queue got
    std::vector<std::uint64_t> per_shard;
    Histogram latency_us;   ///< submit-to-completion, every event
    Histogram batch_events; ///< events per drained batch (p50/max via percentile)
  };
  Stats stats() const;
  /// Stats::dispatched alone, without merging the lanes' histograms: cheap
  /// enough to poll after every drain (Controller::run()).
  std::uint64_t dispatched() const;

private:
  struct BarrierState {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
    bool done = false;
    Event event;
    std::chrono::steady_clock::time_point submitted_at;
  };

  struct Item {
    Event event;
    std::shared_ptr<BarrierState> barrier; ///< non-null: barrier token
    std::chrono::steady_clock::time_point submitted_at;
  };

  struct Lane {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Item> queue;
    bool stop = false;
    std::uint64_t done = 0;
    std::size_t peak = 0;
    std::uint64_t batches = 0;
    std::uint64_t lock_acquires = 0; ///< incremented while holding mu
    Histogram latency_us;
    Histogram batch_events;
    std::thread thread;
  };

  void run(Lane& lane, std::size_t idx);
  void arrive_barrier(const std::shared_ptr<BarrierState>& b, std::size_t idx);
  void finish(std::uint64_t n);
  /// Post one barrier token per lane; requires submit_mu_ held.
  void post_barrier_locked(Event e, std::chrono::steady_clock::time_point now);

  Config cfg_;
  Sink sink_;
  ShardRouter router_;

  /// Serializes submissions so a barrier's tokens land atomically across all
  /// lanes — this is what makes the global-event order total.
  std::mutex submit_mu_;

  std::atomic<std::uint64_t> inflight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::atomic<std::uint64_t> barriers_{0};

  /// unique_ptr: Lane is immovable. Fixed at construction.
  std::vector<std::unique_ptr<Lane>> lanes_;
};

} // namespace legosdn::ctl
