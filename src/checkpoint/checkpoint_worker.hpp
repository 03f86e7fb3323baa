// Asynchronous checkpoint pipeline (§5).
//
// The event hot path should pay only for *capturing* app state, never for
// storing it: the controller hands the raw capture to this worker, which
// puts it into the SnapshotStore (where the previous newest snapshot is
// diffed into a backward delta) on a background thread.
//
// One FIFO queue drained by one thread. Per-app ordering is the only
// requirement the store imposes (each put becomes the app's newest
// snapshot), and the FIFO preserves it.
//
// Backpressure: the queue is bounded; when it is full the submit drains the
// queue and then stores inline on the caller's thread instead of blocking
// or dropping (a checkpoint is never lost, the hot path just temporarily
// degrades to the synchronous cost — `stats().inline_encodes` counts how
// often). Draining first keeps the app's history ordered: the inline put
// cannot overtake a queued older capture of the same app.
//
// Sync mode (Config::async = false) stores every submit inline; it exists
// so benches and determinism tests can run the identical store path with
// and without the thread hop.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "checkpoint/snapshot_store.hpp"
#include "common/stats.hpp"

namespace legosdn::checkpoint {

class CheckpointWorker {
public:
  struct Config {
    bool async = true;
    /// Queue depth beyond which submits encode inline (backpressure).
    std::size_t max_queue = 64;
    /// Artificial per-encode delay, for tests that need a snapshot to be
    /// observably "in flight" when a crash hits.
    std::chrono::microseconds encode_delay{0};
  };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t encoded_async = 0;
    std::uint64_t encoded_inline = 0; ///< sync mode or queue backpressure
    std::uint64_t inline_encodes = 0; ///< backpressure-only subset
    std::uint64_t full_snapshots = 0;  ///< puts into an empty history
    std::uint64_t delta_snapshots = 0; ///< puts that made a backward diff
    std::uint64_t raw_bytes = 0;    ///< captured state bytes submitted
    /// Bytes the puts added: a history's first state whole, then the
    /// backward diff each later put made of the previous newest.
    std::uint64_t stored_bytes = 0;
    /// Time from submit to the snapshot landing in the store. In sync mode
    /// this is just the put's cost; in async mode it includes queue wait.
    Histogram encode_lag_us;
  };

  CheckpointWorker(SnapshotStore& store, Config cfg);
  ~CheckpointWorker();

  CheckpointWorker(const CheckpointWorker&) = delete;
  CheckpointWorker& operator=(const CheckpointWorker&) = delete;

  /// Hand off one captured state. Cheap in async mode: a move plus a
  /// condition-variable signal. `event_seq` follows SnapshotStore semantics
  /// (capture happened *before* this event).
  void submit(AppId app, std::uint64_t event_seq, SimTime taken_at, Bytes state);

  /// Block until every submitted snapshot is in the store.
  void flush();

  /// Snapshots submitted but not yet stored (0 in sync mode).
  std::size_t in_flight() const;

  Stats stats() const;

private:
  struct Job {
    AppId app{};
    std::uint64_t event_seq = 0;
    SimTime taken_at{};
    Bytes state;
    std::chrono::steady_clock::time_point submitted_at;
  };

  void run();
  void encode_and_store(Job job, bool via_queue);

  SnapshotStore& store_;
  Config cfg_;

  mutable std::mutex stats_mu_;
  Stats stats_{};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals the worker: job or stop
  std::condition_variable drain_cv_; ///< signals flush(): queue drained
  std::deque<Job> queue_;
  std::size_t active_ = 0; ///< jobs dequeued but not yet stored
  bool stop_ = false;
  /// Last member so the thread joins before the rest tears down.
  std::thread thread_;
};

} // namespace legosdn::checkpoint
