// Snapshot storage for app checkpoints.
//
// "Crash-Pad takes a snapshot of the state of the SDN-App prior to its
//  processing of an event and should a failure occur, it can easily revert
//  to this snapshot." (§3.3)
//
// Recovery reads only the newest snapshot; the older ones serve §5's
// multi-event fault localization. The store is built for that: per app it
// keeps the newest snapshot's bytes whole, and each older retained snapshot
// as the chunks that rebuild it from the next newer one (a backward diff,
// see delta_codec.hpp). So:
//
//   - latest() is a plain copy;
//   - an older read copies the newest and applies diffs backwards;
//   - eviction pops the oldest diff, on which nothing depends;
//   - put() diffs the previous newest against the new state, exactly.
//
// All public methods are thread-safe: the CheckpointWorker writes from its
// background thread while the controller's recovery path reads.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "checkpoint/delta_codec.hpp"
#include "common/clock.hpp"
#include "common/types.hpp"

namespace legosdn::checkpoint {

/// A whole snapshot, as handed to restore paths.
struct Snapshot {
  std::uint64_t event_seq = 0; ///< snapshot was taken *before* this event
  SimTime taken_at{};
  Bytes state;
};

class SnapshotStore {
public:
  explicit SnapshotStore(std::size_t keep_per_app = 8)
      : keep_(keep_per_app == 0 ? 1 : keep_per_app) {}

  /// What one put added to the store.
  struct Put {
    bool first = false; ///< the app had no snapshot before
    /// The whole state for a first put, else the bytes of the backward diff
    /// the previous newest snapshot became.
    std::size_t stored_bytes = 0;
  };

  /// Make `state` the app's newest snapshot (seqs must not decrease). The
  /// previous newest is kept as the chunks that rebuild it from `state`, and
  /// the oldest beyond keep_per_app are dropped.
  Put put(AppId app, std::uint64_t event_seq, SimTime taken_at, Bytes state);

  /// The most recent snapshot, if any.
  std::optional<Snapshot> latest(AppId app) const;

  /// The newest snapshot with event_seq <= seq (for multi-event fault
  /// recovery).
  std::optional<Snapshot> at_or_before(AppId app, std::uint64_t seq) const;

  /// The oldest retained snapshot (delta-debugging base).
  std::optional<Snapshot> oldest(AppId app) const;

  /// event_seq of the newest / oldest retained snapshot (nullopt if none).
  /// Cheap: nothing is rebuilt.
  std::optional<std::uint64_t> latest_seq(AppId app) const;
  std::optional<std::uint64_t> oldest_seq(AppId app) const;

  /// event_seq of every retained snapshot, oldest first (introspection).
  std::vector<std::uint64_t> seqs(AppId app) const;

  std::size_t count(AppId app) const;
  /// Stored bytes across apps: each newest state, plus every diff's chunk
  /// bytes and per-chunk overhead.
  std::size_t total_bytes() const;
  void clear(AppId app);

  struct StoreStats {
    std::uint64_t compose_failures = 0; ///< a diff failed validation on read
    std::uint64_t logical_bytes = 0;    ///< state bytes of every retained snapshot
  };
  StoreStats stats() const;

private:
  /// An older snapshot: the chunks that rebuild it from the next newer one.
  struct Diff {
    std::uint64_t event_seq = 0;
    SimTime taken_at{};
    std::size_t size = 0; ///< its state's size
    std::vector<DirtyChunk> chunks;
  };
  struct History {
    std::deque<Diff> older; ///< oldest first; older.back() diffs from newest
    Snapshot newest;
  };

  /// Rebuild the snapshot `back` diffs behind the newest (0 = the newest).
  /// Returns nullopt (and bumps compose_failures) if a diff is corrupt.
  std::optional<Snapshot> rebuild(const History& h, std::size_t back) const;

  void drop(const Diff& d);

  mutable std::mutex mu_;
  std::unordered_map<AppId, History> by_app_;
  std::size_t keep_;
  std::size_t total_bytes_ = 0;
  mutable StoreStats stats_{};
};

} // namespace legosdn::checkpoint
