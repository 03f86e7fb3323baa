// Shard routing for the parallel event pipeline.
//
// The event stream is partitioned by switch: every event that concerns a
// single datapath hashes to one of N shards, so per-switch event order is
// preserved by construction — each dpid lives on exactly one FIFO lane. Events that span
// switches (a LinkDown whose endpoints hash to different shards) or concern
// no switch at all cannot be pinned to a lane without giving up cross-switch
// ordering; they are classified kGlobal and executed under the dispatcher's
// stop-the-world barrier (sharded_dispatch.hpp), which is the ordering
// protocol Rama requires for multi-switch updates.
#pragma once

#include <cstddef>

#include "controller/event.hpp"

namespace legosdn::ctl {

class ShardRouter {
public:
  /// Sentinel shard index for events that must run under the barrier.
  static constexpr std::size_t kGlobal = static_cast<std::size_t>(-1);

  explicit ShardRouter(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const noexcept { return shards_; }

  /// Stable dpid -> shard mapping (Fibonacci-hash the raw dpid so dense
  /// small-integer dpids — every canned topology — still spread evenly).
  std::size_t shard_of(DatapathId dpid) const noexcept {
    const std::uint64_t h = raw(dpid) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> 32) % shards_;
  }

  /// Lane for one event: the shard of its dpid, or kGlobal for events with
  /// no dpid or whose endpoints straddle shards.
  std::size_t route(const Event& e) const;

private:
  std::size_t shards_;
};

} // namespace legosdn::ctl
