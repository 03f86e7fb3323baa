// Transport-layer observability for the AppVisor proxy <-> stub link.
//
// ChannelStats counts what the UdpChannel saw at the datagram/chunk level;
// TransportStats adds the RPC layer (retransmits, recovered flakes, deadline
// exhaustions) plus a round-trip-time histogram. ProcessDomain keeps one
// TransportStats per domain; AppVisor and LegoController aggregate them so an
// operator can tell a lossy channel apart from a crashing app.
#pragma once

#include <cstdint>

#include "common/stats.hpp"

namespace legosdn::appvisor {

/// Chunk-level counters kept by UdpChannel.
struct ChannelStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t chunks_sent = 0;         ///< datagrams actually written
  std::uint64_t chunks_received = 0;     ///< datagrams accepted (not runt/malformed)
  std::uint64_t dup_chunks_dropped = 0;  ///< retransmitted chunk of the in-flight frame
  std::uint64_t stale_chunks_dropped = 0;///< straggler of an already-completed frame
  std::uint64_t reassembly_aborts = 0;   ///< partial frame evicted by a newer frame

  ChannelStats& operator+=(const ChannelStats& o) {
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    chunks_sent += o.chunks_sent;
    chunks_received += o.chunks_received;
    dup_chunks_dropped += o.dup_chunks_dropped;
    stale_chunks_dropped += o.stale_chunks_dropped;
    reassembly_aborts += o.reassembly_aborts;
    return *this;
  }
};

/// RPC-level counters kept by ProcessDomain (proxy side).
struct TransportStats {
  ChannelStats channel;                 ///< the proxy-side channel's counters
  std::uint64_t rpc_calls = 0;
  std::uint64_t retransmits = 0;        ///< request frames re-sent after a silent attempt
  std::uint64_t flakes_recovered = 0;   ///< calls that succeeded after >=1 retransmit
  std::uint64_t rpc_timeouts = 0;       ///< calls that exhausted the overall deadline
  Histogram rtt_us;                     ///< request send -> matching reply

  TransportStats& operator+=(const TransportStats& o) {
    channel += o.channel;
    rpc_calls += o.rpc_calls;
    retransmits += o.retransmits;
    flakes_recovered += o.flakes_recovered;
    rpc_timeouts += o.rpc_timeouts;
    rtt_us.merge(o.rtt_us);
    return *this;
  }
};

} // namespace legosdn::appvisor
