// UDP datagram channel over loopback, with fragmentation/reassembly so that
// logical frames (e.g. multi-megabyte snapshot blobs) are not limited by the
// UDP datagram size.
//
// Chunk wire format: u64 frame_id | u32 chunk_idx | u32 chunk_count | bytes.
//
// Reassembly is loss-tolerant: a per-chunk received-bitmap accepts chunks in
// any order, drops retransmitted duplicates of the in-flight frame, and
// suppresses stragglers of the most recently completed frame (a late
// duplicate must not start a bogus partial assembly that could evict the
// next real frame). A chunk for a *different* frame id than the one being
// assembled discards the partial frame — the sender gave up or retried with
// a fresh id. recv_frame() applies a deadline so a dead peer turns into
// Error::kTimeout rather than a hang.
//
// Datagram transmission goes through a virtual hook so FaultyChannel can
// inject drop/duplicate/reorder/delay faults deterministically.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "appvisor/transport_stats.hpp"
#include "common/result.hpp"

namespace legosdn::appvisor {

struct PeerAddr {
  std::uint32_t ip = 0;   ///< host order; loopback in practice
  std::uint16_t port = 0; ///< host order

  bool valid() const noexcept { return port != 0; }
};

class UdpChannel {
public:
  /// Max payload bytes per chunk datagram (public so tests can craft chunks).
  static constexpr std::size_t kChunkPayload = 32 * 1024;
  /// Chunk header bytes: u64 frame_id + u32 chunk_idx + u32 chunk_count.
  static constexpr std::size_t kChunkHeader = 16;

  UdpChannel() = default;
  virtual ~UdpChannel();

  UdpChannel(const UdpChannel&) = delete;
  UdpChannel& operator=(const UdpChannel&) = delete;

  /// Bind an ephemeral UDP port on 127.0.0.1.
  Status open();
  void close();
  bool is_open() const noexcept { return fd_ >= 0; }

  /// Local port (host order) after open().
  std::uint16_t local_port() const noexcept { return local_port_; }

  /// Send one logical frame to the peer, fragmenting as needed.
  Status send_frame(const PeerAddr& to, std::span<const std::uint8_t> frame);

  struct Received {
    std::vector<std::uint8_t> frame;
    PeerAddr from;
  };

  /// Receive one logical frame, waiting up to timeout_ms. Returns kTimeout
  /// when the deadline passes with no complete frame.
  Result<Received> recv_frame(int timeout_ms);

  const ChannelStats& stats() const noexcept { return stats_; }

protected:
  /// Hand one chunk datagram to the wire. FaultyChannel overrides this to
  /// drop/duplicate/hold datagrams; the default transmits directly.
  virtual Status send_datagram(const PeerAddr& to,
                               std::span<const std::uint8_t> datagram);

  /// Called once after the last chunk of a frame went through send_datagram;
  /// FaultyChannel flushes held-back (reordered) datagrams here.
  virtual void flush_datagrams(const PeerAddr& to);

  /// The actual sendto(); overrides call this to put bytes on the wire.
  Status transmit(const PeerAddr& to, std::span<const std::uint8_t> datagram);

private:
  /// Record a finished frame (straggler suppression, stats) and return it.
  Received complete(std::uint64_t id, std::vector<std::uint8_t> frame,
                    const PeerAddr& from);

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::uint64_t next_frame_id_ = 1;
  std::vector<std::uint8_t> chunk_buf_; ///< send_frame's datagram, reused
  std::vector<std::uint8_t> recv_buf_;  ///< recv_frame's datagram, reused

  // Reassembly state for the frame currently being received. The bitmap (not
  // a bare counter) is what makes duplicated/reordered chunks safe: a frame
  // completes only when every distinct chunk index has arrived.
  bool assembling_active_ = false;
  std::uint64_t assembling_id_ = 0;
  std::uint32_t assembling_count_ = 0;
  std::uint32_t assembling_have_ = 0;
  std::vector<bool> assembling_received_;
  bool assembling_have_final_ = false;
  std::size_t assembling_final_len_ = 0;
  std::vector<std::uint8_t> assembling_;
  PeerAddr assembling_from_{};

  // Straggler suppression: duplicates of the last completed frame are
  // dropped instead of opening a bogus partial assembly.
  bool has_completed_ = false;
  std::uint64_t last_completed_id_ = 0;

  ChannelStats stats_;
};

} // namespace legosdn::appvisor
