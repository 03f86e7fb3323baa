#include "appvisor/udp_channel.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"

namespace legosdn::appvisor {

UdpChannel::~UdpChannel() { close(); }

Status UdpChannel::open() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return Error{Error::Code::kIo, "socket: " + std::string(strerror(errno))};
  // Generous buffers: snapshot bursts can be large.
  int buf = 4 * 1024 * 1024;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0; // ephemeral
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return Error{Error::Code::kIo, "bind: " + std::string(strerror(errno))};
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close();
    return Error{Error::Code::kIo, "getsockname: " + std::string(strerror(errno))};
  }
  local_port_ = ntohs(addr.sin_port);
  // Frame ids are namespaced by the sender's port so a respawned peer (fresh
  // channel, ids restarting at 1) cannot collide with ids the receiver has
  // already completed or is assembling.
  next_frame_id_ = (static_cast<std::uint64_t>(local_port_) << 32) | 1;
  return Status::success();
}

void UdpChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status UdpChannel::transmit(const PeerAddr& to, std::span<const std::uint8_t> datagram) {
  if (fd_ < 0) return Error{Error::Code::kIo, "channel not open"};
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(to.ip == 0 ? INADDR_LOOPBACK : to.ip);
  dst.sin_port = htons(to.port);
  const ssize_t sent = ::sendto(fd_, datagram.data(), datagram.size(), 0,
                                reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
  if (sent < 0)
    return Error{Error::Code::kIo, "sendto: " + std::string(strerror(errno))};
  stats_.chunks_sent += 1;
  return Status::success();
}

Status UdpChannel::send_datagram(const PeerAddr& to,
                                 std::span<const std::uint8_t> datagram) {
  return transmit(to, datagram);
}

void UdpChannel::flush_datagrams(const PeerAddr&) {}

Status UdpChannel::send_frame(const PeerAddr& to, std::span<const std::uint8_t> frame) {
  if (fd_ < 0) return Error{Error::Code::kIo, "channel not open"};
  const std::uint64_t id = next_frame_id_++;
  const std::size_t n_chunks =
      frame.empty() ? 1 : (frame.size() + kChunkPayload - 1) / kChunkPayload;
  // One reused datagram buffer, grown to the largest chunk this channel has
  // sent (a small RPC never touches more than its own bytes).
  const std::size_t max_chunk = kChunkHeader + std::min(kChunkPayload, frame.size());
  if (chunk_buf_.size() < max_chunk) chunk_buf_.resize(max_chunk);
  std::uint8_t* buf = chunk_buf_.data();
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t off = c * kChunkPayload;
    const std::size_t len = std::min(kChunkPayload, frame.size() - off);
    be::store_u64(buf, id);
    be::store_u32(buf + 8, static_cast<std::uint32_t>(c));
    be::store_u32(buf + 12, static_cast<std::uint32_t>(n_chunks));
    if (len) std::memcpy(buf + kChunkHeader, frame.data() + off, len);
    if (auto st = send_datagram(to, {buf, kChunkHeader + len}); !st) return st;
  }
  flush_datagrams(to);
  stats_.frames_sent += 1;
  return Status::success();
}

Result<UdpChannel::Received> UdpChannel::recv_frame(int timeout_ms) {
  if (fd_ < 0) return Error{Error::Code::kIo, "channel not open"};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  // One datagram of the largest chunk size, allocated once per channel.
  if (recv_buf_.empty()) recv_buf_.resize(kChunkHeader + kChunkPayload);
  std::uint8_t* buf = recv_buf_.data();

  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return Error{Error::Code::kTimeout, "recv timeout"};
    // Round the wait up: truncation would turn short timeouts (1-2 ms) into
    // zero and skip the poll entirely even with data already queued.
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count() +
        1;
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Error{Error::Code::kIo, "poll: " + std::string(strerror(errno))};
    }
    if (pr == 0) return Error{Error::Code::kTimeout, "recv timeout"};

    sockaddr_in src{};
    socklen_t slen = sizeof(src);
    const ssize_t n = ::recvfrom(fd_, buf, recv_buf_.size(), 0,
                                 reinterpret_cast<sockaddr*>(&src), &slen);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return Error{Error::Code::kIo, "recvfrom: " + std::string(strerror(errno))};
    }
    if (static_cast<std::size_t>(n) < kChunkHeader) continue; // runt; ignore

    const std::uint64_t id = be::load_u64(buf);
    const std::uint32_t idx = be::load_u32(buf + 8);
    const std::uint32_t count = be::load_u32(buf + 12);
    if (count == 0 || idx >= count) continue; // malformed; ignore
    stats_.chunks_received += 1;

    if (has_completed_ && id == last_completed_id_) {
      // Straggler duplicate of the frame we just finished: a retransmitted
      // chunk must not open a bogus partial assembly.
      stats_.stale_chunks_dropped += 1;
      continue;
    }

    PeerAddr from{ntohl(src.sin_addr.s_addr), ntohs(src.sin_port)};
    const std::size_t len = static_cast<std::size_t>(n) - kChunkHeader;
    if (!assembling_active_ || id != assembling_id_) {
      // New frame begins; drop any partial one (the sender retried with a
      // fresh frame id, so the partial can never complete).
      if (assembling_active_) stats_.reassembly_aborts += 1;
      if (count == 1) {
        // The whole frame is in this datagram: no reassembly buffer.
        assembling_active_ = false;
        return complete(id, std::vector<std::uint8_t>(buf + kChunkHeader, buf + n), from);
      }
      assembling_active_ = true;
      assembling_id_ = id;
      assembling_count_ = count;
      assembling_have_ = 0;
      assembling_received_.assign(count, false);
      assembling_have_final_ = false;
      assembling_final_len_ = 0;
      assembling_.assign(static_cast<std::size_t>(count) * kChunkPayload, 0);
      assembling_from_ = from;
    }
    if (count != assembling_count_) continue; // corrupt header; ignore chunk
    if (assembling_received_[idx]) {
      // Duplicate of a chunk we already hold. Counting it again (the old
      // bare-counter scheme) let a frame "complete" with a zero-filled hole.
      stats_.dup_chunks_dropped += 1;
      continue;
    }
    std::memcpy(assembling_.data() + static_cast<std::size_t>(idx) * kChunkPayload,
                buf + kChunkHeader, len);
    assembling_received_[idx] = true;
    assembling_have_ += 1;
    if (idx == assembling_count_ - 1) {
      // Final chunk defines the true frame length; it may arrive out of
      // order, so the resize happens only at completion.
      assembling_have_final_ = true;
      assembling_final_len_ = len;
    }
    if (assembling_have_ == assembling_count_) {
      assembling_.resize(
          static_cast<std::size_t>(assembling_count_ - 1) * kChunkPayload +
          assembling_final_len_);
      assembling_active_ = false;
      return complete(assembling_id_, std::exchange(assembling_, {}), assembling_from_);
    }
  }
}

UdpChannel::Received UdpChannel::complete(std::uint64_t id,
                                          std::vector<std::uint8_t> frame,
                                          const PeerAddr& from) {
  has_completed_ = true;
  last_completed_id_ = id;
  stats_.frames_received += 1;
  return {std::move(frame), from};
}

} // namespace legosdn::appvisor
