// Southbound socket layer tests: ring buffer mechanics, OF 1.0 handshake
// over real loopback TCP, byte-stream edge cases (trickle reassembly,
// header-boundary splits, malformed frames), keepalive timeouts with a
// manual clock, watermark backpressure, and the wire-vs-in-process scenario
// differential (identical NetLog commit stats and per-switch digests).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <optional>

#include "apps/learning_switch.hpp"
#include "common/cpus.hpp"
#include "helpers.hpp"
#include "legosdn/lego_controller.hpp"
#include "scenario/scenario.hpp"
#include "southbound/of_server.hpp"
#include "southbound/ring_buffer.hpp"
#include "southbound/southbound_bridge.hpp"
#include "southbound/wire_switch_client.hpp"

namespace legosdn::southbound {
namespace {

using namespace std::chrono;
namespace wire10 = of::wire10;

/// The exact message the receiving side will see: encode + decode, so
/// comparisons are immune to canonicalization (wildcard normalization, ...).
of::Message round_trip(const of::Message& msg, DatapathId dpid) {
  auto decoded = wire10::decode(wire10::encode(msg), dpid);
  EXPECT_TRUE(decoded.ok());
  return decoded.ok() ? std::move(decoded).value() : of::Message{};
}

of::FeaturesReply test_features(std::uint64_t dpid) {
  of::FeaturesReply fr;
  fr.dpid = DatapathId{dpid};
  fr.n_buffers = 64;
  fr.n_tables = 1;
  fr.ports.push_back({PortNo{1}, MacAddress::from_uint64(0xA1), "s1-eth1", true});
  fr.ports.push_back({PortNo{2}, MacAddress::from_uint64(0xA2), "s1-eth2", true});
  return fr;
}

of::PacketIn sample_packet_in(std::uint64_t dpid, std::uint16_t tp_dst) {
  of::PacketIn pi;
  pi.dpid = DatapathId{dpid};
  pi.buffer_id = of::PacketIn::kNoBuffer;
  pi.in_port = PortNo{1};
  pi.reason = of::PacketInReason::kNoMatch;
  pi.packet = test::packet_between(test::mac(1), test::mac(2), tp_dst);
  return pi;
}

/// A switch endpoint driven byte-by-byte from the test: a plain blocking
/// connect()ed socket whose receive path interleaves server pumping, so
/// tests never deadlock on unflushed server output.
class RawPeer {
public:
  explicit RawPeer(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (rcvbuf > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    ::sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<::sockaddr*>(&sa), sizeof(sa)) == 0;
  }
  ~RawPeer() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool connected() const { return connected_; }

  bool send_all(std::span<const std::uint8_t> bytes, OFServer& srv) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        srv.poll(1); // let the (possibly paused) server make progress
        continue;
      }
      return false;
    }
    return true;
  }

  /// One complete OF frame, pumping the server while waiting. Empty on
  /// timeout or EOF.
  std::vector<std::uint8_t> recv_frame(OFServer& srv, int ms = 2000) {
    return recv_frame_from(&srv, ms);
  }

  /// One complete OF frame that the server has already written: the server
  /// is not polled while waiting.
  std::vector<std::uint8_t> recv_written_frame(int ms = 2000) {
    return recv_frame_from(nullptr, ms);
  }

  /// Complete the server-initiated handshake: HELLO in, HELLO out,
  /// FEATURES_REQUEST in, FEATURES_REPLY out; pump until the server owns
  /// the dpid.
  testing::AssertionResult handshake(OFServer& srv,
                                     const of::FeaturesReply& features) {
    const auto hello = recv_frame(srv);
    if (hello.size() < 8 || hello[1] != 0)
      return testing::AssertionFailure() << "no server HELLO";
    if (!send_all(wire10::encode({1, of::Hello{}}), srv))
      return testing::AssertionFailure() << "HELLO send failed";
    const auto freq = recv_frame(srv);
    if (freq.size() < 8 || freq[1] != 5)
      return testing::AssertionFailure() << "no FEATURES_REQUEST";
    const std::uint32_t xid = (std::uint32_t{freq[4]} << 24) |
                              (std::uint32_t{freq[5]} << 16) |
                              (std::uint32_t{freq[6]} << 8) | freq[7];
    if (!send_all(wire10::encode({xid, features}), srv))
      return testing::AssertionFailure() << "FEATURES_REPLY send failed";
    const auto deadline = steady_clock::now() + seconds(2);
    while (!srv.knows(features.dpid)) {
      if (steady_clock::now() >= deadline)
        return testing::AssertionFailure() << "handshake never completed";
      srv.poll(1);
    }
    return testing::AssertionSuccess();
  }

private:
  /// One complete OF frame; polls `srv` while waiting unless it is null.
  std::vector<std::uint8_t> recv_frame_from(OFServer* srv, int ms) {
    const auto deadline = steady_clock::now() + milliseconds(ms);
    for (;;) {
      if (buf_.size() >= 4) {
        const std::size_t len = (std::size_t{buf_[2]} << 8) | buf_[3];
        if (len >= 8 && buf_.size() >= len) {
          std::vector<std::uint8_t> frame(buf_.begin(),
                                          buf_.begin() + static_cast<long>(len));
          buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(len));
          return frame;
        }
      }
      if (steady_clock::now() >= deadline) return {};
      if (srv) srv->poll(0);
      std::uint8_t tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), MSG_DONTWAIT);
      if (n > 0) buf_.insert(buf_.end(), tmp, tmp + n);
      if (n == 0) return {};
    }
  }

  int fd_ = -1;
  bool connected_ = false;
  std::vector<std::uint8_t> buf_;
};

// ---------------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> iota_bytes(std::uint8_t from, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(from + i);
  return v;
}

TEST(RingBuffer, WrapAroundPreservesByteOrder) {
  RingBuffer rb(8);
  rb.append(std::span<const std::uint8_t>(iota_bytes(0, 6)));
  rb.consume(5); // head=5, one byte (value 5) left
  rb.append(std::span<const std::uint8_t>(iota_bytes(6, 5))); // wraps
  ASSERT_EQ(rb.size(), 6u);
  ASSERT_EQ(rb.capacity(), 8u) << "wrap must not have forced growth";

  ::iovec iov[2] = {};
  EXPECT_EQ(rb.data_iovecs(iov), 2) << "contents should straddle the wrap";

  std::vector<std::uint8_t> scratch;
  const auto v = rb.view(6, scratch);
  EXPECT_EQ(std::vector<std::uint8_t>(v.begin(), v.end()), iota_bytes(5, 6));

  rb.consume(6);
  EXPECT_TRUE(rb.empty());
  // After full drain the head resets, so the next view is contiguous.
  rb.append(std::span<const std::uint8_t>(iota_bytes(1, 8)));
  EXPECT_EQ(rb.data_iovecs(iov), 1);
}

TEST(RingBuffer, FreeIovecsSplitAndCommit) {
  RingBuffer rb(8);
  rb.append(std::span<const std::uint8_t>(iota_bytes(0, 4)));
  rb.consume(2); // head=2, size=2, free space wraps: [4..8) + [0..2)
  ::iovec iov[2] = {};
  ASSERT_EQ(rb.free_iovecs(6, iov), 2);
  ASSERT_EQ(iov[0].iov_len + iov[1].iov_len, 6u);
  // Emulate readv depositing 6 bytes across both spans.
  auto fill = iota_bytes(4, 6);
  std::memcpy(iov[0].iov_base, fill.data(), iov[0].iov_len);
  std::memcpy(iov[1].iov_base, fill.data() + iov[0].iov_len, iov[1].iov_len);
  rb.commit(6);
  ASSERT_EQ(rb.size(), 8u);
  std::vector<std::uint8_t> out(8);
  rb.peek(out.data(), 8);
  EXPECT_EQ(out, iota_bytes(2, 8));
}

TEST(RingBuffer, GrowthRelinearizesContents) {
  RingBuffer rb(8);
  rb.append(std::span<const std::uint8_t>(iota_bytes(0, 6)));
  rb.consume(4); // wrapped free space
  rb.append(std::span<const std::uint8_t>(iota_bytes(6, 20))); // forces growth
  EXPECT_GE(rb.capacity(), 22u);
  std::vector<std::uint8_t> out(rb.size());
  rb.peek(out.data(), out.size());
  EXPECT_EQ(out, iota_bytes(4, 22));
  ::iovec iov[2] = {};
  EXPECT_EQ(rb.data_iovecs(iov), 1) << "growth must relinearize";
}

// ---------------------------------------------------------------------------
// Server handshake + framing edge cases over real sockets
// ---------------------------------------------------------------------------

struct ServerFixture {
  OFServer server;
  std::vector<ctl::Event> events;

  explicit ServerFixture(OFServerConfig cfg = {}) {
    cfg.echo_interval_ms = cfg.now_ms ? cfg.echo_interval_ms : 0;
    cfg.idle_timeout_ms = cfg.now_ms ? cfg.idle_timeout_ms : 0;
    auto st = server.listen(std::move(cfg),
                            [this](ctl::Event e) { events.push_back(std::move(e)); });
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().to_string());
  }
};

TEST(OFServer, HandshakeEmitsSwitchUpWithWireFeatures) {
  ServerFixture fx;
  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.connected());
  const auto features = test_features(7);
  ASSERT_TRUE(peer.handshake(fx.server, features));

  ASSERT_EQ(fx.events.size(), 1u);
  const auto* up = std::get_if<ctl::SwitchUp>(&fx.events[0]);
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->dpid, DatapathId{7});
  // Port names, MACs, buffer counts all survive the wire round-trip.
  EXPECT_EQ(up->features, features);
  EXPECT_EQ(fx.server.ready_connections(), 1u);
  EXPECT_EQ(fx.server.stats().handshakes, 1u);
}

TEST(OFServer, OneByteTrickleReassembly) {
  ServerFixture fx;
  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.handshake(fx.server, test_features(3)));

  const of::Message msg{0x42, sample_packet_in(3, 8080)};
  const auto frame = wire10::encode(msg);
  for (const std::uint8_t b : frame) {
    ASSERT_TRUE(peer.send_all(std::span<const std::uint8_t>(&b, 1), fx.server));
    fx.server.poll(0);
  }
  const auto deadline = steady_clock::now() + seconds(2);
  while (fx.events.size() < 2 && steady_clock::now() < deadline) fx.server.poll(1);

  ASSERT_EQ(fx.events.size(), 2u);
  const auto* pi = std::get_if<of::PacketIn>(&fx.events[1]);
  ASSERT_NE(pi, nullptr);
  const auto expect = round_trip(msg, DatapathId{3});
  EXPECT_EQ(*pi, *expect.get_if<of::PacketIn>());
}

TEST(OFServer, SplitExactlyAtHeaderBoundary) {
  ServerFixture fx;
  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.handshake(fx.server, test_features(4)));

  const of::Message msg{7, sample_packet_in(4, 443)};
  const auto frame = wire10::encode(msg);
  ASSERT_GT(frame.size(), of::wire10::kHeaderLen);
  // The full header arrives alone: the server knows the length but must not
  // emit anything until the body lands.
  ASSERT_TRUE(peer.send_all(
      std::span<const std::uint8_t>(frame.data(), of::wire10::kHeaderLen),
      fx.server));
  for (int i = 0; i < 20; ++i) fx.server.poll(1);
  EXPECT_EQ(fx.events.size(), 1u) << "half a frame must not produce an event";

  ASSERT_TRUE(peer.send_all(
      std::span<const std::uint8_t>(frame.data() + of::wire10::kHeaderLen,
                                    frame.size() - of::wire10::kHeaderLen),
      fx.server));
  const auto deadline = steady_clock::now() + seconds(2);
  while (fx.events.size() < 2 && steady_clock::now() < deadline) fx.server.poll(1);
  ASSERT_EQ(fx.events.size(), 2u);
  EXPECT_NE(std::get_if<of::PacketIn>(&fx.events[1]), nullptr);
}

TEST(OFServer, TwoFramesInOneWriteBothDelivered) {
  ServerFixture fx;
  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.handshake(fx.server, test_features(5)));

  const of::Message m1{1, sample_packet_in(5, 80)};
  const of::Message m2{2, sample_packet_in(5, 443)};
  auto batch = wire10::encode(m1);
  const auto f2 = wire10::encode(m2);
  batch.insert(batch.end(), f2.begin(), f2.end());
  ASSERT_TRUE(peer.send_all(batch, fx.server));

  const auto deadline = steady_clock::now() + seconds(2);
  while (fx.events.size() < 3 && steady_clock::now() < deadline) fx.server.poll(1);
  ASSERT_EQ(fx.events.size(), 3u);
  const auto* p1 = std::get_if<of::PacketIn>(&fx.events[1]);
  const auto* p2 = std::get_if<of::PacketIn>(&fx.events[2]);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p1->packet.hdr.tp_dst, 80);
  EXPECT_EQ(p2->packet.hdr.tp_dst, 443);
}

TEST(OFServer, ReadPassDeliversMultiFrameBatch) {
  // Wire batching (DESIGN.md §4.7): with set_event_batch installed, every
  // complete frame decoded during one socket read pass arrives as one
  // ordered span, and the per-event callback is bypassed entirely.
  OFServer server;
  std::vector<std::vector<ctl::Event>> batches;
  server.set_event_batch(
      [&](std::vector<ctl::Event> evs) { batches.push_back(std::move(evs)); });
  OFServerConfig cfg;
  cfg.echo_interval_ms = 0;
  cfg.idle_timeout_ms = 0;
  std::size_t per_event_calls = 0;
  ASSERT_TRUE(
      server.listen(std::move(cfg), [&](ctl::Event) { ++per_event_calls; }).ok());

  RawPeer peer(server.port());
  ASSERT_TRUE(peer.handshake(server, test_features(11)));

  // Three frames in one write: one read pass, one batch.
  std::vector<std::uint8_t> wire;
  for (std::uint16_t tp : {80, 443, 22}) {
    const auto f = wire10::encode({tp, sample_packet_in(11, tp)});
    wire.insert(wire.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(peer.send_all(wire, server));

  std::size_t pins = 0;
  const auto deadline = steady_clock::now() + seconds(2);
  while (pins < 3 && steady_clock::now() < deadline) {
    server.poll(1);
    pins = 0;
    for (const auto& b : batches)
      for (const auto& e : b)
        if (std::holds_alternative<of::PacketIn>(e)) ++pins;
  }
  ASSERT_EQ(pins, 3u);
  EXPECT_EQ(per_event_calls, 0u)
      << "batch mode must not also invoke the per-event callback";

  // The SwitchUp rode its own read pass; all three packet-ins share one
  // batch, in wire order.
  const auto& last = batches.back();
  ASSERT_EQ(last.size(), 3u) << "frames from one read pass must form one batch";
  EXPECT_EQ(std::get<of::PacketIn>(last[0]).packet.hdr.tp_dst, 80);
  EXPECT_EQ(std::get<of::PacketIn>(last[1]).packet.hdr.tp_dst, 443);
  EXPECT_EQ(std::get<of::PacketIn>(last[2]).packet.hdr.tp_dst, 22);
  const auto st = server.stats();
  EXPECT_GE(st.event_batches, 2u); // SwitchUp batch + the packet-in batch
  EXPECT_EQ(st.events_out, 4u);
}

// Regression (wakeup churn): a burst of cross-thread send()s must collapse
// into one eventfd poke per poll cycle, not one per message — the loop is
// woken once and flushes the whole dirty list with coalesced writev calls.
TEST(OFServer, CrossThreadSendBurstsCoalesceWakeups) {
  ServerFixture fx;
  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.handshake(fx.server, test_features(12)));
  const auto base = fx.server.stats();

  constexpr int kBursts = 10, kPerBurst = 20;
  for (int burst = 0; burst < kBursts; ++burst) {
    for (int i = 0; i < kPerBurst; ++i)
      ASSERT_TRUE(fx.server.send(DatapathId{12}, {std::uint32_t(i), of::EchoRequest{7}}));
    // Drain this burst before the next: every frame out of the server.
    for (int i = 0; i < kPerBurst; ++i)
      ASSERT_FALSE(peer.recv_frame(fx.server).empty()) << "burst " << burst;
  }

  const auto st = fx.server.stats();
  EXPECT_EQ(st.sends - base.sends, std::uint64_t{kBursts * kPerBurst});
  const auto wakeups = st.wakeups - base.wakeups;
  EXPECT_GE(wakeups, 1u);
  EXPECT_LE(wakeups, std::uint64_t{kBursts})
      << "wakeups must scale with poll cycles, not with messages";
}

// A send() made inside the batch callback, on the thread inside poll() (on
// one CPU, a dispatcher lane's batch run inline there), is written by that
// same poll() without an eventfd poke; a send() from outside poll() still
// pokes the loop once.
TEST(OFServer, SendFromBatchCallbackIsWrittenBySamePollWithoutWakeup) {
  OFServer server;
  std::size_t packet_ins = 0;
  server.set_event_batch([&](std::vector<ctl::Event> evs) {
    for (const auto& e : evs) {
      if (const auto* pin = std::get_if<of::PacketIn>(&e)) {
        ++packet_ins;
        EXPECT_TRUE(server.send(pin->dpid, {77, of::EchoRequest{5}}));
      }
    }
  });
  OFServerConfig cfg;
  cfg.echo_interval_ms = 0;
  cfg.idle_timeout_ms = 0;
  ASSERT_TRUE(server.listen(std::move(cfg), [](ctl::Event) {}).ok());
  RawPeer peer(server.port());
  ASSERT_TRUE(peer.handshake(server, test_features(13)));
  const auto base = server.stats();

  ASSERT_TRUE(peer.send_all(wire10::encode({1, sample_packet_in(13, 8080)}), server));
  const auto deadline = steady_clock::now() + seconds(2);
  while (packet_ins == 0 && steady_clock::now() < deadline) server.poll(1);
  ASSERT_EQ(packet_ins, 1u);
  const auto echo = peer.recv_written_frame(); // no further poll()
  ASSERT_FALSE(echo.empty()) << "the callback's send waited for a later poll()";
  EXPECT_EQ(echo[1], 2) << "expected the ECHO_REQUEST the callback sent";
  EXPECT_EQ(server.stats().wakeups, base.wakeups);

  ASSERT_TRUE(server.send(DatapathId{13}, {78, of::EchoRequest{6}}));
  EXPECT_EQ(server.stats().wakeups, base.wakeups + 1);
  EXPECT_FALSE(peer.recv_frame(server).empty());
}

TEST(OFServer, MalformedLengthDisconnectsAndSlotIsReclaimed) {
  ServerFixture fx;
  {
    RawPeer peer(fx.server.port());
    ASSERT_TRUE(peer.handshake(fx.server, test_features(9)));
    // length field 4 < sizeof(ofp_header): unrecoverable mis-framing.
    const std::uint8_t evil[] = {0x01, 0x0A, 0x00, 0x04, 0, 0, 0, 1};
    ASSERT_TRUE(peer.send_all(evil, fx.server));
    const auto deadline = steady_clock::now() + seconds(2);
    while (fx.server.connections() > 0 && steady_clock::now() < deadline)
      fx.server.poll(1);
  }
  EXPECT_EQ(fx.server.connections(), 0u);
  EXPECT_EQ(fx.server.ready_connections(), 0u);
  EXPECT_GE(fx.server.stats().protocol_errors, 1u);
  ASSERT_EQ(fx.events.size(), 2u);
  EXPECT_NE(std::get_if<ctl::SwitchDown>(&fx.events[1]), nullptr);

  // The dpid slot is free again: a fresh connection takes it over.
  RawPeer again(fx.server.port());
  ASSERT_TRUE(again.handshake(fx.server, test_features(9)));
  ASSERT_EQ(fx.events.size(), 3u);
  EXPECT_NE(std::get_if<ctl::SwitchUp>(&fx.events[2]), nullptr);
}

TEST(OFServer, SpeakingBeforeHelloIsAProtocolError) {
  ServerFixture fx;
  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.connected());
  (void)peer.recv_frame(fx.server); // server HELLO
  // A packet-in before our HELLO: valid frame, wrong state.
  ASSERT_TRUE(peer.send_all(wire10::encode({1, sample_packet_in(1, 80)}), fx.server));
  const auto deadline = steady_clock::now() + seconds(2);
  while (fx.server.connections() > 0 && steady_clock::now() < deadline)
    fx.server.poll(1);
  EXPECT_EQ(fx.server.connections(), 0u);
  EXPECT_GE(fx.server.stats().protocol_errors, 1u);
  EXPECT_TRUE(fx.events.empty()) << "never-ready peers emit no SwitchDown";
}

TEST(OFServer, UnknownTypeCountedStreamSurvives) {
  ServerFixture fx;
  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.handshake(fx.server, test_features(6)));

  // Well-framed but unknown type byte: count it, keep the connection.
  const std::uint8_t unknown[] = {0x01, 0x63, 0x00, 0x08, 0, 0, 0, 9};
  ASSERT_TRUE(peer.send_all(unknown, fx.server));
  ASSERT_TRUE(peer.send_all(wire10::encode({3, sample_packet_in(6, 22)}), fx.server));

  const auto deadline = steady_clock::now() + seconds(2);
  while (fx.events.size() < 2 && steady_clock::now() < deadline) fx.server.poll(1);
  EXPECT_EQ(fx.server.connections(), 1u);
  EXPECT_GE(fx.server.stats().decode_errors, 1u);
  ASSERT_EQ(fx.events.size(), 2u);
  EXPECT_NE(std::get_if<of::PacketIn>(&fx.events[1]), nullptr);
}

TEST(OFServer, SendToUnknownDpidIsDropped) {
  ServerFixture fx;
  EXPECT_FALSE(fx.server.send(DatapathId{77}, {1, of::Hello{}}));
  EXPECT_EQ(fx.server.stats().sends_dropped, 1u);
}

TEST(OFServer, EchoKeepaliveProbesThenTimesOutOnManualClock) {
  std::uint64_t clock = 1'000;
  OFServerConfig cfg;
  cfg.now_ms = [&clock] { return clock; };
  cfg.echo_interval_ms = 100;
  cfg.idle_timeout_ms = 300;
  cfg.timer_sweep_ms = 1;
  ServerFixture fx(std::move(cfg));

  RawPeer peer(fx.server.port());
  ASSERT_TRUE(peer.handshake(fx.server, test_features(2)));

  // Idle past the echo interval: the server probes.
  clock = 1'150;
  fx.server.poll(0);
  auto probe = peer.recv_frame(fx.server);
  ASSERT_EQ(probe.size(), 16u);
  EXPECT_EQ(probe[1], 2) << "expected ECHO_REQUEST";
  EXPECT_EQ(fx.server.stats().echo_probes, 1u);

  // Replying clears the outstanding probe and refreshes last-rx.
  probe[1] = 3; // same xid + payload, type becomes ECHO_REPLY
  ASSERT_TRUE(peer.send_all(probe, fx.server));
  for (int i = 0; i < 10; ++i) fx.server.poll(1);

  // Going silent: one more probe at +100ms, then the idle timeout reaps the
  // connection at +300ms.
  clock = 1'300;
  fx.server.poll(0);
  EXPECT_EQ(fx.server.stats().echo_probes, 2u);
  clock = 1'500;
  const auto deadline = steady_clock::now() + seconds(2);
  while (fx.server.connections() > 0 && steady_clock::now() < deadline)
    fx.server.poll(1);
  EXPECT_EQ(fx.server.connections(), 0u);
  EXPECT_EQ(fx.server.stats().echo_timeouts, 1u);
  ASSERT_EQ(fx.events.size(), 2u);
  EXPECT_NE(std::get_if<ctl::SwitchDown>(&fx.events[1]), nullptr);

  // Slot reclaimed: the same dpid can come back.
  RawPeer again(fx.server.port());
  ASSERT_TRUE(again.handshake(fx.server, test_features(2)));
  EXPECT_EQ(fx.server.ready_connections(), 1u);
}

TEST(OFServer, WatermarkPausesReadsOnSaturatedPeerThenResumes) {
  OFServerConfig cfg;
  cfg.sndbuf = 4096;
  cfg.limits.high_watermark = 64 << 10;
  cfg.limits.low_watermark = 4 << 10;
  ServerFixture fx(std::move(cfg));

  RawPeer peer(fx.server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(peer.handshake(fx.server, test_features(5)));

  of::FlowMod fm;
  fm.dpid = DatapathId{5};
  fm.match = of::Match{}.with_tp_dst(80);
  fm.actions = of::output_to(PortNo{2});
  const of::Message msg{1, fm};
  constexpr int kFrames = 16'000; // ~1.25 MB against a few KB of socket buffer
  for (int i = 0; i < kFrames; ++i) ASSERT_TRUE(fx.server.send(DatapathId{5}, msg));
  for (int i = 0; i < 50; ++i) fx.server.poll(0);
  EXPECT_GE(fx.server.stats().reads_paused, 1u)
      << "a saturated peer must pause reads";

  // Drain everything; the backlog falling below the low mark re-arms reads.
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_FALSE(peer.recv_frame(fx.server, 5000).empty()) << "frame " << i;
  }
  EXPECT_GE(fx.server.stats().reads_resumed, 1u);

  // Prove EPOLLIN is really back: an echo round-trip.
  ASSERT_TRUE(peer.send_all(wire10::encode({99, of::EchoRequest{0xABCD}}), fx.server));
  const auto reply = peer.recv_frame(fx.server);
  ASSERT_EQ(reply.size(), 16u);
  EXPECT_EQ(reply[1], 3) << "expected ECHO_REPLY";
}

// ---------------------------------------------------------------------------
// WireSwitchClient <-> OFServer
// ---------------------------------------------------------------------------

TEST(WireSwitchClient, HandshakesAndReceivesDowncalls) {
  ServerFixture fx;
  EventLoop cloop;
  WireSwitchClient::Config cc;
  cc.dpid = DatapathId{11};
  cc.features = test_features(11);
  std::vector<of::Message> downcalls;
  WireSwitchClient client(cloop, cc,
                          [&](const of::Message& m) { downcalls.push_back(m); });
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()).ok());

  auto pump_until = [&](auto pred) {
    const auto deadline = steady_clock::now() + seconds(2);
    while (!pred() && steady_clock::now() < deadline) {
      fx.server.poll(0);
      cloop.poll(0);
    }
    return pred();
  };
  ASSERT_TRUE(pump_until([&] { return fx.server.knows(DatapathId{11}); }));
  EXPECT_TRUE(client.ready());
  ASSERT_EQ(fx.events.size(), 1u);
  const auto* up = std::get_if<ctl::SwitchUp>(&fx.events[0]);
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->features, cc.features);

  of::FlowMod fm;
  fm.dpid = DatapathId{11};
  fm.match = of::Match{}.with_tp_dst(8080);
  fm.actions = of::output_to(PortNo{1});
  const of::Message msg{5, fm};
  ASSERT_TRUE(fx.server.send(DatapathId{11}, msg));
  ASSERT_TRUE(pump_until([&] { return !downcalls.empty(); }));
  const auto expect = round_trip(msg, DatapathId{11});
  EXPECT_EQ(*downcalls[0].get_if<of::FlowMod>(), *expect.get_if<of::FlowMod>());
  EXPECT_EQ(client.stats().downcalls, 1u);
}

// ---------------------------------------------------------------------------
// Bridge: sharded dispatch fed from the wire
// ---------------------------------------------------------------------------

/// `one_cpu`: the controller's lanes are built pinned to one CPU, so read
/// passes run their batches inline on the pumping thread.
void drive_sharded_bridge(bool one_cpu) {
  auto net = netsim::Network::linear(4, 2);
  ASSERT_NE(net, nullptr);
  lego::LegoConfig cfg;
  cfg.dispatch.shards = 4;
  auto lego = std::make_unique<lego::LegoController>(*net, cfg);
  lego->add_app(std::make_shared<apps::LearningSwitch>());

  SouthboundBridge bridge(*net, *lego);
  ASSERT_TRUE(bridge.start().ok());
  bridge.attach_netlog(lego->netlog());
  bridge.set_delivery_gate([l = lego.get()](const std::function<void()>& fn) {
    l->with_txn_write_gate(fn);
  });
  {
    std::optional<test::OneCpuScope> pin;
    if (one_cpu) pin.emplace();
    ASSERT_TRUE(lego->start_system().ok());
  }
  bridge.settle();
  EXPECT_EQ(bridge.server().stats().handshakes, 4u);

  const std::size_t n = net->hosts().size();
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        if (s == d) continue;
        net->inject_from_host(net->hosts()[s].mac, test::host_packet(*net, s, d));
        bridge.settle();
      }
    }
  }
  for (std::size_t d = 0; d < n; ++d) EXPECT_GT(net->hosts()[d].rx_packets, 0u);
  EXPECT_GT(bridge.server().stats().events_out, 0u);
  EXPECT_GT(lego->netlog().stats().committed, 0u);
  // A verifying transaction holds the delivery gate, so its new rules are
  // still on the wire when it verifies: the checker overlays them.
  EXPECT_GT(lego->lego_stats().verify_overlays, 0u);
  EXPECT_EQ(bridge.stats().northbound_dropped, 0u);
  EXPECT_EQ(bridge.stats().southbound_dropped, 0u);
  const auto ds = lego->dispatch_engine()->stats();
  if (one_cpu) {
    EXPECT_GT(ds.inline_batches, 0u);
  } else if (usable_cpus() > 1) {
    EXPECT_EQ(ds.inline_batches, 0u);
  }

  // Destroy the controller first: its lanes drain while the bridge's server
  // (the southbound hook target) is still alive.
  lego.reset();
}

TEST(SouthboundBridge, ShardedDispatcherDrivenFromSockets) {
  drive_sharded_bridge(/*one_cpu=*/false);
}

TEST(SouthboundBridge, ShardedDispatcherDrivenFromSocketsOnOneCpu) {
  drive_sharded_bridge(/*one_cpu=*/true);
}

// ---------------------------------------------------------------------------
// Differential oracle: wire southbound == in-process southbound
// ---------------------------------------------------------------------------

scenario::RunResult run_script(const std::string& body, const char* southbound) {
  const std::string script = std::string("southbound ") + southbound + "\n" + body;
  auto sc = scenario::Scenario::parse(script);
  EXPECT_TRUE(sc.ok()) << (sc.ok() ? "" : sc.error().to_string());
  return sc.value().run();
}

void expect_equivalent(const scenario::RunResult& in_process,
                       const scenario::RunResult& wire) {
  EXPECT_TRUE(in_process.ok) << in_process.error << "\n" << in_process.transcript;
  EXPECT_TRUE(wire.ok) << wire.error << "\n" << wire.transcript;
  EXPECT_EQ(in_process.started, wire.started);
  EXPECT_EQ(in_process.controller_down, wire.controller_down);
  EXPECT_EQ(in_process.violations, wire.violations);
  EXPECT_EQ(in_process.n_hosts, wire.n_hosts);
  EXPECT_EQ(in_process.reachability, wire.reachability);
  EXPECT_EQ(in_process.netlog_committed, wire.netlog_committed);
  EXPECT_EQ(in_process.netlog_rolled_back, wire.netlog_rolled_back);
  EXPECT_EQ(in_process.switch_digests, wire.switch_digests);
  EXPECT_NE(wire.transcript.find("wire southbound"), std::string::npos);
}

TEST(ScenarioWireDifferential, LegoCrashRecovery) {
  const std::string body = R"(topology linear 3 2
architecture legosdn
app learning-switch
wrap crashy tp_dst=666
start
traffic pairs 1
send 0 2 666
send 0 3 80
expect controller up
expect crashes == 1
)";
  const auto a = run_script(body, "inprocess");
  const auto b = run_script(body, "wire");
  expect_equivalent(a, b);
  // The oracle must bite: this script commits transactions and installs rules.
  EXPECT_GT(a.netlog_committed, 0u);
  EXPECT_FALSE(a.switch_digests.empty());
}

TEST(ScenarioWireDifferential, MonolithicBaseline) {
  // Linear, not ring: flooding an unknown destination around a cycle is a
  // packet storm in both southbound modes (kStop echo suppression only kicks
  // in once the destination is learned), so rings never quiesce here.
  const std::string body = R"(topology linear 4 1
architecture monolithic
app learning-switch
start
traffic pairs 2
expect controller up
)";
  expect_equivalent(run_script(body, "inprocess"), run_script(body, "wire"));
}

TEST(ScenarioWireDifferential, UpgradeOverSurvivingConnections) {
  const std::string body = R"(topology linear 3 1
architecture legosdn
app learning-switch
start
traffic pairs 1
upgrade
traffic pairs 1
expect controller up
)";
  expect_equivalent(run_script(body, "inprocess"), run_script(body, "wire"));
}

TEST(ScenarioWireDifferential, ByzantineRollback) {
  // The body of examples/scenarios/byzantine_rollback.scn. Over the wire the
  // black-hole rule is still in flight when the transaction verifies, so the
  // pending-rule overlay has to catch it; in-process it has landed and the
  // live tables do. Both must roll back the same transaction.
  const std::string body = R"(topology linear 2 1
app learning-switch
wrap byzantine blackhole tp_dst=666
start
send 0 1 80
send 1 0 80
send 0 1 666
expect byzantine == 1
expect controller up
send 0 1 80
expect delivered 1 >= 2
)";
  const auto a = run_script(body, "inprocess");
  const auto b = run_script(body, "wire");
  expect_equivalent(a, b);
  EXPECT_EQ(a.netlog_rolled_back, 1u);
}

TEST(ScenarioWireDifferential, SwitchChurnReconnects) {
  const std::string body = R"(topology linear 3 2
architecture legosdn
app learning-switch
start
traffic pairs 1
switch down 2
switch up 2
traffic pairs 1
expect controller up
)";
  expect_equivalent(run_script(body, "inprocess"), run_script(body, "wire"));
}

} // namespace
} // namespace legosdn::southbound
