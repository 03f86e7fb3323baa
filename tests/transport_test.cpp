// Transport-reliability tests: chunk reassembly under duplication/reorder
// (regressions for the bare-counter and frame-id-sentinel bugs), the seeded
// FaultyChannel, and the proxy<->stub RPC retry layer under a lossy channel.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "appvisor/faulty_channel.hpp"
#include "appvisor/process_domain.hpp"
#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"
#include "openflow/wire10.hpp"

namespace legosdn::appvisor {
namespace {

// Sends hand-crafted chunk datagrams so tests can duplicate, reorder, and
// replay individual chunks of a frame — the scenarios a lossy channel
// produces and the reassembler must survive.
class RawChunkSender {
public:
  RawChunkSender() { fd_ = ::socket(AF_INET, SOCK_DGRAM, 0); }
  ~RawChunkSender() { ::close(fd_); }

  void chunk(std::uint16_t port, std::uint64_t frame_id, std::uint32_t idx,
             std::uint32_t count, std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> buf(UdpChannel::kChunkHeader + payload.size());
    for (int i = 7; i >= 0; --i) {
      buf[i] = static_cast<std::uint8_t>(frame_id & 0xFF);
      frame_id >>= 8;
    }
    for (int i = 3; i >= 0; --i) {
      buf[8 + i] = static_cast<std::uint8_t>(idx & 0xFF);
      idx >>= 8;
    }
    for (int i = 3; i >= 0; --i) {
      buf[12 + i] = static_cast<std::uint8_t>(count & 0xFF);
      count >>= 8;
    }
    std::memcpy(buf.data() + UdpChannel::kChunkHeader, payload.data(),
                payload.size());
    sockaddr_in dst{};
    dst.sin_family = AF_INET;
    dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    dst.sin_port = htons(port);
    ASSERT_GE(::sendto(fd_, buf.data(), buf.size(), 0,
                       reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
              0);
  }

private:
  int fd_ = -1;
};

std::vector<std::uint8_t> pattern_frame(std::size_t n_full_chunks,
                                        std::size_t tail_len) {
  std::vector<std::uint8_t> frame(n_full_chunks * UdpChannel::kChunkPayload +
                                  tail_len);
  Rng rng(42);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
  return frame;
}

std::span<const std::uint8_t> chunk_of(const std::vector<std::uint8_t>& frame,
                                       std::size_t idx) {
  const std::size_t off = idx * UdpChannel::kChunkPayload;
  const std::size_t len = std::min(UdpChannel::kChunkPayload, frame.size() - off);
  return {frame.data() + off, len};
}

// Regression (bare-counter bug): a retransmitted chunk used to bump the
// have-counter twice, so the frame "completed" with a zero-filled hole where
// the never-received chunk belonged. With the received-bitmap the duplicate
// is dropped and the frame completes only once every chunk truly arrived.
TEST(Reassembly, DuplicateChunkNeverCompletesFrameWithHole) {
  UdpChannel rx;
  ASSERT_TRUE(rx.open());
  RawChunkSender tx;
  const auto frame = pattern_frame(2, 100); // 3 chunks
  const std::uint64_t id = 0xABC;

  tx.chunk(rx.local_port(), id, 0, 3, chunk_of(frame, 0));
  tx.chunk(rx.local_port(), id, 1, 3, chunk_of(frame, 1));
  tx.chunk(rx.local_port(), id, 1, 3, chunk_of(frame, 1)); // duplicate

  // Chunk 2 is still missing: the receiver must time out, not hand back a
  // frame with 32 KiB of zeros where chunk 2 belongs.
  auto early = rx.recv_frame(100);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().code, Error::Code::kTimeout);
  EXPECT_GE(rx.stats().dup_chunks_dropped, 1u);

  // The partial assembly survived the timeout; the real chunk 2 finishes it.
  tx.chunk(rx.local_port(), id, 2, 3, chunk_of(frame, 2));
  auto rcv = rx.recv_frame(1000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_EQ(rcv.value().frame, frame);
}

TEST(Reassembly, OutOfOrderChunksReassembleByteIdentical) {
  UdpChannel rx;
  ASSERT_TRUE(rx.open());
  RawChunkSender tx;
  const auto frame = pattern_frame(3, 7); // 4 chunks, short tail
  const std::uint64_t id = 77;

  // Final chunk first: its (short) length must not be applied until the
  // whole frame is present.
  for (std::uint32_t idx : {3u, 0u, 2u, 1u})
    tx.chunk(rx.local_port(), id, idx, 4, chunk_of(frame, idx));

  auto rcv = rx.recv_frame(1000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_EQ(rcv.value().frame, frame);
}

// Regression (frame-id-sentinel bug): after completing a frame the assembler
// reset its id to 0, so a late duplicate chunk of the just-finished frame
// opened a bogus partial assembly — which then evicted the first chunks of
// the next real frame. Stragglers of the last completed frame must be
// dropped.
TEST(Reassembly, LateStragglerOfCompletedFrameDoesNotEvictNextFrame) {
  UdpChannel rx;
  ASSERT_TRUE(rx.open());
  RawChunkSender tx;
  const auto frame_a = pattern_frame(1, 50); // 2 chunks
  const auto frame_b = pattern_frame(2, 9);  // 3 chunks, different content
  const std::uint64_t id_a = 500, id_b = 501;

  tx.chunk(rx.local_port(), id_a, 0, 2, chunk_of(frame_a, 0));
  tx.chunk(rx.local_port(), id_a, 1, 2, chunk_of(frame_a, 1));
  auto got_a = rx.recv_frame(1000);
  ASSERT_TRUE(got_a.ok());
  EXPECT_EQ(got_a.value().frame, frame_a);

  // Frame B starts; then a straggler duplicate of frame A lands mid-flight.
  tx.chunk(rx.local_port(), id_b, 0, 3, chunk_of(frame_b, 0));
  tx.chunk(rx.local_port(), id_a, 1, 2, chunk_of(frame_a, 1)); // straggler
  tx.chunk(rx.local_port(), id_b, 1, 3, chunk_of(frame_b, 1));
  tx.chunk(rx.local_port(), id_b, 2, 3, chunk_of(frame_b, 2));

  auto got_b = rx.recv_frame(1000);
  ASSERT_TRUE(got_b.ok()) << "straggler evicted the in-flight frame";
  EXPECT_EQ(got_b.value().frame, frame_b);
  EXPECT_GE(rx.stats().stale_chunks_dropped, 1u);
  EXPECT_EQ(rx.stats().reassembly_aborts, 0u);
}

TEST(FaultyChannel, DuplicationOnlyDeliversEveryFrameIntact) {
  FaultSpec spec;
  spec.duplicate = 0.5;
  spec.seed = 7;
  FaultyChannel tx(spec);
  UdpChannel rx;
  ASSERT_TRUE(tx.open());
  ASSERT_TRUE(rx.open());

  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    // Mix of single- and multi-chunk frames.
    std::vector<std::uint8_t> frame(1 + rng.below(3 * UdpChannel::kChunkPayload));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    ASSERT_TRUE(tx.send_frame({0, rx.local_port()}, frame));
    auto rcv = rx.recv_frame(2000);
    ASSERT_TRUE(rcv.ok()) << "frame " << i << " lost under duplication";
    ASSERT_EQ(rcv.value().frame, frame) << "frame " << i << " corrupted";
  }
  EXPECT_GT(tx.injected().duplicates, 0u);
  // Every duplicate was either a dup of an in-flight chunk or a straggler of
  // a completed frame — all dropped, none assembled into a frame.
  EXPECT_EQ(rx.stats().frames_received, 200u);
}

TEST(FaultyChannel, SameSeedSameFaultSequence) {
  FaultSpec spec;
  spec.drop = 0.3;
  spec.duplicate = 0.2;
  spec.seed = 99;
  FaultyChannel a(spec), b(spec);
  UdpChannel rx_a, rx_b;
  ASSERT_TRUE(a.open());
  ASSERT_TRUE(b.open());
  ASSERT_TRUE(rx_a.open());
  ASSERT_TRUE(rx_b.open());
  const std::vector<std::uint8_t> frame(100, 0x5A);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(a.send_frame({0, rx_a.local_port()}, frame));
    ASSERT_TRUE(b.send_frame({0, rx_b.local_port()}, frame));
  }
  EXPECT_EQ(a.injected().drops, b.injected().drops);
  EXPECT_EQ(a.injected().duplicates, b.injected().duplicates);
  EXPECT_GT(a.injected().drops, 0u);
}

of::PacketIn sample_packet_in() {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(1),
                                             MacAddress::from_uint64(2), 80);
  return pin;
}

// Property test (fixed seed): RPC exchanges across a channel dropping,
// duplicating, and reordering ~10% of datagrams in each direction must each
// either return the hub's correct EventDone or fail with a clean timeout —
// never a corrupt frame, never a hang, and never a misclassified crash.
TEST(LossyRpc, ExchangesCompleteOrTimeOutCleanlyUnderLoss) {
  ProcessDomain::Config cfg;
  cfg.faults.drop = 0.10;
  cfg.faults.duplicate = 0.05;
  cfg.faults.reorder = 0.05;
  cfg.faults.seed = 0xFEEDBEEF;
  cfg.retry_initial_timeout_ms = 10;
  cfg.retry_max = 10;
  cfg.deliver_timeout_ms = 3000;
  cfg.rpc_timeout_ms = 5000;

  ProcessDomain d(std::make_shared<apps::Hub>(), cfg);
  ASSERT_TRUE(d.start());

  // Reference output: what the hub emits for this packet-in, computed
  // locally so every RPC result can be checked byte-for-byte.
  apps::Hub reference;
  std::uint32_t ref_xid = 1;
  CollectingServiceApi ref_api(kSimStart, &ref_xid);
  reference.handle_event(ctl::Event{sample_packet_in()}, ref_api);
  const auto expected = std::move(ref_api).take();
  ASSERT_EQ(expected.size(), 1u);
  const auto expected_wire = of::wire10::encode(expected[0]);

  constexpr int kExchanges = 1000;
  int ok = 0, timeouts = 0;
  for (int i = 0; i < kExchanges; ++i) {
    auto out = d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
    if (out.ok()) {
      ok += 1;
      // Byte-identical or bust: loss must never corrupt a payload. The hub
      // is stateless, so every exchange has the same expected reply body
      // (the message-level xid comes from the stub's own counter and is
      // excluded by comparing the PacketOut body, which has operator==).
      ASSERT_EQ(out.emitted.size(), 1u) << "exchange " << i;
      auto* po = out.emitted[0].get_if<of::PacketOut>();
      ASSERT_NE(po, nullptr) << "exchange " << i;
      ASSERT_TRUE(*po == *expected[0].get_if<of::PacketOut>())
          << "exchange " << i << ": reply body corrupted in transit";
      ASSERT_EQ(of::wire10::encode(out.emitted[0]).size(), expected_wire.size());
    } else {
      // A clean timeout is acceptable under loss; a crash is not — the hub
      // never crashes, so kCrashed would mean the transport misclassified a
      // flake as a fail-stop failure.
      ASSERT_EQ(out.kind, EventOutcome::Kind::kTimeout) << "exchange " << i
          << ": " << out.crash_info;
      timeouts += 1;
      ASSERT_TRUE(d.restart()) << "exchange " << i;
    }
  }
  EXPECT_EQ(ok + timeouts, kExchanges);
  // With a 10-retransmit budget at ~20% exchange loss, effectively all
  // exchanges should complete; the channel must have actually been lossy.
  EXPECT_GT(ok, kExchanges * 9 / 10);
  const TransportStats* ts = d.transport_stats();
  ASSERT_NE(ts, nullptr);
  EXPECT_GT(ts->retransmits, 0u) << "fault injection never fired";
  EXPECT_GT(ts->flakes_recovered + static_cast<std::uint64_t>(timeouts), 0u);
  EXPECT_EQ(ts->rtt_us.count(), static_cast<std::uint64_t>(ok));
  d.shutdown();
}

// Snapshot/restore across a lossy channel: multi-chunk frames survive
// drop+dup+reorder byte-identically. 64 KiB of state makes every restore
// request and snapshot reply a two-chunk frame (the restore leaves the
// proxy's mirror stale, so each snapshot() is a real kSnapshotRequest).
TEST(LossyRpc, SnapshotSurvivesLossyChannel) {
  ProcessDomain::Config cfg;
  cfg.faults.drop = 0.08;
  cfg.faults.duplicate = 0.08;
  cfg.faults.reorder = 0.08;
  cfg.faults.seed = 1234;
  cfg.retry_initial_timeout_ms = 20;
  cfg.retry_max = 10;

  constexpr std::size_t kState = 64 * 1024;
  static_assert(kState > UdpChannel::kChunkPayload);
  ProcessDomain d(std::make_shared<apps::StatefulApp>(kState), cfg);
  ASSERT_TRUE(d.start());
  // Fed the same delivered events as the stub's app.
  auto reference = std::make_unique<apps::StatefulApp>(kState);
  std::uint32_t xid = 1;
  int compared = 0;
  for (int i = 0; i < 50; ++i) {
    const ctl::Event ev{sample_packet_in()};
    if (!d.deliver(ev, kSimStart).ok()) {
      ASSERT_TRUE(d.restart());
      reference = std::make_unique<apps::StatefulApp>(kState);
      continue;
    }
    CollectingServiceApi api(kSimStart, &xid);
    reference->handle_event(ev, api);
    auto snap = d.snapshot();
    if (!snap.ok()) {
      EXPECT_EQ(snap.error().code, Error::Code::kTimeout) << "iter " << i;
      ASSERT_TRUE(d.restart());
      reference = std::make_unique<apps::StatefulApp>(kState);
      continue;
    }
    ASSERT_TRUE(snap.value() == reference->snapshot_state())
        << "iter " << i << ": snapshot corrupted in transit";
    compared += 1;
    if (!d.restore(snap.value()).ok()) { // clean failure is allowed; corruption is not
      ASSERT_TRUE(d.restart());
      reference = std::make_unique<apps::StatefulApp>(kState);
    }
  }
  EXPECT_GT(compared, 25);
  d.shutdown();
}

} // namespace
} // namespace legosdn::appvisor
