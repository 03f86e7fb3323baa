// End-to-end tests of the checkpoint pipeline: each capture is stored inline
// before its event is delivered, so a crash restores the pre-event snapshot
// with nothing to replay; a rolled-back poison packet leaves the app's state
// byte-identical to a run without it; and the pipeline's stats.
#include <gtest/gtest.h>

#include "apps/fault_injection.hpp"
#include "apps/learning_switch.hpp"
#include "helpers.hpp"
#include "legosdn/lego_controller.hpp"

namespace legosdn::lego {
namespace {

using legosdn::test::host_packet;

bool send_and_pump(netsim::Network& net, ctl::Controller& c, std::size_t src,
                   std::size_t dst, std::uint16_t tp_dst = 80) {
  const auto before = net.host_by_mac(net.hosts()[dst].mac)->rx_packets;
  net.inject_from_host(net.hosts()[src].mac, host_packet(net, src, dst, tp_dst));
  while (c.run() > 0) {
  }
  return net.host_by_mac(net.hosts()[dst].mac)->rx_packets > before;
}

apps::CrashTrigger poison_packet_trigger(std::uint16_t tp_dst = 666) {
  apps::CrashTrigger t;
  t.on_tp_dst = tp_dst;
  return t;
}

// At the paper's per-event cadence the pre-event capture is in the store by
// the time dispatch returns (no flush, nothing in flight), so a crash rewinds
// to the snapshot taken just before the offender: nothing is replayed and no
// learned state is lost.
TEST(CheckpointPipeline, CrashRestoresPreEventSnapshotWithoutReplay) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  auto inner = std::make_shared<apps::LearningSwitch>();
  c.add_app(std::make_shared<apps::CrashyApp>(inner, poison_packet_trigger()));
  ASSERT_TRUE(c.start_system());
  c.run();
  const AppId app = c.appvisor().entries()[0].id;

  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0));
  const auto learned = inner->learned();
  EXPECT_GT(learned, 0u);
  // Every capture is already stored: one put per checkpoint.
  const auto before = c.lego_stats();
  EXPECT_GT(before.checkpoints, 0u);
  EXPECT_EQ(before.full_snapshots + before.delta_snapshots, before.checkpoints);
  const auto stored_before = c.snapshots().latest_seq(app);
  ASSERT_TRUE(stored_before.has_value());

  send_and_pump(*net, c, 0, 1, 666);

  EXPECT_FALSE(c.crashed());
  const auto stats = c.lego_stats();
  EXPECT_EQ(stats.failstop_crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.replayed_events, 0u);
  EXPECT_EQ(inner->learned(), learned);
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));

  // The ticket names the snapshot taken before the offender itself.
  ASSERT_EQ(c.tickets().count(), 1u);
  const auto& ticket = c.tickets().all()[0];
  EXPECT_TRUE(ticket.restore_available);
  EXPECT_GT(ticket.restore_seq, *stored_before);
  EXPECT_EQ(ticket.restore_seq, ticket.event_seq);
  EXPECT_EQ(ticket.replay_span, 0u);
}

// Under Absolute Compromise a crashing event is rolled back out of the app's
// state: the same traffic with and without the poison packet leaves
// byte-identical app state.
TEST(CheckpointPipeline, PoisonPacketLeavesNoTraceInAppState) {
  auto run_scenario = [](bool poison) {
    auto net = netsim::Network::linear(3, 1);
    LegoController c(*net);
    auto inner = std::make_shared<apps::LearningSwitch>();
    c.add_app(std::make_shared<apps::CrashyApp>(inner, poison_packet_trigger()));
    EXPECT_TRUE(c.start_system());
    c.run();
    for (const auto& [src, dst] : {std::pair<std::size_t, std::size_t>{0, 1},
                                   {1, 2},
                                   {2, 0},
                                   {0, 2}}) {
      EXPECT_TRUE(send_and_pump(*net, c, src, dst));
    }
    if (poison) send_and_pump(*net, c, 1, 0, 666); // crash + recover
    EXPECT_TRUE(send_and_pump(*net, c, 2, 1));
    auto snap = c.appvisor().entries()[0].domain->snapshot();
    EXPECT_TRUE(snap.ok());
    EXPECT_EQ(c.lego_stats().failstop_crashes, poison ? 1u : 0u);
    EXPECT_EQ(c.lego_stats().replayed_events, 0u);
    return std::pair{snap.ok() ? snap.value() : std::vector<std::uint8_t>{},
                     inner->learned()};
  };

  const auto [clean, learned_clean] = run_scenario(false);
  const auto [poisoned, learned_poisoned] = run_scenario(true);
  EXPECT_FALSE(clean.empty());
  EXPECT_EQ(clean, poisoned);
  EXPECT_EQ(learned_clean, learned_poisoned);
}

// The pipeline stats surface in LegoStats: backward diffs happen, bytes are
// saved, and every put's duration is recorded; nothing ever queues.
TEST(CheckpointPipeline, DeltaPipelineStatsSurfaceInLegoStats) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  // 64 KiB of state, one dirty page per event: the backward diffs' case.
  c.add_app(std::make_shared<apps::StatefulApp>(64 * 1024, 1));
  ASSERT_TRUE(c.start_system());
  c.run();
  for (int i = 0; i < 8; ++i) send_and_pump(*net, c, i % 2, 1 - i % 2);

  const auto stats = c.lego_stats();
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_GT(stats.full_snapshots, 0u);
  EXPECT_GT(stats.delta_snapshots, 0u);
  EXPECT_GT(stats.checkpoint_bytes_saved, 0u);
  EXPECT_GT(stats.checkpoint_stored_bytes, 0u);
  EXPECT_EQ(stats.encode_lag_us.count(), stats.checkpoints);
  EXPECT_EQ(stats.full_snapshots + stats.delta_snapshots, stats.checkpoints);
  EXPECT_EQ(stats.inline_encodes, 0u);
}

} // namespace
} // namespace legosdn::lego
