// End-to-end tests of the incremental, off-hot-path checkpoint pipeline:
// crash while an encode is still in flight (restore must fall back to the
// last *complete* snapshot and replay the gap from the event log), sync vs
// async restore determinism, and the pipeline's stats.
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

// A crash that lands while the newest captures are still queued behind the
// (artificially slowed) encoder must not strand the app: restore falls back
// to the last snapshot that actually reached the store and replays the gap
// from the event log.
TEST(CheckpointPipeline, CrashDuringInFlightEncodeFallsBackAndReplays) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.checkpoint.encode_delay = std::chrono::milliseconds(50);
  LegoController c(*net, cfg);
  auto inner = std::make_shared<apps::LearningSwitch>();
  c.add_app(std::make_shared<apps::CrashyApp>(inner, poison_packet_trigger()));
  ASSERT_TRUE(c.start_system());
  c.run();

  // Settle: everything captured so far lands in the store.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0));
  c.flush_checkpoints();
  const auto learned = inner->learned();
  EXPECT_GT(learned, 0u);
  const auto stored_before = c.snapshots().latest_seq(AppId{1});
  ASSERT_TRUE(stored_before.has_value());

  // More traffic whose captures are still in flight (50 ms each) when the
  // poison packet crashes the app moments later.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0));
  send_and_pump(*net, c, 0, 1, 666);

  EXPECT_FALSE(c.crashed());
  const auto stats = c.lego_stats();
  EXPECT_EQ(stats.failstop_crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  // The fallback restore replayed the logged events the in-flight snapshots
  // would have covered.
  EXPECT_GE(stats.replayed_events, 2u);
  // Replay reconstructed the lost tail: no learned state went missing.
  EXPECT_EQ(inner->learned(), learned);
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));

  // The ticket records the rollback shape for triage.
  ASSERT_EQ(c.tickets().count(), 1u);
  const auto& ticket = c.tickets().all()[0];
  EXPECT_TRUE(ticket.restore_available);
  EXPECT_GE(ticket.restore_seq, *stored_before);
  EXPECT_GE(ticket.replay_span, 2u);
}

// Determinism: the same traffic (including a crash and recovery) must leave
// byte-identical app state whether checkpoints are stored inline or on the
// worker — the pipeline changes scheduling, never recovered state.
TEST(CheckpointPipeline, SyncFullAndAsyncDeltaRestoreByteIdentical) {
  auto run_scenario = [](const LegoConfig& cfg) {
    auto net = netsim::Network::linear(3, 1);
    LegoController c(*net, cfg);
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
    send_and_pump(*net, c, 1, 0, 666); // crash + recover
    EXPECT_TRUE(send_and_pump(*net, c, 2, 1));
    c.flush_checkpoints();
    auto snap = c.appvisor().entries()[0].domain->snapshot();
    EXPECT_TRUE(snap.ok());
    EXPECT_EQ(c.lego_stats().failstop_crashes, 1u);
    return std::pair{snap.ok() ? snap.value() : std::vector<std::uint8_t>{},
                     inner->learned()};
  };

  LegoConfig sync;
  sync.checkpoint.async = false;

  LegoConfig async;
  async.checkpoint.async = true;

  const auto [state_a, learned_a] = run_scenario(sync);
  const auto [state_b, learned_b] = run_scenario(async);
  EXPECT_FALSE(state_a.empty());
  EXPECT_EQ(state_a, state_b);
  EXPECT_EQ(learned_a, learned_b);
}

// The pipeline stats surface in LegoStats: backward diffs happen, bytes are
// saved, and every capture's encode lag is recorded.
TEST(CheckpointPipeline, DeltaPipelineStatsSurfaceInLegoStats) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  // 64 KiB of state, one dirty page per event: the backward diffs' case.
  c.add_app(std::make_shared<apps::StatefulApp>(64 * 1024, 1));
  ASSERT_TRUE(c.start_system());
  c.run();
  for (int i = 0; i < 8; ++i) send_and_pump(*net, c, i % 2, 1 - i % 2);
  c.flush_checkpoints();

  const auto stats = c.lego_stats();
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_GT(stats.full_snapshots, 0u);
  EXPECT_GT(stats.delta_snapshots, 0u);
  EXPECT_GT(stats.checkpoint_bytes_saved, 0u);
  EXPECT_GT(stats.checkpoint_stored_bytes, 0u);
  EXPECT_EQ(stats.encode_lag_us.count(), stats.checkpoints);
  EXPECT_EQ(stats.full_snapshots + stats.delta_snapshots, stats.checkpoints);
}

} // namespace
} // namespace legosdn::lego
