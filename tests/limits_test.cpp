// Resource limits (§3.4): message quotas, the crash-storm breaker, and the
// wedged-app deadline under process isolation.
#include <gtest/gtest.h>

#include <algorithm>

#include "appvisor/process_domain.hpp"
#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "helpers.hpp"
#include "legosdn/lego_controller.hpp"

namespace legosdn::lego {
namespace {

using legosdn::test::host_packet;

apps::CrashTrigger poison(std::uint16_t tp = 666) {
  apps::CrashTrigger t;
  t.on_tp_dst = tp;
  return t;
}

bool send_and_pump(netsim::Network& net, ctl::Controller& c, std::size_t src,
                   std::size_t dst, std::uint16_t tp_dst = 80) {
  const auto before = net.host_by_mac(net.hosts()[dst].mac)->rx_packets;
  net.inject_from_host(net.hosts()[src].mac, host_packet(net, src, dst, tp_dst));
  while (c.run() > 0) {
  }
  return net.host_by_mac(net.hosts()[dst].mac)->rx_packets > before;
}

TEST(ResourceLimits, MessageQuotaDiscardsRogueBurst) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.limits.max_messages_per_event = 16;
  LegoController c(*net, cfg);
  // On the poison event the app tries to install 500 rules in one handler.
  c.add_app(std::make_shared<apps::ChattyApp>(std::make_shared<apps::Hub>(), poison(),
                                              500));
  ASSERT_TRUE(c.start_system());
  c.run();

  EXPECT_TRUE(send_and_pump(*net, c, 0, 1)); // hub works normally
  const auto s1_rules = net->switch_at(DatapathId{1})->table().size();

  send_and_pump(*net, c, 0, 1, 666); // the burst
  EXPECT_EQ(c.lego_stats().quota_violations, 1u);
  // None of the 500 rules landed; the bundle was discarded whole.
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), s1_rules);
  // The app was recovered and keeps serving.
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  // A ticket documents the quota breach.
  ASSERT_EQ(c.tickets().count(), 1u);
  EXPECT_NE(c.tickets().all()[0].crash_info.find("quota"), std::string::npos);
}

TEST(ResourceLimits, BurstWithinQuotaPasses) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.limits.max_messages_per_event = 16;
  LegoController c(*net, cfg);
  c.add_app(std::make_shared<apps::ChattyApp>(std::make_shared<apps::Hub>(), poison(),
                                              8));
  ASSERT_TRUE(c.start_system());
  c.run();
  send_and_pump(*net, c, 0, 1, 666);
  EXPECT_EQ(c.lego_stats().quota_violations, 0u);
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 8u);
}

TEST(ResourceLimits, FaultBreakerDisablesCrashLoopingApp) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.limits.max_faults = 3;
  LegoController c(*net, cfg);
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(),
                                              poison()));
  auto hub = std::make_shared<apps::Hub>();
  c.add_app(hub);
  ASSERT_TRUE(c.start_system());
  c.run();

  for (int i = 0; i < 6; ++i) send_and_pump(*net, c, 0, 1, 666);
  // Crashes 1 and 2 were recovered; crash 3 tripped the breaker.
  EXPECT_EQ(c.lego_stats().failstop_crashes, 3u);
  EXPECT_EQ(c.lego_stats().recoveries, 2u);
  EXPECT_GE(c.lego_stats().breaker_disables, 1u);
  EXPECT_FALSE(c.appvisor().entries()[0].domain->alive());
  // The controller and the hub carry on.
  EXPECT_FALSE(c.crashed());
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
}

TEST(ResourceLimits, BreakerOffByDefault) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(),
                                              poison()));
  ASSERT_TRUE(c.start_system());
  c.run();
  for (int i = 0; i < 10; ++i) send_and_pump(*net, c, 0, 1, 666);
  EXPECT_EQ(c.lego_stats().failstop_crashes, 10u);
  EXPECT_EQ(c.lego_stats().breaker_disables, 0u);
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
}

TEST(Tickets, CarryRecentEventHistory) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(),
                                              poison()));
  ASSERT_TRUE(c.start_system());
  c.run();
  send_and_pump(*net, c, 0, 1);
  send_and_pump(*net, c, 1, 0);
  c.flush_checkpoints(); // a snapshot has landed, so the ticket has a restore point
  send_and_pump(*net, c, 0, 1, 666);
  ASSERT_EQ(c.tickets().count(), 1u);
  const auto& t = c.tickets().all()[0];
  ASSERT_FALSE(t.recent_events.empty());
  // The last history entry is the offender itself.
  EXPECT_NE(t.recent_events.back().find("packet-in"), std::string::npos);
  EXPECT_NE(t.to_string().find("recent events:"), std::string::npos);
  // The excerpt starts at the restore point: the events the replay
  // re-delivers, then the offender. The event log reaches further back (to
  // the oldest snapshot), but every ticket is kept, so the excerpt stays
  // that short.
  ASSERT_TRUE(t.restore_available);
  EXPECT_EQ(t.recent_events.size(), std::min<std::uint64_t>(t.replay_span, 5) + 1);
  EXPECT_GE(t.event_seq, 4u); // the log holds more than the excerpt shows
}

// A wedged (infinite-loop) app under process isolation: the proxy's deliver
// deadline fires, the stub is killed, and Crash-Pad recovers as for a crash.
TEST(Wedged, ProcessDeadlineKillsAndRecovers) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.backend = appvisor::Backend::kProcess;
  cfg.process.deliver_timeout_ms = 300; // short deadline for the test
  LegoController c(*net, cfg);
  c.add_app(std::make_shared<apps::WedgedApp>(std::make_shared<apps::Hub>(), poison()));
  ASSERT_TRUE(c.start_system());
  c.run();

  EXPECT_TRUE(send_and_pump(*net, c, 0, 1)); // benign events fine

  send_and_pump(*net, c, 0, 1, 666); // wedges the stub; proxy kills it
  // A deadline exhaustion is a *timeout*, not a fail-stop crash: the retry
  // layer already ruled out a transport flake before the kill.
  EXPECT_EQ(c.lego_stats().stub_timeouts, 1u);
  EXPECT_EQ(c.lego_stats().failstop_crashes, 0u);
  EXPECT_FALSE(c.crashed());
  // Recovered: a fresh stub serves traffic again.
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  c.appvisor().shutdown_all();
}

} // namespace
} // namespace legosdn::lego
