// Hardening tests: crash storms, repeated respawns, diversity-ensemble
// restore semantics, clone exhaustion, and recovery under combined fault
// types — the long-tail scenarios a production deployment hits.
#include <gtest/gtest.h>

#include "appvisor/inprocess_domain.hpp"
#include "appvisor/process_domain.hpp"
#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "helpers.hpp"
#include "legosdn/diversity.hpp"
#include "legosdn/lego_controller.hpp"

namespace legosdn {
namespace {

using legosdn::test::host_packet;

apps::CrashTrigger poison(std::uint16_t tp = 666) {
  apps::CrashTrigger t;
  t.on_tp_dst = tp;
  return t;
}

of::PacketIn pin_with_port(std::uint16_t tp) {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(1),
                                             MacAddress::from_uint64(2), tp);
  return pin;
}

/// Crashes on a :666 packet-in only after a switch-down of s2 armed it: the
/// §5 multi-event bug that fault localization must pin on both events.
class ArmThenFire : public ctl::App {
public:
  std::string name() const override { return "arm-then-fire"; }
  std::vector<ctl::EventType> subscriptions() const override {
    return {ctl::EventType::kPacketIn, ctl::EventType::kSwitchDown};
  }
  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi&) override {
    if (const auto* d = std::get_if<ctl::SwitchDown>(&e)) {
      if (d->dpid == DatapathId{2}) armed_ = true;
    }
    if (const auto* pin = std::get_if<of::PacketIn>(&e)) {
      if (armed_ && pin->packet.hdr.tp_dst == 666)
        throw ctl::AppCrash("armed bug fired");
    }
    return ctl::Disposition::kContinue;
  }
  std::vector<std::uint8_t> snapshot_state() const override {
    return {armed_ ? std::uint8_t{1} : std::uint8_t{0}};
  }
  void restore_state(std::span<const std::uint8_t> s) override {
    armed_ = !s.empty() && s[0] != 0;
  }
  void reset() override { armed_ = false; }

private:
  bool armed_ = false;
};

TEST(CrashStorm, ProcessDomainSurvivesManyRespawns) {
  appvisor::ProcessDomain d(
      std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), poison()));
  ASSERT_TRUE(d.start());
  for (int round = 0; round < 8; ++round) {
    auto out = d.deliver(ctl::Event{pin_with_port(666)}, kSimStart);
    EXPECT_EQ(out.kind, appvisor::EventOutcome::Kind::kCrashed) << round;
    ASSERT_TRUE(d.restart()) << round;
    EXPECT_TRUE(d.deliver(ctl::Event{pin_with_port(80)}, kSimStart).ok()) << round;
  }
  d.shutdown();
}

TEST(CrashStorm, LegoAbsorbsAlternatingFailStopAndByzantine) {
  auto net = netsim::Network::linear(2, 1);
  lego::LegoController c(*net);
  // App 1 (head of chain, passes events through): byzantine black-hole on
  // :667. App 2: fail-stop learning switch on :666.
  c.add_app(std::make_shared<apps::ByzantineApp>(
      std::make_shared<legosdn::test::RecorderApp>(
          "monitor", std::vector<ctl::EventType>{ctl::EventType::kPacketIn}),
      poison(667), apps::ByzantineApp::Mode::kBlackHole));
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(),
                                              poison(666)));
  ASSERT_TRUE(c.start_system());
  c.run();

  auto send = [&](std::size_t s, std::size_t d, std::uint16_t tp) {
    const auto before = net->hosts()[d].rx_packets;
    net->inject_from_host(net->hosts()[s].mac, host_packet(*net, s, d, tp));
    while (c.run() > 0) {
    }
    return net->host_by_mac(net->hosts()[d].mac)->rx_packets > before;
  };
  send(0, 1, 80);
  send(1, 0, 80);
  for (int i = 0; i < 5; ++i) {
    send(0, 1, 666); // byzantine app passes it through; app 2 crashes
    send(0, 1, 667); // byzantine app emits a black-hole rule; rolled back
  }
  EXPECT_FALSE(c.crashed());
  EXPECT_EQ(c.lego_stats().failstop_crashes, 5u);
  EXPECT_GE(c.lego_stats().byzantine_failures, 1u);
  EXPECT_TRUE(send(0, 1, 80));
  // No black-hole rule survived.
  for (const auto d : net->switch_ids()) {
    for (const auto& e : net->switch_at(d)->table().entries()) {
      EXPECT_FALSE(e.outputs_to(PortNo{0xEE00}));
    }
  }
}

TEST(Diversity, RestoreHealsCrashedReplicaToMajorityState) {
  std::vector<appvisor::DomainPtr> replicas;
  auto ls1 = std::make_shared<apps::LearningSwitch>();
  auto ls2 = std::make_shared<apps::LearningSwitch>();
  auto buggy_inner = std::make_shared<apps::LearningSwitch>();
  replicas.push_back(std::make_unique<appvisor::InProcessDomain>(ls1));
  replicas.push_back(std::make_unique<appvisor::InProcessDomain>(ls2));
  replicas.push_back(std::make_unique<appvisor::InProcessDomain>(
      std::make_shared<apps::CrashyApp>(buggy_inner, poison())));
  lego::DiversityDomain ens("3v", std::move(replicas));
  ASSERT_TRUE(ens.start());

  // Teach all replicas a MAC, then crash the buggy one.
  ASSERT_TRUE(ens.deliver(ctl::Event{pin_with_port(80)}, kSimStart).ok());
  EXPECT_EQ(ls1->learned(), 1u);
  auto snap = ens.snapshot();
  ASSERT_TRUE(snap.ok());
  ens.deliver(ctl::Event{pin_with_port(666)}, kSimStart); // replica 3 dies
  EXPECT_TRUE(ens.alive());                               // 2/3 majority remains

  // Restore propagates the healthy snapshot to every replica, including the
  // dead one — note this heals the *inner* learning switch state. (The
  // snapshot came from replica 1, whose state layout is the plain
  // learning-switch encoding; the crashy wrapper tolerates foreign blobs by
  // construction of its codec only when shapes match, so restore the
  // ensemble from its own members' snapshots in practice.)
  ASSERT_TRUE(ens.restore(snap.value()));
  EXPECT_TRUE(ens.alive());
  EXPECT_EQ(ls1->learned(), 1u);
  EXPECT_EQ(ls2->learned(), 1u);
}

TEST(Clone, BothDeadSurfacesPrimaryCrash) {
  lego::CloneDomain cd(
      std::make_unique<appvisor::InProcessDomain>(
          std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), poison())),
      std::make_unique<appvisor::InProcessDomain>(
          std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), poison())));
  ASSERT_TRUE(cd.start());
  auto out = cd.deliver(ctl::Event{pin_with_port(666)}, kSimStart);
  EXPECT_EQ(out.kind, appvisor::EventOutcome::Kind::kCrashed);
  EXPECT_FALSE(cd.alive());
  // Restart revives both.
  ASSERT_TRUE(cd.restart());
  EXPECT_TRUE(cd.alive());
  EXPECT_TRUE(cd.deliver(ctl::Event{pin_with_port(80)}, kSimStart).ok());
}

TEST(Recovery, EquivalenceFallsBackToIgnoreWhenTransformCrashesToo) {
  // App crashes on switch-down AND link-down: the equivalence transform's
  // replacement events also crash. Crash-Pad must fall back to ignoring
  // rather than loop forever.
  auto net = netsim::Network::linear(3, 1);
  lego::LegoConfig cfg;
  auto parsed = crashpad::PolicyTable::parse(
      "app=* event=switch-down policy=equivalence\n"
      "app=* event=link-down policy=equivalence\n"
      "default=absolute");
  ASSERT_TRUE(parsed.ok());
  cfg.policies = std::move(parsed).value();
  lego::LegoController c(*net, cfg);

  apps::CrashTrigger t; // matches every subscribed event type
  auto rec = std::make_shared<legosdn::test::RecorderApp>(
      "doomed", std::vector<ctl::EventType>{ctl::EventType::kSwitchDown,
                                            ctl::EventType::kLinkDown});
  c.add_app(std::make_shared<apps::CrashyApp>(rec, t));
  ASSERT_TRUE(c.start_system());
  c.run();

  net->set_switch_state(DatapathId{2}, false);
  while (c.run() > 0) {
  }
  EXPECT_FALSE(c.crashed());
  EXPECT_GE(c.lego_stats().failstop_crashes, 2u); // original + transformed
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
  EXPECT_GE(c.tickets().count(), 2u);
}

TEST(Localization, ControllerFindsMultiEventCulpritsInVivo) {
  // §5: a crash caused by a *combination* of events is localized by probing
  // the app's own isolation domain against restored checkpoints.
  auto net = netsim::Network::linear(3, 1);
  lego::LegoConfig cfg;
  cfg.checkpoint_every = 1000; // effectively: only the initial checkpoint
  cfg.snapshot_keep = 4;
  lego::LegoController c(*net, cfg);
  const AppId app = c.add_app(std::make_shared<ArmThenFire>());
  ASSERT_TRUE(c.start_system());
  c.run();

  // Noise, the arming switch-down, more noise, then the fatal packet.
  for (int i = 0; i < 4; ++i) {
    net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 2, 80));
    while (c.run() > 0) {
    }
  }
  net->set_switch_state(DatapathId{2}, false); // arms the bug
  while (c.run() > 0) {
  }
  net->set_switch_state(DatapathId{2}, true);
  while (c.run() > 0) {
  }
  for (int i = 0; i < 4; ++i) {
    net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 2, 80));
    while (c.run() > 0) {
    }
  }
  of::Packet fatal = host_packet(*net, 0, 2, 666);
  net->inject_from_host(net->hosts()[0].mac, fatal);
  while (c.run() > 0) {
  }
  ASSERT_EQ(c.lego_stats().failstop_crashes, 1u);

  // Localize: the minimal sequence is {switch-down s2, packet-in :666}.
  of::PacketIn offender;
  offender.dpid = DatapathId{1};
  offender.in_port = PortNo{1};
  offender.packet = fatal;
  const auto result = c.localize_fault(app, ctl::Event{offender});
  ASSERT_TRUE(result.reproduced);
  ASSERT_EQ(result.minimal.size(), 2u);
  EXPECT_EQ(std::get<ctl::SwitchDown>(result.minimal[0]).dpid, DatapathId{2});
  EXPECT_EQ(std::get<of::PacketIn>(result.minimal[1]).packet.hdr.tp_dst, 666);
  EXPECT_GT(result.probes, 2u);
  // The app was left alive and consistent.
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
}

/// Drain the controller, then let every captured checkpoint land.
void settle(lego::LegoController& c) {
  while (c.run() > 0) {
  }
  c.flush_checkpoints();
}

of::PacketIn offender_for(const of::Packet& fatal) {
  of::PacketIn offender;
  offender.dpid = DatapathId{1};
  offender.in_port = PortNo{1};
  offender.packet = fatal;
  return offender;
}

TEST(Recovery, LocalizesMultiEventBugWithPerEventCheckpoints) {
  // Under the default cadence every event is checkpointed, so the newest
  // snapshot is one event old while the oldest retained one, which
  // localize_fault probes from, predates the arming switch-down. The event
  // log must reach back to that oldest snapshot.
  for (const std::uint64_t every : {std::uint64_t{1}, std::uint64_t{2}}) {
    SCOPED_TRACE("checkpoint_every " + std::to_string(every));
    auto net = netsim::Network::linear(3, 1);
    lego::LegoConfig cfg;
    cfg.checkpoint_every = every;
    lego::LegoController c(*net, cfg);
    const AppId app = c.add_app(std::make_shared<ArmThenFire>());
    ASSERT_TRUE(c.start_system());
    settle(c);
    auto noise = [&] {
      net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 2, 80));
      settle(c);
    };
    for (int i = 0; i < 4; ++i) noise();
    net->set_switch_state(DatapathId{2}, false); // arms the bug
    settle(c);
    net->set_switch_state(DatapathId{2}, true);
    settle(c);
    for (int i = 0; i < 3; ++i) noise();
    const of::Packet fatal = host_packet(*net, 0, 2, 666);
    net->inject_from_host(net->hosts()[0].mac, fatal);
    settle(c);
    ASSERT_EQ(c.lego_stats().failstop_crashes, 1u);
    ASSERT_GT(c.snapshots().count(app), 2u);

    const auto result = c.localize_fault(app, ctl::Event{offender_for(fatal)});
    ASSERT_TRUE(result.reproduced) << result.probes << " probes";
    ASSERT_EQ(result.minimal.size(), 2u);
    EXPECT_EQ(std::get<ctl::SwitchDown>(result.minimal[0]).dpid, DatapathId{2});
    EXPECT_EQ(std::get<of::PacketIn>(result.minimal[1]).packet.hdr.tp_dst, 666);
    EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
  }
}

TEST(Localization, ProbesFromOldestLoggedSnapshotWhenLogCapBinds) {
  // checkpoint_every * snapshot_keep beyond the event log's 1024-event cap:
  // the oldest snapshot (seq 1, unarmed) is older than the first logged
  // event, and the arming switch-down fell out of the log. Probing from it
  // could never reproduce the crash; the oldest snapshot the log covers
  // (seq 201, already armed) reproduces it with the fatal packet alone.
  auto net = netsim::Network::linear(3, 1);
  lego::LegoConfig cfg;
  cfg.checkpoint_every = 200;
  lego::LegoController c(*net, cfg);
  const AppId app = c.add_app(std::make_shared<ArmThenFire>());
  ASSERT_TRUE(c.start_system());
  settle(c);
  auto noise = [&] {
    net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 2, 80));
    while (c.run() > 0) {
    }
  };
  for (int i = 0; i < 10; ++i) noise();
  net->set_switch_state(DatapathId{2}, false); // arms the bug
  settle(c);
  net->set_switch_state(DatapathId{2}, true);
  settle(c);
  for (int i = 0; i < 1100; ++i) noise();
  const of::Packet fatal = host_packet(*net, 0, 2, 666);
  net->inject_from_host(net->hosts()[0].mac, fatal);
  settle(c);
  ASSERT_EQ(c.lego_stats().failstop_crashes, 1u);
  ASSERT_EQ(c.snapshots().oldest_seq(app), 1u);

  const auto result = c.localize_fault(app, ctl::Event{offender_for(fatal)});
  ASSERT_TRUE(result.reproduced);
  ASSERT_EQ(result.minimal.size(), 1u);
  EXPECT_EQ(std::get<of::PacketIn>(result.minimal[0]).packet.hdr.tp_dst, 666);
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
}

TEST(Recovery, SnapshotHistorySupportsOlderRollback) {
  // at_or_before() lets multi-event recovery pick an older checkpoint.
  auto net = netsim::Network::linear(2, 1);
  lego::LegoConfig cfg;
  cfg.checkpoint_every = 2;
  cfg.snapshot_keep = 16;
  lego::LegoController c(*net, cfg);
  auto inner = std::make_shared<apps::LearningSwitch>();
  c.add_app(std::make_shared<apps::CrashyApp>(inner, poison()));
  ASSERT_TRUE(c.start_system());
  c.run();
  for (int i = 0; i < 6; ++i) {
    net->inject_from_host(net->hosts()[i % 2].mac,
                          host_packet(*net, i % 2, (i + 1) % 2));
    while (c.run() > 0) {
    }
  }
  const AppId app = c.appvisor().entries()[0].id;
  c.flush_checkpoints(); // let the async encoder land everything captured
  ASSERT_GT(c.snapshots().count(app), 1u);
  const auto latest = c.snapshots().latest(app);
  ASSERT_TRUE(latest.has_value());
  const auto older = c.snapshots().at_or_before(app, latest->event_seq - 1);
  ASSERT_TRUE(older.has_value());
  EXPECT_LT(older->event_seq, latest->event_seq);
  // Restoring the older snapshot rewinds the app further back.
  c.appvisor().entries()[0].domain->restore(older->state);
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());
}

} // namespace
} // namespace legosdn
