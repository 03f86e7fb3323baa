// LegoSDN integration tests: end-to-end crash recovery under each policy,
// byzantine rollback, checkpointing modes, controller upgrades, diversity
// voting, clone failover, and delta debugging.
#include <gtest/gtest.h>

#include "apps/fault_injection.hpp"
#include "apps/firewall.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "apps/shortest_path_router.hpp"
#include "helpers.hpp"
#include "legosdn/delta_debug.hpp"
#include "legosdn/diversity.hpp"
#include "invariant/invariant.hpp"
#include "legosdn/lego_controller.hpp"

namespace legosdn::lego {
namespace {

using legosdn::test::host_packet;
using legosdn::test::RecorderApp;

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

TEST(LegoController, ControllerSurvivesAppCrash) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  auto inner = std::make_shared<apps::LearningSwitch>();
  c.add_app(std::make_shared<apps::CrashyApp>(inner, poison_packet_trigger()));
  auto innocent = std::make_shared<RecorderApp>(
      "innocent", std::vector<ctl::EventType>{ctl::EventType::kPacketIn});
  c.add_app(innocent);
  ASSERT_TRUE(c.start_system());
  c.run();

  // Normal traffic teaches the learning switch.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0));
  const auto learned = inner->learned();
  EXPECT_GT(learned, 0u);

  // Poison packet crashes the app — but NOT the controller or other apps.
  send_and_pump(*net, c, 0, 1, 666);
  EXPECT_FALSE(c.crashed());
  EXPECT_EQ(c.lego_stats().failstop_crashes, 1u);
  EXPECT_EQ(c.lego_stats().recoveries, 1u);
  EXPECT_FALSE(innocent->events.empty());

  // State survived via the pre-event checkpoint: no re-learning needed.
  EXPECT_EQ(inner->learned(), learned);
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));

  // A ticket was filed for triage.
  ASSERT_EQ(c.tickets().count(), 1u);
  EXPECT_NE(c.tickets().all()[0].crash_info.find("fail-stop"), std::string::npos);
}

TEST(LegoController, RepeatedDeterministicCrashesAreAllAbsorbed) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(),
                                              poison_packet_trigger()));
  ASSERT_TRUE(c.start_system());
  c.run();
  for (int i = 0; i < 10; ++i) send_and_pump(*net, c, 0, 1, 666);
  EXPECT_FALSE(c.crashed());
  EXPECT_EQ(c.lego_stats().failstop_crashes, 10u);
  EXPECT_EQ(c.lego_stats().events_ignored, 10u);
  EXPECT_EQ(c.tickets().count(), 10u);
  // Normal traffic still served.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0));
}

TEST(LegoController, NoCompromiseLeavesAppDownButOthersRunning) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  auto parsed = crashpad::PolicyTable::parse(
      "app=learning-switch+crashy event=* policy=no-compromise\ndefault=absolute");
  ASSERT_TRUE(parsed.ok());
  cfg.policies = std::move(parsed).value();
  LegoController c(*net, cfg);
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(),
                                              poison_packet_trigger()));
  auto hub = std::make_shared<apps::Hub>();
  c.add_app(hub);
  ASSERT_TRUE(c.start_system());
  c.run();

  send_and_pump(*net, c, 0, 1, 666);
  EXPECT_EQ(c.lego_stats().apps_left_down, 1u);
  EXPECT_EQ(c.lego_stats().recoveries, 0u);
  EXPECT_FALSE(c.appvisor().entries()[0].domain->alive());

  // The hub (second in chain) still floods traffic through.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  // The dead app misses events without hurting anyone.
  EXPECT_FALSE(c.crashed());
}

TEST(LegoController, EquivalenceTransformsSwitchDownIntoLinkDowns) {
  auto net = netsim::Network::linear(3, 1);
  LegoConfig cfg;
  auto parsed = crashpad::PolicyTable::parse(
      "app=* event=switch-down policy=equivalence\ndefault=absolute");
  ASSERT_TRUE(parsed.ok());
  cfg.policies = std::move(parsed).value();
  LegoController c(*net, cfg);

  // Router that crashes on switch-down events but handles link-downs fine —
  // the paper's flagship transformation example.
  std::vector<apps::ShortestPathRouter::LinkInfo> links;
  for (const auto& l : net->links()) links.push_back({l.a, l.b});
  auto router = std::make_shared<apps::ShortestPathRouter>(links);
  apps::CrashTrigger t;
  t.on_type = ctl::EventType::kSwitchDown;
  c.add_app(std::make_shared<apps::CrashyApp>(router, t));
  ASSERT_TRUE(c.start_system());
  c.run();

  // Learn the hosts first.
  send_and_pump(*net, c, 0, 2);
  send_and_pump(*net, c, 2, 0);

  // Take switch 2 down: the switch-down event would crash the router; the
  // equivalence policy rewrites it into link-down events it can digest.
  net->set_switch_state(DatapathId{2}, false);
  while (c.run() > 0) {
  }
  EXPECT_FALSE(c.crashed());
  EXPECT_GE(c.lego_stats().failstop_crashes, 1u);
  EXPECT_EQ(c.lego_stats().events_transformed, 1u);
  // The router absorbed the equivalent events: both links at s2 marked down.
  EXPECT_FALSE(router->link_is_up(0));
  EXPECT_FALSE(router->link_is_up(1));
}

TEST(LegoController, ByzantineBlackHoleIsRolledBack) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  apps::CrashTrigger t = poison_packet_trigger();
  c.add_app(std::make_shared<apps::ByzantineApp>(std::make_shared<apps::LearningSwitch>(),
                                                 t, apps::ByzantineApp::Mode::kBlackHole));
  ASSERT_TRUE(c.start_system());
  c.run();

  send_and_pump(*net, c, 0, 1);
  send_and_pump(*net, c, 1, 0);
  const auto s1_size = net->switch_at(DatapathId{1})->table().size();

  // Byzantine trigger: the app emits a black-hole rule. The invariant
  // checker catches it; NetLog rolls the transaction back.
  send_and_pump(*net, c, 0, 1, 666);
  EXPECT_EQ(c.lego_stats().byzantine_failures, 1u);
  EXPECT_EQ(c.lego_stats().txns_rolled_back, 1u);
  // Undo-log applies land at once in-process, so every verification read
  // the live tables: no pending-rule overlay was built.
  EXPECT_EQ(c.lego_stats().verify_overlays, 0u);
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), s1_size);
  for (const auto& e : net->switch_at(DatapathId{1})->table().entries()) {
    EXPECT_FALSE(e.outputs_to(PortNo{0xEE00}));
  }
  ASSERT_EQ(c.tickets().count(), 1u);
  EXPECT_NE(c.tickets().all()[0].crash_info.find("byzantine"), std::string::npos);
  // Network still works.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
}

// Regression (found by the scenario fuzzer): in delay-buffer mode NetLog
// holds the whole bundle until commit, so at verification time the written
// rules are not in the switch tables yet. The checker used to look the rules
// up in the live tables, find nothing, and wave every byzantine transaction
// through — poison rules reached the network unchecked. A delay-buffered
// transaction has not landed, so check_flow_mods verifies against an overlay
// of the would-be state.
TEST(LegoController, DelayBufferByzantineBlackHoleIsRolledBack) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.netlog.mode = netlog::Mode::kDelayBuffer;
  LegoController c(*net, cfg);
  apps::CrashTrigger t = poison_packet_trigger();
  c.add_app(std::make_shared<apps::ByzantineApp>(std::make_shared<apps::LearningSwitch>(),
                                                 t, apps::ByzantineApp::Mode::kBlackHole));
  ASSERT_TRUE(c.start_system());
  c.run();

  send_and_pump(*net, c, 0, 1);
  send_and_pump(*net, c, 1, 0);

  send_and_pump(*net, c, 0, 1, 666);
  EXPECT_EQ(c.lego_stats().byzantine_failures, 1u);
  EXPECT_EQ(c.lego_stats().txns_rolled_back, 1u);
  EXPECT_GT(c.lego_stats().verify_overlays, 0u);
  for (const auto& e : net->switch_at(DatapathId{1})->table().entries()) {
    EXPECT_FALSE(e.outputs_to(PortNo{0xEE00}));
  }
  EXPECT_TRUE(invariant::InvariantChecker(*net).check_basic().empty());
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
}

TEST(LegoController, ByzantineDropAllIsRolledBack) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  // drop-all kills reachability; configure the must-reach invariant.
  LegoController* cp = nullptr;
  cfg.invariants.must_reach.push_back({MacAddress::from_uint64(0x0A0000000001ULL + 0),
                                       MacAddress::from_uint64(0x0A0000000001ULL + 1)});
  LegoController c(*net, cfg);
  cp = &c;
  (void)cp;
  apps::CrashTrigger t = poison_packet_trigger();
  c.add_app(std::make_shared<apps::ByzantineApp>(std::make_shared<apps::Hub>(), t,
                                                 apps::ByzantineApp::Mode::kDropAll));
  ASSERT_TRUE(c.start_system());
  c.run();
  send_and_pump(*net, c, 0, 1, 666);
  EXPECT_EQ(c.lego_stats().byzantine_failures, 1u);
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty()); // rolled back
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));                   // hub still floods
}

TEST(LegoController, PeriodicCheckpointWithReplayRestoresState) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.checkpoint_every = 5; // §5 optimization: snapshot every 5 events
  LegoController c(*net, cfg);
  auto inner = std::make_shared<apps::LearningSwitch>();
  c.add_app(std::make_shared<apps::CrashyApp>(inner, poison_packet_trigger()));
  ASSERT_TRUE(c.start_system());
  c.run();

  // Enough traffic that learning happened after the last checkpoint.
  for (int i = 0; i < 3; ++i) {
    send_and_pump(*net, c, 0, 1);
    send_and_pump(*net, c, 1, 0);
  }
  const auto learned = inner->learned();
  ASSERT_GT(learned, 0u);

  send_and_pump(*net, c, 0, 1, 666); // crash + restore + replay
  EXPECT_EQ(c.lego_stats().failstop_crashes, 1u);
  EXPECT_GT(c.lego_stats().replayed_events, 0u);
  // Replay reconstructed the learning acquired since the stale snapshot.
  EXPECT_EQ(inner->learned(), learned);
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  // And checkpoints were actually less frequent than events.
  EXPECT_LT(c.lego_stats().checkpoints, c.stats().events_dispatched);
}

TEST(LegoController, UpgradeRestartPreservesAppState) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  auto inner = std::make_shared<apps::LearningSwitch>();
  c.add_app(inner);
  ASSERT_TRUE(c.start_system());
  c.run();
  send_and_pump(*net, c, 0, 1);
  send_and_pump(*net, c, 1, 0);
  const auto learned = inner->learned();
  ASSERT_GT(learned, 0u);

  // §3.4: the controller upgrade does NOT reset isolated apps.
  c.upgrade_restart();
  c.run();
  EXPECT_EQ(inner->learned(), learned);
  EXPECT_EQ(c.stats().reboots, 1u);
}

TEST(LegoController, DispositionStopShortCircuitsChain) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  auto hub = std::make_shared<apps::Hub>(); // returns kStop on packet-in
  auto rec = std::make_shared<RecorderApp>(
      "rec", std::vector<ctl::EventType>{ctl::EventType::kPacketIn});
  c.add_app(hub);
  c.add_app(rec);
  ASSERT_TRUE(c.start_system());
  c.run();
  send_and_pump(*net, c, 0, 1);
  EXPECT_TRUE(rec->events.empty());
}

TEST(LegoController, ProcessBackendEndToEndRecovery) {
  auto net = netsim::Network::linear(2, 1);
  LegoConfig cfg;
  cfg.backend = appvisor::Backend::kProcess;
  LegoController c(*net, cfg);
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(),
                                              poison_packet_trigger()));
  ASSERT_TRUE(c.start_system());
  c.run();

  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0));

  // The poison packet kills a real OS process; LegoSDN respawns + restores.
  send_and_pump(*net, c, 0, 1, 666);
  EXPECT_FALSE(c.crashed());
  EXPECT_EQ(c.lego_stats().failstop_crashes, 1u);
  EXPECT_EQ(c.lego_stats().recoveries, 1u);
  EXPECT_TRUE(c.appvisor().entries()[0].domain->alive());

  // Restored state: steady traffic flows without re-flooding.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  c.appvisor().shutdown_all();
}

TEST(Diversity, MajorityMasksFaultyReplica) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  // Three "independently developed" hubs; one has a deterministic bug.
  std::vector<appvisor::DomainPtr> replicas;
  replicas.push_back(
      std::make_unique<appvisor::InProcessDomain>(std::make_shared<apps::Hub>()));
  replicas.push_back(
      std::make_unique<appvisor::InProcessDomain>(std::make_shared<apps::Hub>()));
  replicas.push_back(std::make_unique<appvisor::InProcessDomain>(
      std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(),
                                        poison_packet_trigger())));
  auto ensemble =
      std::make_unique<DiversityDomain>("hub-3v", std::move(replicas));
  auto* ens = ensemble.get();
  c.add_domain(std::move(ensemble));
  ASSERT_TRUE(c.start_system());
  c.run();

  // The poison packet crashes replica 3, but the 2/3 majority carries on —
  // the event is fully serviced, nothing is ignored.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1, 666));
  // The poison flood punts again at s2 (same tp_dst), where the already-dead
  // replica is masked a second time — hence >= 1, not == 1.
  EXPECT_GE(ens->vote_stats().masked_crashes, 1u);
  EXPECT_EQ(c.lego_stats().failstop_crashes, 0u);
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
}

TEST(Diversity, DisagreementWithoutMajorityIsACrash) {
  // Three recorders emitting different outputs -> no majority.
  class Emitter : public ctl::App {
  public:
    explicit Emitter(std::uint16_t port) : port_(port) {}
    std::string name() const override { return "emitter"; }
    std::vector<ctl::EventType> subscriptions() const override {
      return {ctl::EventType::kPacketIn};
    }
    ctl::Disposition handle_event(const ctl::Event&, ctl::ServiceApi& api) override {
      of::FlowMod mod;
      mod.dpid = DatapathId{1};
      mod.match = of::Match{}.with_tp_dst(port_); // diverges per replica
      mod.actions = of::output_to(PortNo{1});
      api.send({api.next_xid(), mod});
      return ctl::Disposition::kStop;
    }

  private:
    std::uint16_t port_;
  };

  std::vector<appvisor::DomainPtr> replicas;
  for (std::uint16_t p : {80, 81, 82}) {
    replicas.push_back(
        std::make_unique<appvisor::InProcessDomain>(std::make_shared<Emitter>(p)));
  }
  DiversityDomain ens("div", std::move(replicas));
  ASSERT_TRUE(ens.start());
  auto out = ens.deliver(ctl::Event{of::PacketIn{}}, kSimStart);
  EXPECT_EQ(out.kind, appvisor::EventOutcome::Kind::kCrashed);
  EXPECT_EQ(ens.vote_stats().no_majority, 1u);
}

TEST(Clone, FailoverOnNonDeterministicCrash) {
  // Transient bug: fires once on the primary; the clone (fed the same
  // events) is unaffected — the paper's §5 design.
  apps::CrashTrigger t = poison_packet_trigger();
  t.deterministic = false;
  auto primary = std::make_unique<appvisor::InProcessDomain>(
      std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), t));
  auto clone = std::make_unique<appvisor::InProcessDomain>(
      std::make_shared<apps::Hub>());
  CloneDomain cd(std::move(primary), std::move(clone));
  ASSERT_TRUE(cd.start());

  of::PacketIn benign;
  benign.packet.hdr.tp_dst = 80;
  EXPECT_TRUE(cd.deliver(ctl::Event{benign}, kSimStart).ok());

  of::PacketIn poison;
  poison.packet.hdr.tp_dst = 666;
  auto out = cd.deliver(ctl::Event{poison}, kSimStart);
  EXPECT_TRUE(out.ok()) << "failover should mask the crash";
  EXPECT_EQ(cd.failovers(), 1u);
  EXPECT_FALSE(out.emitted.empty()); // the clone's flood response was used
  EXPECT_TRUE(cd.alive());
}

TEST(DeltaDebug, FindsMinimalCrashSequence) {
  // Bug: the app crashes only after seeing switch-down for s3 AND THEN a
  // packet-in from s3 — a genuine multi-event bug.
  class MultiEventBug : public ctl::App {
  public:
    std::string name() const override { return "multi-event-bug"; }
    std::vector<ctl::EventType> subscriptions() const override {
      return {ctl::EventType::kPacketIn, ctl::EventType::kSwitchDown};
    }
    ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi&) override {
      if (const auto* d = std::get_if<ctl::SwitchDown>(&e)) {
        if (d->dpid == DatapathId{3}) armed_ = true;
      }
      if (const auto* pin = std::get_if<of::PacketIn>(&e)) {
        if (armed_ && pin->dpid == DatapathId{3})
          throw ctl::AppCrash("use of stale switch 3 state");
      }
      return ctl::Disposition::kContinue;
    }
    void reset() override { armed_ = false; }

  private:
    bool armed_ = false;
  };

  // A noisy 20-event history in which only two events matter.
  std::vector<ctl::Event> history;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    of::PacketIn pin;
    pin.dpid = DatapathId{i % 2 + 1};
    history.push_back(pin);
  }
  history.push_back(ctl::SwitchDown{DatapathId{2}});
  history.push_back(ctl::SwitchDown{DatapathId{3}}); // <- culprit 1
  for (std::uint64_t i = 1; i <= 8; ++i) {
    of::PacketIn pin;
    pin.dpid = DatapathId{i % 2 + 1};
    history.push_back(pin);
  }
  of::PacketIn fatal;
  fatal.dpid = DatapathId{3}; // <- culprit 2
  history.push_back(fatal);

  auto result = minimize_crash_sequence(
      [] { return std::make_shared<MultiEventBug>(); }, history);
  ASSERT_TRUE(result.reproduced);
  ASSERT_EQ(result.minimal.size(), 2u);
  EXPECT_EQ(std::get<ctl::SwitchDown>(result.minimal[0]).dpid, DatapathId{3});
  EXPECT_EQ(std::get<of::PacketIn>(result.minimal[1]).dpid, DatapathId{3});
  EXPECT_GT(result.probes, 2u);
}

TEST(DeltaDebug, NonReproducibleBugReported) {
  auto result = minimize_crash_sequence(
      [] { return std::make_shared<apps::Hub>(); },
      {ctl::Event{of::PacketIn{}}, ctl::Event{of::PacketIn{}}});
  EXPECT_FALSE(result.reproduced);
  EXPECT_TRUE(result.minimal.empty());
}

TEST(LegoController, StatsReplyCorrectionReachesApps) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  auto rec = std::make_shared<RecorderApp>(
      "rec", std::vector<ctl::EventType>{ctl::EventType::kStatsReply});
  c.add_app(rec);
  ASSERT_TRUE(c.start_system());
  c.run();

  // Manufacture a counter-cache entry: install rule, traffic, delete+rollback.
  const of::Match m = of::Match{}.with_eth_dst(net->hosts()[1].mac);
  auto& log = c.netlog();
  TxnId t0 = log.begin(AppId{1});
  of::FlowMod add;
  add.dpid = DatapathId{1};
  add.match = m;
  add.priority = 100;
  add.actions = of::output_to(PortNo{3});
  log.apply(t0, {1, add});
  log.commit(t0);
  net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  TxnId t1 = log.begin(AppId{1});
  of::FlowMod del;
  del.dpid = DatapathId{1};
  del.command = of::FlowModCommand::kDelete;
  del.match = of::Match::any();
  log.apply(t1, {2, del});
  log.rollback(t1);
  ASSERT_FALSE(log.counter_cache().empty());

  // Request stats; the reply the app sees must already be corrected.
  of::StatsRequest req;
  req.dpid = DatapathId{1};
  req.kind = of::StatsKind::kFlow;
  req.match = of::Match::any();
  net->send_to_switch({7, req});
  c.run();
  ASSERT_EQ(rec->events.size(), 1u);
  const auto& reply = std::get<of::StatsReply>(rec->events[0]);
  ASSERT_EQ(reply.flows.size(), 1u);
  EXPECT_EQ(reply.flows[0].packet_count, 1u); // corrected from the cache
}

} // namespace
} // namespace legosdn::lego
