// Additional invariant-checker coverage: flood semantics in reachability,
// delivered_any aggregation, empty-port handling, checks on larger
// topologies under realistic rule sets, and the incremental per-transaction
// check in both of its views (pending-rule overlay vs live tables).
#include <gtest/gtest.h>

#include "apps/learning_switch.hpp"
#include "apps/shortest_path_router.hpp"
#include "controller/controller.hpp"
#include "helpers.hpp"
#include "invariant/invariant.hpp"

namespace legosdn::invariant {
namespace {

of::FlowMod flood_rule(DatapathId d) {
  of::FlowMod mod;
  mod.dpid = d;
  mod.match = of::Match::any();
  mod.priority = 1;
  mod.actions = of::output_to(ports::kFlood);
  return mod;
}

TEST(Reachability, FloodDeliverySatisfiesPairDespiteEmptyPorts) {
  // linear(2) has unconnected trunk ports at both chain ends; flood copies
  // die there, but the pair is still reachable via the flood.
  auto net = netsim::Network::linear(2, 1);
  net->send_to_switch({1, flood_rule(DatapathId{1})});
  net->send_to_switch({2, flood_rule(DatapathId{2})});
  InvariantConfig cfg;
  cfg.must_reach.push_back({net->hosts()[0].mac, net->hosts()[1].mac});
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check(cfg).empty());
}

TEST(Reachability, TraceReportsDeliveredAnyOnFloods) {
  auto net = netsim::Network::linear(2, 1);
  net->send_to_switch({1, flood_rule(DatapathId{1})});
  net->send_to_switch({2, flood_rule(DatapathId{2})});
  InvariantChecker checker(*net);
  of::PacketHeader h;
  h.eth_src = net->hosts()[0].mac;
  h.eth_dst = net->hosts()[1].mac;
  auto tr = checker.trace(net->hosts()[0].attach, h);
  EXPECT_TRUE(tr.delivered_any);
}

TEST(Reachability, EmptyPortOutputAloneIsNotABlackHole) {
  // A rule pointing at an up-but-unconnected port: harmless drop, not a
  // no-black-holes violation (that is reserved for down/nonexistent ports).
  auto net = netsim::Network::linear(2, 1);
  of::FlowMod mod;
  mod.dpid = DatapathId{1};
  mod.match = of::Match::any();
  mod.priority = 5;
  mod.actions = of::output_to(PortNo{2}); // s1's left trunk: nothing attached
  net->send_to_switch({1, mod});
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check_basic().empty());
  // But a must-reach pair through that rule IS violated.
  InvariantConfig cfg;
  cfg.must_reach.push_back({net->hosts()[0].mac, net->hosts()[1].mac});
  auto violations = checker.check(cfg);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kReachability);
}

TEST(Reachability, RouterInstalledPathsPassOnFatTree) {
  auto net = netsim::Network::fat_tree(4);
  ctl::Controller c(*net);
  std::vector<apps::ShortestPathRouter::LinkInfo> links;
  for (const auto& l : net->links()) links.push_back({l.a, l.b});
  c.register_app(std::make_shared<apps::ShortestPathRouter>(links));
  c.start();
  while (c.run() > 0) {
  }
  // Drive a few cross-pod pairs so real paths get installed.
  auto send = [&](std::size_t s, std::size_t d) {
    net->inject_from_host(net->hosts()[s].mac, legosdn::test::host_packet(*net, s, d));
    while (c.run() > 0) {
    }
  };
  for (std::size_t i = 0; i < 8; ++i) {
    send(i, 15 - i);
    send(15 - i, i);
    send(i, 15 - i);
  }
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check_basic().empty());

  // Every pair that exchanged traffic is reachable via installed rules.
  InvariantConfig cfg;
  for (std::size_t i = 0; i < 8; ++i) {
    cfg.must_reach.push_back({net->hosts()[i].mac, net->hosts()[15 - i].mac});
  }
  EXPECT_TRUE(checker.check(cfg).empty());
}

TEST(Reachability, DetectsBrokenPairAfterManualCorruption) {
  auto net = netsim::Network::fat_tree(4);
  ctl::Controller c(*net);
  std::vector<apps::ShortestPathRouter::LinkInfo> links;
  for (const auto& l : net->links()) links.push_back({l.a, l.b});
  c.register_app(std::make_shared<apps::ShortestPathRouter>(links));
  c.start();
  while (c.run() > 0) {
  }
  auto send = [&](std::size_t s, std::size_t d) {
    net->inject_from_host(net->hosts()[s].mac, legosdn::test::host_packet(*net, s, d));
    while (c.run() > 0) {
    }
  };
  send(0, 15);
  send(15, 0);
  send(0, 15);

  // Corrupt the path at the destination edge switch: hijack the pair's
  // traffic into a drop rule.
  of::FlowMod drop;
  drop.dpid = net->hosts()[15].attach.dpid;
  drop.match = of::Match{}.with_eth_dst(net->hosts()[15].mac);
  drop.priority = 0xF000;
  drop.actions = {};
  net->send_to_switch({99, drop});

  InvariantConfig cfg;
  cfg.must_reach.push_back({net->hosts()[0].mac, net->hosts()[15].mac});
  InvariantChecker checker(*net);
  auto violations = checker.check(cfg);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, InvariantKind::kReachability);
}

// The Incremental.* tests send their mods to the switches before checking,
// so both of check_flow_mods' views apply: the live tables (`pending` false)
// and an overlay that re-applies the mods to copies of the touched tables
// (`pending` true). Each runs over both.
constexpr bool kBothViews[] = {false, true};

TEST(Incremental, CheckFlowModsFindsOnlyNewViolations) {
  for (const bool pending : kBothViews) {
    SCOPED_TRACE(pending ? "overlay" : "live");
    auto net = netsim::Network::linear(2, 1);
    // Pre-existing black-hole (installed outside any checked transaction).
    of::FlowMod stale;
    stale.dpid = DatapathId{2};
    stale.match = of::Match{}.with_tp_dst(1);
    stale.priority = 50;
    stale.actions = of::output_to(PortNo{0xEE00});
    net->send_to_switch({1, stale});

    InvariantChecker checker(*net);
    InvariantConfig cfg;

    // A clean new rule: no violations attributed.
    of::FlowMod clean;
    clean.dpid = DatapathId{1};
    clean.match = of::Match{}.with_tp_dst(2);
    clean.priority = 60;
    clean.actions = of::output_to(PortNo{1});
    net->send_to_switch({2, clean});
    EXPECT_TRUE(checker.check_flow_mods(cfg, std::vector{clean}, pending).empty());

    // A new black-hole rule: attributed, while the stale one stays unblamed.
    of::FlowMod bad;
    bad.dpid = DatapathId{1};
    bad.match = of::Match{}.with_tp_dst(3);
    bad.priority = 70;
    bad.actions = of::output_to(PortNo{0xEE00});
    net->send_to_switch({3, bad});
    auto violations = checker.check_flow_mods(cfg, std::vector{bad}, pending);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].kind, InvariantKind::kNoBlackHoles);
    EXPECT_EQ(violations[0].where, DatapathId{1});
  }
}

TEST(Incremental, CheckFlowModsFindsLoopThroughNewRule) {
  for (const bool pending : kBothViews) {
    SCOPED_TRACE(pending ? "overlay" : "live");
    auto net = netsim::Network::linear(2, 1);
    const of::Match m = of::Match{}.with_eth_dst(MacAddress::from_uint64(9));
    // Existing half of the loop at s2.
    of::FlowMod half;
    half.dpid = DatapathId{2};
    half.match = m;
    half.priority = 80;
    half.actions = of::output_to(PortNo{2}); // back toward s1
    net->send_to_switch({1, half});
    InvariantChecker checker(*net);
    EXPECT_TRUE(checker.check_flow_mods({}, std::vector{half}, pending).empty());

    // The new rule at s1 completes the cycle; tracing from it finds the loop.
    of::FlowMod other;
    other.dpid = DatapathId{1};
    other.match = m;
    other.priority = 80;
    other.actions = of::output_to(PortNo{3}); // toward s2
    net->send_to_switch({2, other});
    auto violations = checker.check_flow_mods({}, std::vector{other}, pending);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].kind, InvariantKind::kNoLoops);
  }
}

TEST(Incremental, DeletesAreNeverBlamed) {
  for (const bool pending : kBothViews) {
    auto net = netsim::Network::linear(2, 1);
    InvariantChecker checker(*net);
    of::FlowMod del;
    del.dpid = DatapathId{1};
    del.command = of::FlowModCommand::kDelete;
    del.match = of::Match::any();
    EXPECT_TRUE(checker.check_flow_mods({}, std::vector{del}, pending).empty())
        << (pending ? "overlay" : "live");
  }
}

// Differential test of the two views. For each seed: a random topology with
// random pre-installed rules, then a bundle of 1-6 flow-mods. The overlay
// view is taken before the bundle is sent and the live view after it lands;
// both must report the same violations in the same order. A small pool of
// matches and priorities makes mods replace, shadow and modify each other,
// and actions aim at peer ports, a nonexistent port, flood, the controller
// or nothing (drop), so the corpus holds both loops and black holes.
TEST(Incremental, OverlayAgreesWithLiveTablesOnceModsLand) {
  constexpr std::uint64_t kSeeds = 240;
  constexpr PortNo kDeadPort{0xEE00};
  std::size_t loops = 0, black_holes = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::unique_ptr<netsim::Network> net;
    switch (rng.below(4)) {
      case 0: net = netsim::Network::linear(rng.below(4) + 2, 1); break;
      case 1: net = netsim::Network::ring(rng.below(4) + 3, 1); break;
      case 2: net = netsim::Network::fat_tree(4); break;
      default:
        net = netsim::Network::random(rng.below(5) + 3, rng.below(3), 1, rng.next());
        break;
    }
    ASSERT_NE(net, nullptr);
    const std::vector<DatapathId> dpids = net->switch_ids();
    std::vector<of::Match> matches{of::Match::any(), of::Match{}.with_tp_dst(80),
                                   of::Match{}.with_in_port(PortNo{1})};
    for (std::size_t h = 0; h < 3 && h < net->hosts().size(); ++h)
      matches.push_back(of::Match{}.with_eth_dst(net->hosts()[h].mac));

    auto random_port = [&](DatapathId d) {
      if (rng.chance(0.2)) return kDeadPort;
      const std::vector<PortNo> ports = net->switch_at(d)->port_numbers();
      return ports[rng.below(ports.size())];
    };
    auto random_mod = [&](of::FlowModCommand cmd) {
      of::FlowMod m;
      m.dpid = dpids[rng.below(dpids.size())];
      m.command = cmd;
      m.match = matches[rng.below(matches.size())];
      m.priority = static_cast<std::uint16_t>(10 * (rng.below(3) + 1));
      switch (rng.below(6)) {
        case 0:
        case 1: m.actions = of::output_to(random_port(m.dpid)); break;
        case 2: m.actions = of::output_to(kDeadPort); break;
        case 3: m.actions = of::output_to(ports::kFlood); break;
        case 4: m.actions = of::output_to(ports::kController); break;
        default: break; // drop
      }
      const bool del = cmd == of::FlowModCommand::kDelete ||
                       cmd == of::FlowModCommand::kDeleteStrict;
      if (del && rng.chance(0.5)) m.out_port = random_port(m.dpid);
      return m;
    };

    std::uint32_t xid = 1;
    const std::uint64_t preinstalled = rng.below(30) + 5;
    for (std::uint64_t i = 0; i < preinstalled; ++i)
      net->send_to_switch({xid++, random_mod(of::FlowModCommand::kAdd)});
    if (rng.chance(0.3))
      net->set_link_state(net->links()[rng.below(net->links().size())].a, false);

    std::vector<of::FlowMod> mods;
    const std::uint64_t n = rng.below(6) + 1;
    for (std::uint64_t i = 0; i < n; ++i)
      mods.push_back(random_mod(static_cast<of::FlowModCommand>(rng.below(5))));

    InvariantChecker checker(*net);
    const InvariantConfig cfg;
    const std::vector<Violation> overlay = checker.check_flow_mods(cfg, mods, true);
    for (const auto& m : mods) net->send_to_switch({xid++, m});
    const std::vector<Violation> live = checker.check_flow_mods(cfg, mods, false);

    ASSERT_EQ(overlay.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(overlay[i].kind, live[i].kind) << i;
      EXPECT_EQ(overlay[i].where, live[i].where) << i;
      EXPECT_EQ(overlay[i].detail, live[i].detail) << i;
      loops += live[i].kind == InvariantKind::kNoLoops;
      black_holes += live[i].kind == InvariantKind::kNoBlackHoles;
    }
  }
  EXPECT_GT(loops, 0u);
  EXPECT_GT(black_holes, 0u);
}

TEST(Checker, LearningSwitchRulesNeverViolateOnTrees) {
  for (int topo = 0; topo < 2; ++topo) {
    auto net = topo == 0 ? netsim::Network::linear(4, 2) : netsim::Network::star(4, 2);
    ctl::Controller c(*net);
    c.register_app(std::make_shared<apps::LearningSwitch>());
    c.start();
    while (c.run() > 0) {
    }
    for (std::size_t i = 0; i + 1 < net->hosts().size(); ++i) {
      net->inject_from_host(net->hosts()[i].mac,
                            legosdn::test::host_packet(*net, i, i + 1));
      while (c.run() > 0) {
      }
      net->inject_from_host(net->hosts()[i + 1].mac,
                            legosdn::test::host_packet(*net, i + 1, i));
      while (c.run() > 0) {
      }
    }
    InvariantChecker checker(*net);
    EXPECT_TRUE(checker.check_basic().empty()) << "topology " << topo;
  }
}

} // namespace
} // namespace legosdn::invariant
