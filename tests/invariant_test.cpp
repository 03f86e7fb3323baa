// Invariant checker (VeriFlow-lite) tests: loop / black-hole / reachability
// detection over installed rules.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "invariant/invariant.hpp"

namespace legosdn::invariant {
namespace {

of::FlowMod rule(DatapathId dpid, const of::Match& m, PortNo out,
                 std::uint16_t prio = 100) {
  of::FlowMod mod;
  mod.dpid = dpid;
  mod.match = m;
  mod.priority = prio;
  mod.actions = of::output_to(out);
  return mod;
}

TEST(RepresentativeHeader, SatisfiesItsMatch) {
  legosdn::test::MessageGen gen(3);
  for (int i = 0; i < 500; ++i) {
    of::Match m = gen.random_match();
    m.ip_src_prefix = 32; // representative uses the exact network address
    m.ip_dst_prefix = 32;
    const of::PacketHeader h = representative_header(m);
    const PortNo port = m.wildcarded(of::kWcInPort) ? PortNo{1} : m.in_port;
    EXPECT_TRUE(m.matches(port, h)) << m.to_string();
  }
}

TEST(Checker, CleanNetworkHasNoViolations) {
  auto net = netsim::Network::linear(3, 1);
  const MacAddress dst = net->hosts()[2].mac;
  net->send_to_switch({1, rule(DatapathId{1}, of::Match{}.with_eth_dst(dst), PortNo{3})});
  net->send_to_switch({2, rule(DatapathId{2}, of::Match{}.with_eth_dst(dst), PortNo{3})});
  net->send_to_switch({3, rule(DatapathId{3}, of::Match{}.with_eth_dst(dst), PortNo{1})});
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check_basic().empty());
}

TEST(Checker, DetectsForwardingLoop) {
  auto net = netsim::Network::linear(2, 1);
  const MacAddress dst = MacAddress::from_uint64(0x99);
  const of::Match m = of::Match{}.with_eth_dst(dst);
  net->send_to_switch({1, rule(DatapathId{1}, m, PortNo{3})}); // to s2
  net->send_to_switch({2, rule(DatapathId{2}, m, PortNo{2})}); // back to s1
  InvariantChecker checker(*net);
  auto violations = checker.check_basic();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, InvariantKind::kNoLoops);
}

TEST(Checker, DetectsBlackHoleIntoNonexistentPort) {
  auto net = netsim::Network::linear(2, 1);
  net->send_to_switch(
      {1, rule(DatapathId{1}, of::Match::any(), PortNo{0xEE00})}); // no such port
  InvariantChecker checker(*net);
  auto violations = checker.check_basic();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, InvariantKind::kNoBlackHoles);
  EXPECT_EQ(violations[0].where, DatapathId{1});
}

TEST(Checker, DetectsBlackHoleIntoDownLink) {
  auto net = netsim::Network::linear(2, 1);
  const MacAddress dst = net->hosts()[1].mac;
  net->send_to_switch({1, rule(DatapathId{1}, of::Match{}.with_eth_dst(dst), PortNo{3})});
  net->send_to_switch({2, rule(DatapathId{2}, of::Match{}.with_eth_dst(dst), PortNo{1})});
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check_basic().empty());
  net->set_link_state({DatapathId{1}, PortNo{3}}, false);
  auto violations = checker.check_basic();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, InvariantKind::kNoBlackHoles);
}

TEST(Checker, TableMissIsNotAViolation) {
  auto net = netsim::Network::linear(2, 1);
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check_basic().empty()); // empty tables: only misses
}

TEST(Checker, ReachabilityViolatedByDropRule) {
  auto net = netsim::Network::linear(2, 1);
  const MacAddress src = net->hosts()[0].mac;
  const MacAddress dst = net->hosts()[1].mac;
  InvariantConfig cfg;
  cfg.must_reach.push_back({src, dst});
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check(cfg).empty()); // miss -> controller decides: OK

  of::FlowMod drop;
  drop.dpid = DatapathId{1};
  drop.match = of::Match{}.with_eth_dst(dst);
  drop.priority = 0xF000;
  drop.actions = {};
  net->send_to_switch({1, drop});
  auto violations = checker.check(cfg);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kReachability);
}

TEST(Checker, ReachabilitySatisfiedByWorkingPath) {
  auto net = netsim::Network::linear(2, 1);
  const MacAddress src = net->hosts()[0].mac;
  const MacAddress dst = net->hosts()[1].mac;
  net->send_to_switch({1, rule(DatapathId{1}, of::Match{}.with_eth_dst(dst), PortNo{3})});
  net->send_to_switch({2, rule(DatapathId{2}, of::Match{}.with_eth_dst(dst), PortNo{1})});
  InvariantConfig cfg;
  cfg.must_reach.push_back({src, dst});
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check(cfg).empty());
}

TEST(Checker, UnknownHostInSpecIsReported) {
  auto net = netsim::Network::linear(2, 1);
  InvariantConfig cfg;
  cfg.must_reach.push_back({MacAddress::from_uint64(0xDEAD), net->hosts()[0].mac});
  InvariantChecker checker(*net);
  auto violations = checker.check(cfg);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, InvariantKind::kReachability);
}

TEST(Checker, TraceReportsPath) {
  auto net = netsim::Network::linear(3, 1);
  const MacAddress dst = net->hosts()[2].mac;
  const of::Match m = of::Match{}.with_eth_dst(dst);
  net->send_to_switch({1, rule(DatapathId{1}, m, PortNo{3})});
  net->send_to_switch({2, rule(DatapathId{2}, m, PortNo{3})});
  net->send_to_switch({3, rule(DatapathId{3}, m, PortNo{1})});
  InvariantChecker checker(*net);
  of::PacketHeader h;
  h.eth_src = net->hosts()[0].mac;
  h.eth_dst = dst;
  auto tr = checker.trace({DatapathId{1}, PortNo{1}}, h);
  EXPECT_EQ(tr.outcome, TraceOutcome::kDelivered);
  EXPECT_EQ(tr.path.size(), 3u);
}

TEST(Checker, FloodRulesDoNotFalselyLoopOnTrees) {
  auto net = netsim::Network::star(3, 1);
  // Flood rule on every switch: fine on a tree (no cycles).
  for (const auto dpid : net->switch_ids()) {
    of::FlowMod mod;
    mod.dpid = dpid;
    mod.match = of::Match::any();
    mod.priority = 1;
    mod.actions = of::output_to(ports::kFlood);
    net->send_to_switch({1, mod});
  }
  InvariantChecker checker(*net);
  EXPECT_TRUE(checker.check_basic().empty());
}

TEST(Checker, FloodRulesLoopOnRings) {
  auto net = netsim::Network::ring(4, 1);
  for (const auto dpid : net->switch_ids()) {
    of::FlowMod mod;
    mod.dpid = dpid;
    mod.match = of::Match::any();
    mod.priority = 1;
    mod.actions = of::output_to(ports::kFlood);
    net->send_to_switch({1, mod});
  }
  InvariantChecker checker(*net);
  auto violations = checker.check_basic();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, InvariantKind::kNoLoops);
}

// Regression: the trace keyed visits by a 64-bit XOR of the header, so a
// rewritten copy whose fields XOR to the same value as an earlier visit at
// the same port was reported as a loop, and a transaction that installed
// such set-field rules was rolled back as byzantine. Visits are now compared
// field by field.
TEST(Checker, RewrittenCopyBackAtItsIngressIsNotALoop) {
  auto r = legosdn::test::rewrite_echo();
  InvariantChecker checker(*r.net);
  const TraceResult tr = checker.trace(r.ingress, r.pkt.hdr);
  EXPECT_EQ(tr.outcome, TraceOutcome::kDelivered);
  EXPECT_TRUE(tr.delivered_any);
  ASSERT_EQ(tr.path.size(), 3u); // s2, s1, s2 again
  EXPECT_EQ(tr.path[2], r.ingress);
  EXPECT_TRUE(checker.check_basic().empty()); // and no rule is blamed
}

// A flood skips its ingress port, so its verdict can depend on where the
// packet came in: every ingress where a flood rule wins is traced.
TEST(Checker, FloodRuleIsTracedFromEveryWinningIngress) {
  netsim::Network net;
  const DatapathId s1{1}, s2{2};
  net.add_switch(s1, 3); // port 1 -> s2, port 2 host, port 3 empty
  net.add_switch(s2, 2);
  net.add_link({s1, PortNo{1}}, {s2, PortNo{1}});
  net.add_host(MacAddress::from_uint64(0xA), IpV4{0x0A00000A}, {s1, PortNo{2}});
  // Pre-existing black hole behind port 1 of s1.
  net.send_to_switch({1, rule(s2, of::Match::any(), PortNo{0xEE00}, 1)});
  of::FlowMod flood = rule(s1, of::Match::any(), ports::kFlood, 1);
  net.send_to_switch({2, flood});
  // From port 1 (the first winning ingress) the flood skips the way to s2;
  // from port 2 it reaches the black hole.
  InvariantChecker checker(net);
  const auto v = checker.check_flow_mods({}, std::vector{flood}, false);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, InvariantKind::kNoBlackHoles);
  EXPECT_EQ(v[0].where, s2);
}

TEST(ReachabilityMemo, RetracesOnlyPairsWhoseInputsMoved) {
  auto net = netsim::Network::linear(3, 1);
  const auto& hosts = net->hosts();
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::uint64_t sw = 1; sw <= 3; ++sw) {
      const PortNo out = sw == d + 1 ? PortNo{1} : sw < d + 1 ? PortNo{3} : PortNo{2};
      net->send_to_switch({1, rule(DatapathId{sw}, of::Match{}.with_eth_dst(hosts[d].mac), out)});
    }
  }
  InvariantConfig cfg;
  cfg.must_reach.push_back({hosts[0].mac, hosts[1].mac}); // s1 -> s2
  cfg.must_reach.push_back({hosts[2].mac, hosts[1].mac}); // s3 -> s2
  InvariantChecker checker(*net);
  ReachabilityMemo memo;
  EXPECT_TRUE(checker.check_reachability_only(cfg, memo).empty());
  EXPECT_EQ(memo.stats().retraces, 2u);
  EXPECT_TRUE(checker.check_reachability_only(cfg, memo).empty());
  EXPECT_EQ(memo.stats().hits, 2u); // nothing changed

  // A rule on s1 only moves the pair whose trace peeked s1.
  of::FlowMod drop = rule(DatapathId{1}, of::Match{}.with_eth_dst(hosts[1].mac), PortNo{1}, 200);
  drop.actions.clear();
  net->send_to_switch({2, drop});
  auto v = checker.check_reachability_only(cfg, memo);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, InvariantKind::kReachability);
  EXPECT_EQ(memo.stats().retraces, 3u);
  EXPECT_EQ(memo.stats().hits, 3u);

  // Topology changes re-trace everything.
  net->set_link_state({DatapathId{2}, PortNo{3}}, false);
  v = checker.check_reachability_only(cfg, memo);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(memo.stats().retraces, 5u);

  // No pairs: nothing is read or counted.
  const auto before = memo.stats();
  EXPECT_TRUE(checker.check_reachability_only(InvariantConfig{}, memo).empty());
  EXPECT_EQ(memo.stats().hits, before.hits);
  EXPECT_EQ(memo.stats().retraces, before.retraces);
}

} // namespace
} // namespace legosdn::invariant
