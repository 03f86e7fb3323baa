// Network simulator tests: topology builders, the forwarding engine,
// packet-in punts and buffered packet-out resume, failures, and counters.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "netsim/traffic.hpp"

namespace legosdn::netsim {
namespace {

using legosdn::test::host_packet;
using legosdn::test::packet_between;

of::FlowMod forward_rule(DatapathId dpid, const MacAddress& dst, PortNo out,
                         std::uint16_t prio = 100) {
  of::FlowMod mod;
  mod.dpid = dpid;
  mod.match = of::Match{}.with_eth_dst(dst);
  mod.priority = prio;
  mod.actions = of::output_to(out);
  return mod;
}

TEST(Topology, LinearShape) {
  auto net = Network::linear(4, 2);
  EXPECT_EQ(net->switch_ids().size(), 4u);
  EXPECT_EQ(net->links().size(), 3u);
  EXPECT_EQ(net->hosts().size(), 8u);
  // Interior switch connects left and right.
  const PortLocator s2_right{DatapathId{2}, PortNo{4}};
  const PortLocator* peer = net->link_peer(s2_right);
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(peer->dpid, DatapathId{3});
}

TEST(Topology, RingClosesTheLoop) {
  auto net = Network::ring(5, 1);
  EXPECT_EQ(net->links().size(), 5u);
}

TEST(Topology, StarShape) {
  auto net = Network::star(6, 2);
  EXPECT_EQ(net->switch_ids().size(), 7u); // core + 6 leaves
  EXPECT_EQ(net->links().size(), 6u);
  EXPECT_EQ(net->hosts().size(), 12u);
}

TEST(Topology, FatTreeShape) {
  const std::size_t k = 4;
  auto net = Network::fat_tree(k);
  // k^2/4 cores + k pods * k switches = 4 + 16 = 20
  EXPECT_EQ(net->switch_ids().size(), 20u);
  // links: pods * (k/2 * k/2 edge-agg) + pods * (k/2 * k/2 agg-core) = 16+16
  EXPECT_EQ(net->links().size(), 32u);
  // hosts: k^3/4 = 16
  EXPECT_EQ(net->hosts().size(), 16u);
}

TEST(Topology, FatTreeScalesToK6) {
  const std::size_t k = 6;
  auto net = Network::fat_tree(k);
  EXPECT_EQ(net->switch_ids().size(), k * k / 4 + k * k); // 9 cores + 36
  EXPECT_EQ(net->hosts().size(), k * k * k / 4);          // 54 hosts
  EXPECT_EQ(net->links().size(), 2 * k * (k / 2) * (k / 2)); // 108 links
}

TEST(Topology, RandomIsDeterministicPerSeed) {
  auto a = Network::random(8, 3, 2, 99);
  auto b = Network::random(8, 3, 2, 99);
  ASSERT_EQ(a->links().size(), b->links().size());
  for (std::size_t i = 0; i < a->links().size(); ++i) {
    EXPECT_EQ(a->links()[i].a, b->links()[i].a);
    EXPECT_EQ(a->links()[i].b, b->links()[i].b);
  }
  auto c = Network::random(8, 3, 2, 100);
  bool same = a->links().size() == c->links().size();
  if (same) {
    same = false;
    for (std::size_t i = 0; i < a->links().size(); ++i) {
      if (!(a->links()[i].a == c->links()[i].a)) same = false;
    }
  }
  // (different seed almost surely differs; not asserted to avoid flakiness)
}

TEST(Forwarding, TableMissPuntsToController) {
  auto net = Network::linear(2, 1);
  std::vector<of::Message> northbound;
  net->set_northbound([&](const of::Message& m) { northbound.push_back(m); });

  auto res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kPunted);
  ASSERT_EQ(northbound.size(), 1u);
  const auto* pin = northbound[0].get_if<of::PacketIn>();
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->dpid, DatapathId{1});
  EXPECT_EQ(pin->reason, of::PacketInReason::kNoMatch);
  EXPECT_NE(pin->buffer_id, of::PacketIn::kNoBuffer);
}

TEST(Forwarding, InstalledPathDeliversEndToEnd) {
  auto net = Network::linear(3, 1); // h0-s1-s2-s3-h2, host port 1, trunks 2/3
  const MacAddress dst = net->hosts()[2].mac;
  // Path rules: s1 out right(3), s2 out right(3), s3 out host port(1).
  net->send_to_switch({1, forward_rule(DatapathId{1}, dst, PortNo{3})});
  net->send_to_switch({2, forward_rule(DatapathId{2}, dst, PortNo{3})});
  net->send_to_switch({3, forward_rule(DatapathId{3}, dst, PortNo{1})});

  auto res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 2));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kDelivered);
  ASSERT_EQ(res.delivered_to.size(), 1u);
  EXPECT_EQ(res.delivered_to[0], dst);
  EXPECT_EQ(res.hops, 3u);
  EXPECT_EQ(net->host_by_mac(dst)->rx_packets, 1u);
}

TEST(Forwarding, FloodReachesAllOtherHostsOnOneSwitch) {
  auto net = Network::star(1, 0); // build manually instead
  // single switch, 3 hosts
  auto simple = std::make_unique<Network>();
  simple->add_switch(DatapathId{1}, 3);
  for (int i = 0; i < 3; ++i) {
    simple->add_host(MacAddress::from_uint64(0x10 + i), IpV4{std::uint32_t(i + 1)},
                     {DatapathId{1}, PortNo{std::uint16_t(i + 1)}});
  }
  of::FlowMod flood;
  flood.dpid = DatapathId{1};
  flood.match = of::Match::any();
  flood.priority = 1;
  flood.actions = of::output_to(ports::kFlood);
  simple->send_to_switch({1, flood});

  // Broadcast frame: all other hosts accept it.
  of::Packet p = packet_between(MacAddress::from_uint64(0x10),
                                MacAddress{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}});
  auto res = simple->inject_from_host(MacAddress::from_uint64(0x10), p);
  EXPECT_EQ(res.delivered_to.size(), 2u); // not back out the ingress port

  // Unicast to a specific host: others filter it.
  p = packet_between(MacAddress::from_uint64(0x10), MacAddress::from_uint64(0x12));
  res = simple->inject_from_host(MacAddress::from_uint64(0x10), p);
  ASSERT_EQ(res.delivered_to.size(), 1u);
  EXPECT_EQ(res.delivered_to[0], MacAddress::from_uint64(0x12));
}

TEST(Forwarding, DropRuleDropsPacket) {
  auto net = Network::linear(2, 1);
  of::FlowMod drop;
  drop.dpid = DatapathId{1};
  drop.match = of::Match::any();
  drop.priority = 1;
  drop.actions = {}; // drop
  net->send_to_switch({1, drop});
  auto res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kDropped);
}

TEST(Forwarding, HeaderRewriteActionsApply) {
  auto simple = std::make_unique<Network>();
  simple->add_switch(DatapathId{1}, 2);
  const MacAddress alice = MacAddress::from_uint64(0xA);
  const MacAddress bob = MacAddress::from_uint64(0xB);
  simple->add_host(alice, IpV4{1}, {DatapathId{1}, PortNo{1}});
  simple->add_host(bob, IpV4{2}, {DatapathId{1}, PortNo{2}});

  // Rewrite destination to bob, then output to bob's port.
  of::FlowMod mod;
  mod.dpid = DatapathId{1};
  mod.match = of::Match::any();
  mod.priority = 10;
  mod.actions = {of::ActionSetEthDst{bob}, of::ActionSetIpDst{IpV4{2}},
                 of::ActionOutput{PortNo{2}}};
  simple->send_to_switch({1, mod});

  // Packet originally addressed elsewhere still lands on bob after rewrite.
  of::Packet p = packet_between(alice, MacAddress::from_uint64(0xC));
  auto res = simple->inject_from_host(alice, p);
  ASSERT_EQ(res.delivered_to.size(), 1u);
  EXPECT_EQ(res.delivered_to[0], bob);
}

TEST(Forwarding, LoopIsDetected) {
  auto net = Network::linear(2, 1);
  // s1 sends to s2, s2 sends back to s1: a two-switch cycle.
  const MacAddress dst = MacAddress::from_uint64(0x77);
  net->send_to_switch({1, forward_rule(DatapathId{1}, dst, PortNo{3})});
  net->send_to_switch({2, forward_rule(DatapathId{2}, dst, PortNo{2})});
  of::Packet p = packet_between(net->hosts()[0].mac, dst);
  auto res = net->inject_from_host(net->hosts()[0].mac, p);
  EXPECT_TRUE(res.looped);
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kLooped);
}

// Regression: loop detection keyed visits by a 64-bit XOR of the header, so
// a rewritten copy whose fields XOR to the same value as an earlier visit at
// the same port was dropped as a loop. Visits are now compared field by
// field.
TEST(Forwarding, RewrittenCopyBackAtItsIngressIsNotALoop) {
  auto r = legosdn::test::rewrite_echo();
  const auto res = r.net->inject_at(r.ingress, r.pkt);
  EXPECT_FALSE(res.looped);
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kDelivered);
  ASSERT_EQ(res.delivered_to.size(), 1u);
  EXPECT_EQ(res.delivered_to[0], r.receiver);
  EXPECT_EQ(res.hops, 3u); // s2, s1, s2 again
  EXPECT_EQ(r.net->totals().looped, 0u);
}

// A northbound callback that forwards again runs a walk inside a walk on
// the same thread. Each must see exactly its own visits: an inner walk that
// saw the outer one's would stop early, and an outer walk that lost its own
// to the inner one would stop on the inner walk's keys.
TEST(Forwarding, NestedWalkKeepsItsOwnVisitedSet) {
  auto net = Network::linear(2, 1); // trunk: s1:3 <-> s2:2
  const MacAddress dst = MacAddress::from_uint64(0x77);
  net->send_to_switch({1, forward_rule(DatapathId{1}, dst, PortNo{3})});
  of::FlowMod punt_and_back = forward_rule(DatapathId{2}, dst, PortNo{2});
  punt_and_back.actions.insert(punt_and_back.actions.begin(),
                               of::ActionOutput{ports::kController});
  net->send_to_switch({2, punt_and_back});
  DeliveryResult inner;
  int punts = 0;
  net->set_northbound([&](const of::Message& m) {
    const auto* pin = m.get_if<of::PacketIn>();
    if (!pin || punts++ > 0) return;
    // Mid-walk, the controller sends the packet around the same cycle.
    of::PacketOut po;
    po.dpid = DatapathId{2};
    po.in_port = PortNo{2};
    po.packet = pin->packet;
    po.actions = of::output_to(PortNo{2});
    inner = net->send_to_switch({2, po});
  });
  const auto outer =
      net->inject_from_host(net->hosts()[0].mac, packet_between(net->hosts()[0].mac, dst));
  EXPECT_EQ(punts, 2);
  EXPECT_TRUE(outer.looped);
  EXPECT_EQ(outer.hops, 3u); // s1, s2, s1; s2 again is the loop
  EXPECT_TRUE(inner.looped);
  EXPECT_EQ(inner.hops, 2u); // s1, s2; s1 again is the loop
}

TEST(Forwarding, BufferedPacketOutResumesDelivery) {
  auto net = Network::linear(2, 1);
  std::vector<of::Message> northbound;
  net->set_northbound([&](const of::Message& m) { northbound.push_back(m); });

  auto res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kPunted);
  const auto* pin = northbound[0].get_if<of::PacketIn>();
  ASSERT_NE(pin, nullptr);

  // Controller-style response: install rule + release buffer toward s2.
  const MacAddress dst = net->hosts()[1].mac;
  net->send_to_switch({2, forward_rule(DatapathId{2}, dst, PortNo{1})});
  of::PacketOut po;
  po.dpid = pin->dpid;
  po.buffer_id = pin->buffer_id;
  po.in_port = pin->in_port;
  po.actions = of::output_to(PortNo{3}); // toward s2
  auto res2 = net->send_to_switch({3, po});
  ASSERT_EQ(res2.delivered_to.size(), 1u);
  EXPECT_EQ(res2.delivered_to[0], dst);

  // Releasing the same buffer twice is an error.
  northbound.clear();
  net->send_to_switch({4, po});
  ASSERT_FALSE(northbound.empty());
  EXPECT_NE(northbound.back().get_if<of::OfError>(), nullptr);
}

TEST(Switch, EchoFeaturesBarrierStats) {
  auto net = Network::linear(1, 2);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });

  net->send_to_switch({7, of::EchoRequest{99}});
  ASSERT_EQ(nb.size(), 0u); // echo needs a dpid-addressed message... see below
  // EchoRequest carries no dpid; direct the request via the switch API:
  std::vector<of::Message> replies;
  net->switch_at(DatapathId{1})->handle_message({7, of::EchoRequest{99}}, kSimStart,
                                                replies);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].get_if<of::EchoReply>()->payload, 99u);

  net->send_to_switch({8, of::FeaturesRequest{}}); // also not dpid-addressed
  replies.clear();
  net->switch_at(DatapathId{1})->handle_message({8, of::FeaturesRequest{}}, kSimStart,
                                                replies);
  const auto* feats = replies[0].get_if<of::FeaturesReply>();
  ASSERT_NE(feats, nullptr);
  EXPECT_EQ(feats->dpid, DatapathId{1});
  EXPECT_EQ(feats->ports.size(), 4u); // 2 host ports + 2 trunk ports

  nb.clear();
  net->send_to_switch({9, of::BarrierRequest{DatapathId{1}}});
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_NE(nb[0].get_if<of::BarrierReply>(), nullptr);
  EXPECT_EQ(nb[0].xid, 9u);

  // Install a rule, hit it, and read flow stats back.
  const MacAddress dst = net->hosts()[1].mac;
  net->send_to_switch({10, forward_rule(DatapathId{1}, dst, PortNo{2})});
  net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  nb.clear();
  of::StatsRequest sreq;
  sreq.dpid = DatapathId{1};
  sreq.kind = of::StatsKind::kFlow;
  sreq.match = of::Match::any();
  net->send_to_switch({11, sreq});
  ASSERT_EQ(nb.size(), 1u);
  const auto* stats = nb[0].get_if<of::StatsReply>();
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->flows.size(), 1u);
  EXPECT_EQ(stats->flows[0].packet_count, 1u);
}

TEST(Failures, LinkDownEmitsPortStatusBothEnds) {
  auto net = Network::linear(3, 1);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  net->set_link_state({DatapathId{1}, PortNo{3}}, false);
  ASSERT_EQ(nb.size(), 2u);
  const auto* ps1 = nb[0].get_if<of::PortStatus>();
  const auto* ps2 = nb[1].get_if<of::PortStatus>();
  ASSERT_NE(ps1, nullptr);
  ASSERT_NE(ps2, nullptr);
  EXPECT_FALSE(ps1->desc.link_up);
  EXPECT_FALSE(ps2->desc.link_up);
  // Packets forwarded into the dead link drop.
  const MacAddress dst = net->hosts()[1].mac;
  net->send_to_switch({1, forward_rule(DatapathId{1}, dst, PortNo{3})});
  auto res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kDropped);
  // Link back up: delivery resumes (s2 still needs a rule; expect punt there).
  nb.clear();
  net->set_link_state({DatapathId{1}, PortNo{3}}, true);
  EXPECT_EQ(nb.size(), 2u);
  res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kPunted);
}

TEST(Failures, SwitchDownNotifiesAndDropsTraffic) {
  auto net = Network::linear(3, 1);
  bool switch_down_seen = false;
  net->set_switch_state_callback([&](DatapathId d, bool up) {
    if (d == DatapathId{2} && !up) switch_down_seen = true;
  });
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });

  const MacAddress dst = net->hosts()[2].mac;
  net->send_to_switch({1, forward_rule(DatapathId{1}, dst, PortNo{3})});
  net->send_to_switch({2, forward_rule(DatapathId{2}, dst, PortNo{3})});
  net->send_to_switch({3, forward_rule(DatapathId{3}, dst, PortNo{1})});

  net->set_switch_state(DatapathId{2}, false);
  EXPECT_TRUE(switch_down_seen);
  // Neighbours s1 and s3 observed their trunk ports going down.
  std::size_t port_downs = 0;
  for (const auto& m : nb)
    if (const auto* ps = m.get_if<of::PortStatus>())
      if (!ps->desc.link_up) ++port_downs;
  EXPECT_EQ(port_downs, 2u);

  auto res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 2));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kDropped);

  // Revival cold-restarts the switch: its flow table is empty.
  net->set_switch_state(DatapathId{2}, true);
  EXPECT_TRUE(net->switch_at(DatapathId{2})->table().empty());
}

TEST(Failures, DeadSwitchIgnoresMessages) {
  auto net = Network::linear(2, 1);
  net->set_switch_state(DatapathId{1}, false);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  net->send_to_switch({1, of::BarrierRequest{DatapathId{1}}});
  EXPECT_TRUE(nb.empty());
}

// Regression: a switch bounce used to force every attached link back up,
// silently resurrecting links the operator had admin-downed before (or
// during) the outage.
TEST(Failures, AdminDownedLinkSurvivesSwitchBounce) {
  auto net = Network::linear(3, 1); // trunks: s1:3 <-> s2:2, s2:3 <-> s3:2
  const PortLocator left{DatapathId{2}, PortNo{2}};
  const PortLocator right{DatapathId{2}, PortNo{3}};
  net->set_link_state(left, false);  // admin down before the crash
  net->set_switch_state(DatapathId{2}, false);
  net->set_link_state(right, false); // ... and during it
  net->set_switch_state(DatapathId{2}, true);
  EXPECT_FALSE(net->link_up(left));
  EXPECT_FALSE(net->link_up(right));
  // Admin re-enable restores them now that the switch is back.
  net->set_link_state(left, true);
  EXPECT_TRUE(net->link_up(left));
  net->set_link_state(right, true);
  EXPECT_TRUE(net->link_up(right));
}

TEST(Failures, LinkStaysDownUntilBothEndpointsRevive) {
  auto net = Network::linear(2, 1); // trunk: s1:3 <-> s2:2
  const PortLocator end{DatapathId{1}, PortNo{3}};
  net->set_switch_state(DatapathId{1}, false);
  net->set_switch_state(DatapathId{2}, false);
  net->set_switch_state(DatapathId{1}, true);
  EXPECT_FALSE(net->link_up(end)); // far endpoint still dead
  net->set_switch_state(DatapathId{2}, true);
  EXPECT_TRUE(net->link_up(end));
}

// Regression: deliveries performed by a controller PacketOut (buffered punt
// resumes included) never reached Totals, so the reactive forwarding path —
// exactly what the differential fuzzer compares across architectures — was
// invisible to delivery accounting.
// Network::topology_generation() is the one number the checker's
// reachability memo compares for everything a walk reads outside the flow
// tables, so every such mutation must move it.
TEST(Topology, GenerationMovesOnEveryWalkInput) {
  auto net = Network::linear(3, 1); // trunks: s1:3 <-> s2:2, s2:3 <-> s3:2
  std::uint64_t last = net->topology_generation();
  auto moved = [&](const char* what) {
    EXPECT_NE(net->topology_generation(), last) << what;
    last = net->topology_generation();
  };
  auto unchanged = [&](const char* what) {
    EXPECT_EQ(net->topology_generation(), last) << what;
  };
  const PortLocator trunk{DatapathId{2}, PortNo{3}};
  net->set_link_state(trunk, false); // reconcile_link + emit_port_status
  moved("link down");
  net->set_link_state(trunk, false);
  unchanged("link already down");
  net->set_link_state(trunk, true);
  moved("link up");
  net->set_switch_state(DatapathId{3}, false);
  moved("switch down");
  // The link already went down with s3; operator intent alone is not read
  // by any walk.
  net->set_link_state(trunk, false);
  unchanged("admin down of a link that is already down");
  net->set_link_state(trunk, true);
  unchanged("admin up of a link whose far end is dead");
  net->set_switch_state(DatapathId{3}, true);
  moved("switch up");
  net->add_switch(DatapathId{9}, 2);
  moved("add_switch");
  net->add_link({DatapathId{9}, PortNo{1}}, {DatapathId{1}, PortNo{2}});
  moved("add_link");
  net->add_host(MacAddress::from_uint64(0x99), IpV4{0x0A000099}, {DatapathId{9}, PortNo{2}});
  moved("add_host");
  // Changes made on a switch directly, bypassing the network's setters.
  SimSwitch& sw = *net->switch_at(DatapathId{2});
  sw.set_up(false);
  moved("SimSwitch::set_up");
  sw.set_up(true);
  moved("SimSwitch::set_up");
  sw.add_port(PortNo{7});
  moved("SimSwitch::add_port");
  sw.cold_restart();
  moved("SimSwitch::cold_restart");
  // Flow tables have generations of their own; traffic and expiry-free
  // flow-mods leave the topology alone.
  net->send_to_switch({1, forward_rule(DatapathId{1}, net->hosts()[2].mac, PortNo{3})});
  net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 2));
  net->advance_time(std::chrono::seconds(1));
  unchanged("flow-mod, traffic and time");
}

TEST(Counters, PacketOutResumeCountsInTotals) {
  auto net = Network::linear(1, 2); // one switch, hosts on ports 1 and 2
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  auto res = net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kPunted);
  EXPECT_EQ(net->totals().punted, 1u);
  EXPECT_EQ(net->totals().delivered, 0u);
  ASSERT_EQ(nb.size(), 1u);
  const auto* pin = nb[0].get_if<of::PacketIn>();
  ASSERT_NE(pin, nullptr);
  // The controller resumes the buffered packet out the destination port.
  of::PacketOut po;
  po.dpid = pin->dpid;
  po.buffer_id = pin->buffer_id;
  po.in_port = pin->in_port;
  po.actions = of::output_to(PortNo{2});
  res = net->send_to_switch({1, po});
  EXPECT_EQ(res.outcome, DeliveryResult::Outcome::kDelivered);
  EXPECT_EQ(net->hosts()[1].rx_packets, 1u);
  EXPECT_EQ(net->totals().resumed_delivered, 1u);
  EXPECT_EQ(net->totals().delivered, 0u); // first-pass count is untouched
}

TEST(Topology, FatTreeRejectsInvalidK) {
  EXPECT_EQ(Network::fat_tree(3), nullptr);
  EXPECT_EQ(Network::fat_tree(0), nullptr);
  EXPECT_NE(Network::fat_tree(2), nullptr);
}

TEST(Topology, RandomRejectsTooFewSwitches) {
  EXPECT_EQ(Network::random(1, 0, 1, 7), nullptr);
  EXPECT_NE(Network::random(2, 0, 1, 7), nullptr);
}

TEST(Timeouts, AdvanceTimeExpiresFlows) {
  auto net = Network::linear(1, 2);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  of::FlowMod mod = forward_rule(DatapathId{1}, net->hosts()[1].mac, PortNo{2});
  mod.hard_timeout = 3;
  mod.send_flow_removed = true;
  net->send_to_switch({1, mod});
  net->advance_time(std::chrono::seconds(2));
  EXPECT_TRUE(nb.empty());
  net->advance_time(std::chrono::seconds(2));
  ASSERT_EQ(nb.size(), 1u);
  const auto* fr = nb[0].get_if<of::FlowRemoved>();
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->reason, of::FlowRemovedReason::kHardTimeout);
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
}

// The network-level expiry heap must fire each switch at its own deadline,
// in deadline order, without rescanning idle switches.
TEST(Timeouts, BatchExpiryFiresPerSwitchDeadlines) {
  auto net = Network::linear(4, 1);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  // Distinct hard timeouts per switch: 2s, 4s, 6s, 8s.
  for (std::size_t i = 0; i < 4; ++i) {
    of::FlowMod mod = forward_rule(DatapathId{i + 1}, net->hosts()[0].mac, PortNo{1});
    mod.hard_timeout = static_cast<std::uint16_t>(2 * (i + 1));
    mod.send_flow_removed = true;
    net->send_to_switch({1, mod});
  }
  // Many idle ticks before anything is due.
  for (int i = 0; i < 10; ++i) net->advance_time(std::chrono::milliseconds(100));
  EXPECT_TRUE(nb.empty());
  // Each 2s step expires exactly the next switch's flow.
  for (std::size_t i = 0; i < 4; ++i) {
    net->advance_time(std::chrono::seconds(2));
    ASSERT_EQ(nb.size(), i + 1) << "after step " << i;
    const auto* fr = nb[i].get_if<of::FlowRemoved>();
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->dpid, DatapathId{i + 1});
    EXPECT_TRUE(net->switch_at(DatapathId{i + 1})->table().empty());
  }
}

// One coarse jump past several deadlines must expire all due switches in a
// single advance_time call, lowest dpid first on equal-tick pops.
TEST(Timeouts, BatchExpiryHandlesOneBigJump) {
  auto net = Network::linear(3, 1);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  for (std::size_t i = 0; i < 3; ++i) {
    of::FlowMod mod = forward_rule(DatapathId{i + 1}, net->hosts()[0].mac, PortNo{1});
    mod.hard_timeout = static_cast<std::uint16_t>(1 + i);
    mod.send_flow_removed = true;
    net->send_to_switch({1, mod});
  }
  net->advance_time(std::chrono::seconds(60));
  ASSERT_EQ(nb.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto* fr = nb[i].get_if<of::FlowRemoved>();
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->dpid, DatapathId{i + 1}) << "pop order at " << i;
  }
}

// Down switches must not expire flows while down: no flow-removed, entry
// still present. Revival cold-restarts the switch (table cleared), so the
// stale heap record must not fire afterwards either.
TEST(Timeouts, DownSwitchDoesNotExpireFlowsWhileDown) {
  auto net = Network::linear(2, 1);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  of::FlowMod mod = forward_rule(DatapathId{1}, net->hosts()[1].mac, PortNo{3});
  mod.hard_timeout = 3;
  mod.send_flow_removed = true;
  net->send_to_switch({1, mod});

  net->set_switch_state(DatapathId{1}, false);
  nb.clear(); // drop the port-status noise from the switch going down
  net->advance_time(std::chrono::seconds(10));
  // Way past the deadline: the down switch kept its entry and said nothing.
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  for (const auto& m2 : nb) EXPECT_EQ(m2.get_if<of::FlowRemoved>(), nullptr);

  net->set_switch_state(DatapathId{1}, true); // cold restart wipes the table
  nb.clear();
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
  net->advance_time(std::chrono::seconds(10));
  for (const auto& m2 : nb) EXPECT_EQ(m2.get_if<of::FlowRemoved>(), nullptr);
}

// Idle-timeout refresh: traffic keeps a flow alive past its original armed
// deadline; the heap's stale record must re-arm, not expire early.
TEST(Timeouts, IdleRefreshSurvivesStaleHeapRecord) {
  auto net = Network::linear(1, 2);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  of::FlowMod mod = forward_rule(DatapathId{1}, net->hosts()[1].mac, PortNo{2});
  mod.idle_timeout = 3;
  mod.send_flow_removed = true;
  net->send_to_switch({1, mod});
  // Touch the flow every 2s: never idle long enough to expire.
  for (int i = 0; i < 5; ++i) {
    net->advance_time(std::chrono::seconds(2));
    net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  }
  EXPECT_TRUE(nb.empty());
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  // Now go quiet: the flow idles out on schedule.
  net->advance_time(std::chrono::seconds(4));
  ASSERT_EQ(nb.size(), 1u);
  const auto* fr = nb[0].get_if<of::FlowRemoved>();
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->reason, of::FlowRemovedReason::kIdleTimeout);
}

TEST(Counters, PortCountersTrackTraffic) {
  auto net = Network::linear(2, 1);
  const MacAddress dst = net->hosts()[1].mac;
  net->send_to_switch({1, forward_rule(DatapathId{1}, dst, PortNo{3})});
  net->send_to_switch({2, forward_rule(DatapathId{2}, dst, PortNo{1})});
  auto pkt = host_packet(*net, 0, 1);
  pkt.size_bytes = 500;
  net->inject_from_host(net->hosts()[0].mac, pkt);
  const SimSwitch* s1 = net->switch_at(DatapathId{1});
  EXPECT_EQ(s1->port(PortNo{1})->rx_packets, 1u);
  EXPECT_EQ(s1->port(PortNo{1})->rx_bytes, 500u);
  EXPECT_EQ(s1->port(PortNo{3})->tx_packets, 1u);
  const SimSwitch* s2 = net->switch_at(DatapathId{2});
  EXPECT_EQ(s2->port(PortNo{2})->rx_packets, 1u);
}

TEST(Traffic, PatternsProduceValidHostPairs) {
  auto net = Network::fat_tree(4);
  for (auto pattern :
       {TrafficGenerator::Pattern::kUniformRandom, TrafficGenerator::Pattern::kStride,
        TrafficGenerator::Pattern::kIncast, TrafficGenerator::Pattern::kHotspot}) {
    TrafficGenerator gen(*net, pattern, 42);
    for (int i = 0; i < 200; ++i) {
      const Flow f = gen.next_flow();
      EXPECT_NE(f.src, f.dst);
      EXPECT_NE(net->host_by_mac(f.src), nullptr);
      EXPECT_NE(net->host_by_mac(f.dst), nullptr);
    }
  }
}

TEST(Traffic, IncastTargetsHostZero) {
  auto net = Network::linear(4, 1);
  TrafficGenerator gen(*net, TrafficGenerator::Pattern::kIncast, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(gen.next_flow().dst, net->hosts()[0].mac);
  }
}

TEST(Traffic, BatchRepeatsFlows) {
  auto net = Network::linear(2, 1);
  TrafficGenerator gen(*net, TrafficGenerator::Pattern::kUniformRandom, 3);
  auto batch = gen.batch(10, 3);
  EXPECT_EQ(batch.size(), 30u);
  // Packets of the same flow share src/dst headers.
  for (std::size_t i = 0; i < batch.size(); i += 3) {
    EXPECT_EQ(batch[i].second.hdr.eth_dst, batch[i + 1].second.hdr.eth_dst);
    EXPECT_EQ(batch[i + 1].second.hdr.eth_dst, batch[i + 2].second.hdr.eth_dst);
  }
  // Deterministic across same-seeded generators.
  TrafficGenerator gen2(*net, TrafficGenerator::Pattern::kUniformRandom, 3);
  auto batch2 = gen2.batch(10, 3);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].second, batch2[i].second);
  }
}

TEST(Totals, OutcomeAccounting) {
  auto net = Network::linear(2, 1);
  net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1)); // punt
  of::FlowMod drop;
  drop.dpid = DatapathId{1};
  drop.match = of::Match::any();
  drop.priority = 0xFFFF;
  net->send_to_switch({1, drop});
  net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1)); // drop
  EXPECT_EQ(net->totals().injected, 2u);
  EXPECT_EQ(net->totals().punted, 1u);
  EXPECT_EQ(net->totals().dropped, 1u);
}

} // namespace
} // namespace legosdn::netsim
