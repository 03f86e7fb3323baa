// SDN application tests: each app end-to-end against the simulator via the
// monolithic controller, plus the fault-injection wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "apps/fault_injection.hpp"
#include "apps/firewall.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "apps/load_balancer.hpp"
#include "apps/shortest_path_router.hpp"
#include "appvisor/isolation.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "helpers.hpp"

namespace legosdn::apps {
namespace {

using legosdn::test::host_packet;

std::vector<ShortestPathRouter::LinkInfo> discover_links(const netsim::Network& net) {
  std::vector<ShortestPathRouter::LinkInfo> out;
  for (const auto& l : net.links()) out.push_back({l.a, l.b});
  return out;
}

/// Send one packet host->host through the controller loop; returns delivery.
bool send_and_pump(netsim::Network& net, ctl::Controller& c, std::size_t src,
                   std::size_t dst, std::uint16_t tp_dst = 80) {
  const auto before = net.host_by_mac(net.hosts()[dst].mac)->rx_packets;
  net.inject_from_host(net.hosts()[src].mac, host_packet(net, src, dst, tp_dst));
  // Pump until quiescent: floods can trigger cascading punts.
  while (c.run() > 0) {
  }
  return net.host_by_mac(net.hosts()[dst].mac)->rx_packets > before;
}

TEST(Hub, FloodsWithoutInstallingRules) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  c.register_app(std::make_shared<Hub>());
  c.start();
  c.run();
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
  // Every packet punts again: the hub never offloads.
  const auto punts_before = net->totals().punted;
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_GT(net->totals().punted, punts_before);
}

TEST(Flooder, InstallsFloodRulesOnSwitchUp) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  c.register_app(std::make_shared<Flooder>());
  c.start();
  c.run();
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  EXPECT_EQ(net->switch_at(DatapathId{2})->table().size(), 1u);
  // With flood rules installed, traffic flows without any punts.
  const auto punts_before = net->totals().punted;
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_EQ(net->totals().punted, punts_before);
}

TEST(LearningSwitch, LearnsThenInstallsForwardingRules) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  auto ls = std::make_shared<LearningSwitch>();
  c.register_app(ls);
  c.start();
  c.run();

  // First exchange floods and learns; the next forward send installs the
  // exact-match rules along the path.
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0)); // reverse: now both sides known
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1)); // installs 0->1 rules
  EXPECT_GT(ls->learned(), 0u);

  // Subsequent packets of the same flow ride installed rules, no controller.
  const auto punts_before = net->totals().punted;
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
  EXPECT_EQ(net->totals().punted, punts_before);
  EXPECT_FALSE(net->switch_at(DatapathId{1})->table().empty());
}

TEST(LearningSwitch, StateSnapshotRoundTrip) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  auto ls = std::make_shared<LearningSwitch>();
  c.register_app(ls);
  c.start();
  c.run();
  send_and_pump(*net, c, 0, 1);
  send_and_pump(*net, c, 1, 0);
  const auto learned = ls->learned();
  ASSERT_GT(learned, 0u);
  const auto state = ls->snapshot_state();

  ls->reset();
  EXPECT_EQ(ls->learned(), 0u);
  ls->restore_state(state);
  EXPECT_EQ(ls->learned(), learned);
  const PortNo* port = ls->lookup(DatapathId{1}, net->hosts()[0].mac);
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(*port, PortNo{1});
}

TEST(LearningSwitch, ForgetsOnSwitchDownAndPortDown) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  auto ls = std::make_shared<LearningSwitch>();
  c.register_app(ls);
  c.start();
  c.run();
  send_and_pump(*net, c, 0, 1);
  send_and_pump(*net, c, 1, 0);
  ASSERT_GT(ls->learned(), 0u);
  net->set_switch_state(DatapathId{1}, false);
  c.run();
  EXPECT_EQ(ls->lookup(DatapathId{1}, net->hosts()[0].mac), nullptr);
}

/// The table and encoder LearningSwitch had before it kept its table sorted:
/// a hash map, copied and sorted by (dpid, mac) on every snapshot.
struct CopyAndSortTable {
  using Key = std::pair<std::uint64_t, std::uint64_t>; ///< (dpid, mac)
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(k.first * 0x9E3779B97F4A7C15ULL ^ k.second);
    }
  };
  std::unordered_map<Key, std::uint16_t, KeyHash> table;

  void apply(const ctl::Event& e) {
    if (const auto* down = std::get_if<ctl::SwitchDown>(&e)) {
      std::erase_if(table,
                    [&](const auto& kv) { return kv.first.first == raw(down->dpid); });
    } else if (const auto* ps = std::get_if<of::PortStatus>(&e)) {
      if (!ps->desc.link_up)
        std::erase_if(table, [&](const auto& kv) {
          return kv.first.first == raw(ps->dpid) && kv.second == raw(ps->desc.port);
        });
    } else if (const auto* pin = std::get_if<of::PacketIn>(&e)) {
      if (!pin->packet.hdr.eth_src.is_multicast())
        table[{raw(pin->dpid), pin->packet.hdr.eth_src.to_uint64()}] = raw(pin->in_port);
    }
  }

  std::vector<std::uint8_t> encode() const {
    std::vector<std::pair<Key, std::uint16_t>> entries(table.begin(), table.end());
    std::sort(entries.begin(), entries.end());
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [k, port] : entries) {
      w.u64(k.first);
      w.mac(MacAddress::from_uint64(k.second));
      w.u16(port);
    }
    return std::move(w).take();
  }
};

// Stored snapshots, the perfbench oracle and the sharded union checks all
// compare these bytes, so the sorted table must encode exactly as before.
TEST(LearningSwitch, SnapshotMatchesCopyAndSortEncoder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    LearningSwitch ls;
    CopyAndSortTable ref;
    std::uint32_t xid = 1;
    for (int i = 0; i < 3000; ++i) {
      const DatapathId dpid{rng.below(6) + 1};
      ctl::Event e;
      const std::uint64_t kind = rng.below(100);
      if (kind < 2) {
        e = ctl::SwitchDown{dpid};
      } else if (kind < 6) {
        of::PortStatus ps;
        ps.dpid = dpid;
        ps.desc.port = PortNo{static_cast<std::uint16_t>(rng.below(8) + 1)};
        ps.desc.link_up = rng.chance(0.3);
        e = ps;
      } else {
        of::PacketIn pin;
        pin.dpid = dpid;
        pin.in_port = PortNo{static_cast<std::uint16_t>(rng.below(8) + 1)};
        // A few multicast sources (never learned), a small pool that is
        // relearned on new ports, and full-width unicast MACs.
        std::uint64_t src = rng.next() & 0xFEFFFFFFFFFFULL;
        if (rng.chance(0.05)) {
          src = 0x010000000000ULL | rng.below(16);
        } else if (rng.chance(0.5)) {
          src = rng.below(400);
        }
        pin.packet = test::packet_between(MacAddress::from_uint64(src),
                                          MacAddress::from_uint64(rng.below(400)));
        e = pin;
      }
      appvisor::CollectingServiceApi api(kSimStart, &xid);
      ls.handle_event(e, api);
      ref.apply(e);
      ASSERT_EQ(ls.snapshot_state(), ref.encode()) << "seed " << seed << " event " << i;
    }
    ASSERT_GT(ls.learned(), 100u) << "seed " << seed;

    // restore_state takes records in any order and keeps the last of a
    // duplicated key, as the hash map did; the snapshot is canonical again.
    const auto state = ref.encode();
    std::vector<std::array<std::uint8_t, 16>> recs((state.size() - 4) / 16);
    std::memcpy(recs.data(), state.data() + 4, recs.size() * 16);
    std::reverse(recs.begin(), recs.end());
    recs.push_back(recs.front());
    recs.back()[15] ^= 1; // same (dpid, mac), another port
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(recs.size()));
    for (const auto& rec : recs) w.bytes(rec);
    ls.reset();
    ls.restore_state(w.data());
    ByteReader dup(recs.back());
    const std::uint64_t dup_dpid = dup.u64();
    const std::uint64_t dup_mac = dup.mac().to_uint64();
    ref.table[{dup_dpid, dup_mac}] = dup.u16();
    EXPECT_EQ(ls.snapshot_state(), ref.encode()) << "seed " << seed;
  }
}

// The size perfbench's isolated-learning state reaches: 1280 entries, one
// pass of 16-byte records behind the u32 count.
TEST(LearningSwitch, SnapshotOf1280EntriesMatchesCopyAndSortEncoder) {
  Rng rng(1280);
  LearningSwitch ls;
  CopyAndSortTable ref;
  std::uint32_t xid = 1;
  while (ls.learned() < 1280) {
    of::PacketIn pin;
    pin.dpid = DatapathId{rng.below(4) + 1};
    pin.in_port = PortNo{static_cast<std::uint16_t>(rng.below(64) + 1)};
    // Full-width unicast sources, so every MAC byte and port byte is exercised.
    pin.packet = test::packet_between(
        MacAddress::from_uint64(rng.next() & 0xFEFFFFFFFFFFULL),
        MacAddress::from_uint64(rng.below(400)));
    const ctl::Event e = pin;
    appvisor::CollectingServiceApi api(kSimStart, &xid);
    ls.handle_event(e, api);
    ref.apply(e);
  }
  const auto state = ls.snapshot_state();
  EXPECT_EQ(state.size(), 20484u);
  EXPECT_EQ(state, ref.encode());
  LearningSwitch back;
  back.restore_state(state);
  EXPECT_EQ(back.learned(), 1280u);
  EXPECT_EQ(back.snapshot_state(), state);
}

TEST(LearningSwitch, EmptyTableSnapshotIsTheZeroCount) {
  LearningSwitch ls;
  const auto state = ls.snapshot_state();
  EXPECT_EQ(state, (std::vector<std::uint8_t>{0, 0, 0, 0}));
  EXPECT_EQ(state, CopyAndSortTable{}.encode());
  ls.restore_state(state);
  EXPECT_EQ(ls.learned(), 0u);
}

// Regression (found by the scenario fuzzer): when the learned location of a
// packet's destination is the port the packet just arrived on, the copy is a
// flood echo from a neighbor that had forgotten the destination. Sending it
// back out the ingress port re-circulates it and teaches the upstream switch
// a wrong location for the source — the seed of post-churn forwarding loops.
TEST(LearningSwitch, DropsFloodEchoInsteadOfUturning) {
  auto net = netsim::Network::linear(4, 1);
  ctl::Controller c(*net);
  auto ls = std::make_shared<LearningSwitch>(30);
  c.register_app(ls);
  c.start();
  c.run();

  // Teach every switch where h4 lives (h4 -> h1 floods the whole line).
  EXPECT_TRUE(send_and_pump(*net, c, 3, 0));

  // Bounce s4: the app forgets s4's table (SwitchDown) and h4 behind s3's
  // now-dead port (PortStatus) — but s2 still remembers h4 via s3.
  net->set_switch_state(DatapathId{4}, false);
  c.run();
  net->set_switch_state(DatapathId{4}, true);
  c.run();

  // h3 -> h4: s3 no longer knows h4 and floods. The copy that reaches s2
  // matches s2's stale (and still correct) h4-via-s3 entry whose port is the
  // copy's own ingress — the echo must be dropped, not sent back.
  EXPECT_TRUE(send_and_pump(*net, c, 2, 3));

  // h3 must still be learned at its true attachment port on s3; pre-fix the
  // echo returned to s3 and overwrote it with the inter-switch port.
  const PortNo* h3_at_s3 = ls->lookup(DatapathId{3}, net->hosts()[2].mac);
  ASSERT_NE(h3_at_s3, nullptr);
  EXPECT_EQ(*h3_at_s3, PortNo{1});

  // And no switch may hold a U-turn rule (output == ingress port).
  for (const DatapathId dpid : net->switch_ids()) {
    for (const auto& e : net->switch_at(dpid)->table().entries()) {
      if (e.match.wildcarded(of::kWcInPort)) continue;
      EXPECT_FALSE(e.outputs_to(e.match.in_port))
          << "U-turn rule at s" << raw(dpid) << ": " << e.match.to_string();
    }
  }
}

TEST(Router, InstallsEndToEndPath) {
  auto net = netsim::Network::linear(4, 1);
  ctl::Controller c(*net);
  auto router = std::make_shared<ShortestPathRouter>(discover_links(*net));
  c.register_app(router);
  c.start();
  c.run();

  // First packets teach the router both host locations (via flood punts).
  send_and_pump(*net, c, 0, 3);
  EXPECT_TRUE(send_and_pump(*net, c, 3, 0));
  EXPECT_TRUE(send_and_pump(*net, c, 0, 3));
  EXPECT_EQ(router->known_hosts(), 2u);
  // Path rules present on every switch along the chain.
  for (std::uint64_t d = 1; d <= 4; ++d) {
    EXPECT_FALSE(net->switch_at(DatapathId{d})->table().empty()) << "s" << d;
  }
  // Steady state: no punts.
  const auto punts_before = net->totals().punted;
  EXPECT_TRUE(send_and_pump(*net, c, 0, 3));
  EXPECT_EQ(net->totals().punted, punts_before);
}

TEST(Router, ComputePathFindsShortestRoute) {
  auto net = netsim::Network::ring(5, 1);
  ShortestPathRouter router(discover_links(*net));
  // Ring of 5: s1 to s3 should take 2 hops (via s2), not 3 (via s5, s4).
  auto path = router.compute_path(DatapathId{1}, DatapathId{3}, PortNo{1});
  ASSERT_EQ(path.size(), 3u); // s1, s2, s3
  EXPECT_EQ(path[0].dpid, DatapathId{1});
  EXPECT_EQ(path[1].dpid, DatapathId{2});
  EXPECT_EQ(path[2].dpid, DatapathId{3});
}

TEST(Router, ReroutesAroundLinkFailure) {
  auto net = netsim::Network::ring(4, 1);
  ctl::Controller c(*net);
  auto router = std::make_shared<ShortestPathRouter>(discover_links(*net));
  c.register_app(router);
  c.start();
  c.run();
  send_and_pump(*net, c, 0, 1);
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0));
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));

  // Kill the direct s1-s2 link; the router must flush dead rules and
  // re-route the long way (s1-s4-s3-s2).
  net->set_link_state({DatapathId{1}, PortNo{3}}, false);
  c.run();
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1));
}

TEST(Router, StateSnapshotRoundTrip) {
  auto net = netsim::Network::linear(3, 1);
  ctl::Controller c(*net);
  auto router = std::make_shared<ShortestPathRouter>(discover_links(*net));
  c.register_app(router);
  c.start();
  c.run();
  send_and_pump(*net, c, 0, 2);
  send_and_pump(*net, c, 2, 0);
  const auto hosts_known = router->known_hosts();
  ASSERT_GT(hosts_known, 0u);
  const auto state = router->snapshot_state();
  router->reset();
  EXPECT_EQ(router->known_hosts(), 0u);
  router->restore_state(state);
  EXPECT_EQ(router->known_hosts(), hosts_known);
}

TEST(Firewall, ProactiveDropRulesAndChainStop) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  const of::Match deny = of::Match{}.with_tp_dst(666);
  auto fw = std::make_shared<Firewall>(std::vector<of::Match>{deny});
  auto ls = std::make_shared<LearningSwitch>();
  c.register_app(fw); // firewall first in the chain
  c.register_app(ls);
  c.start();
  c.run();
  // Proactive drop rules installed everywhere.
  for (auto d : net->switch_ids()) {
    EXPECT_EQ(net->switch_at(d)->table().size(), 1u);
  }
  // Allowed traffic works (learning switch handles it).
  EXPECT_TRUE(send_and_pump(*net, c, 0, 1, 80));
  EXPECT_TRUE(send_and_pump(*net, c, 1, 0, 80));
  // Denied traffic never arrives.
  EXPECT_FALSE(send_and_pump(*net, c, 0, 1, 666));
}

TEST(LoadBalancer, StickyRoundRobinBindings) {
  auto net = netsim::Network::star(3, 1);
  ctl::Controller c(*net);
  const IpV4 vip = IpV4::from_octets(10, 99, 0, 1);
  const MacAddress vmac = MacAddress::from_uint64(0xFEED);
  std::vector<LoadBalancer::Backend> backends{
      {net->hosts()[1].mac, net->hosts()[1].ip},
      {net->hosts()[2].mac, net->hosts()[2].ip},
  };
  auto lb = std::make_shared<LoadBalancer>(vip, vmac, backends);
  c.register_app(lb);
  // A forwarding app below the LB delivers the rewritten packets.
  c.register_app(std::make_shared<LearningSwitch>());
  c.start();
  c.run();

  // Client (host 0) sends to the VIP.
  of::Packet p = host_packet(*net, 0, 0);
  p.hdr.eth_dst = vmac;
  p.hdr.ip_dst = vip;
  const auto b1_before = net->hosts()[1].rx_packets;
  net->inject_from_host(net->hosts()[0].mac, p);
  while (c.run() > 0) {
  }
  EXPECT_EQ(lb->bindings(), 1u);
  const auto* bound = lb->binding_for(net->hosts()[0].mac);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(bound->mac, net->hosts()[1].mac); // first backend, round-robin
  EXPECT_GT(net->host_by_mac(net->hosts()[1].mac)->rx_packets, b1_before);

  // Second client binds to the second backend.
  of::Packet p2 = host_packet(*net, 2, 2);
  p2.hdr.eth_src = net->hosts()[2].mac;
  p2.hdr.eth_dst = vmac;
  p2.hdr.ip_dst = vip;
  net->inject_from_host(net->hosts()[2].mac, p2);
  while (c.run() > 0) {
  }
  const auto* bound2 = lb->binding_for(net->hosts()[2].mac);
  ASSERT_NE(bound2, nullptr);
  EXPECT_EQ(bound2->mac, net->hosts()[2].mac); // second backend is host 2
}

TEST(LoadBalancer, StateSnapshotRoundTrip) {
  std::vector<LoadBalancer::Backend> backends{
      {MacAddress::from_uint64(1), IpV4{1}}, {MacAddress::from_uint64(2), IpV4{2}}};
  LoadBalancer lb(IpV4{0x0A630001}, MacAddress::from_uint64(0xFEED), backends);
  // Synthesize bindings via events.
  auto net = netsim::Network::star(2, 1);
  ctl::Controller c(*net);
  of::PacketIn pin;
  pin.dpid = DatapathId{2};
  pin.in_port = PortNo{1};
  pin.packet.hdr.eth_src = MacAddress::from_uint64(0x42);
  pin.packet.hdr.ip_dst = IpV4{0x0A630001};
  lb.handle_event(ctl::Event{pin}, c);
  ASSERT_EQ(lb.bindings(), 1u);
  const auto state = lb.snapshot_state();
  lb.reset();
  EXPECT_EQ(lb.bindings(), 0u);
  lb.restore_state(state);
  EXPECT_EQ(lb.bindings(), 1u);
  EXPECT_EQ(lb.binding_for(MacAddress::from_uint64(0x42))->mac,
            MacAddress::from_uint64(1));
}

TEST(FaultInjection, TriggerMatchesFilters) {
  CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  t.on_dpid = DatapathId{3};
  of::PacketIn pin;
  pin.dpid = DatapathId{3};
  EXPECT_TRUE(t.matches(ctl::Event{pin}));
  pin.dpid = DatapathId{4};
  EXPECT_FALSE(t.matches(ctl::Event{pin}));
  EXPECT_FALSE(t.matches(ctl::Event{ctl::SwitchDown{DatapathId{3}}}));

  CrashTrigger port_t;
  port_t.on_tp_dst = 666;
  of::PacketIn evil;
  evil.packet.hdr.tp_dst = 666;
  EXPECT_TRUE(port_t.matches(ctl::Event{evil}));
  evil.packet.hdr.tp_dst = 80;
  EXPECT_FALSE(port_t.matches(ctl::Event{evil}));
}

TEST(FaultInjection, SkipFirstAndDeterminism) {
  CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  t.skip_first = 2;
  TriggerState st(t, 1);
  const ctl::Event e{of::PacketIn{}};
  EXPECT_FALSE(st.fire(e));
  EXPECT_FALSE(st.fire(e));
  EXPECT_TRUE(st.fire(e)); // third matching event fires
  EXPECT_TRUE(st.fire(e)); // deterministic: keeps firing
}

TEST(FaultInjection, TransientBugHealsAfterFirstFiring) {
  CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  t.deterministic = false;
  TriggerState st(t, 1);
  const ctl::Event e{of::PacketIn{}};
  EXPECT_TRUE(st.fire(e));
  EXPECT_FALSE(st.fire(e)); // healed
  EXPECT_TRUE(st.healed());
}

TEST(FaultInjection, CrashyAppThrowsOnTrigger) {
  CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  CrashyApp app(std::make_shared<Hub>(), t);
  auto net = netsim::Network::linear(1, 1);
  ctl::Controller c(*net);
  EXPECT_THROW(app.handle_event(ctl::Event{of::PacketIn{}}, c), ctl::AppCrash);
  // Non-matching events pass through to the inner hub.
  EXPECT_EQ(app.handle_event(ctl::Event{ctl::SwitchDown{}}, c),
            ctl::Disposition::kContinue);
}

TEST(FaultInjection, CrashyStateSurvivesSnapshotRestore) {
  CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  t.skip_first = 5;
  CrashyApp app(std::make_shared<apps::LearningSwitch>(), t);
  auto net = netsim::Network::linear(1, 1);
  ctl::Controller c(*net);
  app.handle_event(ctl::Event{of::PacketIn{}}, c);
  app.handle_event(ctl::Event{of::PacketIn{}}, c);
  EXPECT_EQ(app.trigger_state().matched(), 2u);
  const auto snap = app.snapshot_state();
  app.reset();
  EXPECT_EQ(app.trigger_state().matched(), 0u);
  app.restore_state(snap);
  EXPECT_EQ(app.trigger_state().matched(), 2u);
}

TEST(FaultInjection, ByzantineDropAllCorruptsNetwork) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  auto byz = std::make_shared<ByzantineApp>(std::make_shared<Hub>(), t,
                                            ByzantineApp::Mode::kDropAll);
  c.register_app(byz);
  c.start();
  c.run();
  net->inject_from_host(net->hosts()[0].mac, host_packet(*net, 0, 1));
  c.run();
  // A top-priority drop-all rule landed on s1.
  const auto& entries = net->switch_at(DatapathId{1})->table().entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].priority, 0xFFFF);
  EXPECT_TRUE(entries[0].actions.empty());
}

TEST(FaultInjection, StatefulAppStateScalesAndMutates) {
  StatefulApp app(1 << 16);
  auto net = netsim::Network::linear(1, 1);
  ctl::Controller c(*net);
  EXPECT_EQ(app.snapshot_state().size(), std::size_t{1 << 16});
  const auto before = app.snapshot_state();
  app.handle_event(ctl::Event{of::PacketIn{}}, c);
  EXPECT_NE(app.snapshot_state(), before);
  EXPECT_EQ(app.mutations(), 1u);
}

} // namespace
} // namespace legosdn::apps
