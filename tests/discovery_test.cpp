// LinkDiscovery tests: probe encoding, topology discovery on several shapes
// (in-process and over the OF 1.0 wire), reaction to failures, and bootstrap
// of the router from discovered links.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/link_discovery.hpp"
#include "apps/shortest_path_router.hpp"
#include "controller/controller.hpp"
#include "helpers.hpp"
#include "southbound/southbound_bridge.hpp"

namespace legosdn::apps {
namespace {

TEST(Probe, EncodeDecodeRoundTrip) {
  for (const std::uint64_t dpid : {1ull, 255ull, 0xDEADBEEFull, 0x1122334455ull}) {
    for (const std::uint16_t port : {1, 7, 48}) {
      const of::Packet probe = LinkDiscovery::make_probe(DatapathId{dpid}, PortNo{port});
      PortLocator origin;
      ASSERT_TRUE(LinkDiscovery::decode_probe(probe.hdr, &origin));
      EXPECT_EQ(origin.dpid, DatapathId{dpid});
      EXPECT_EQ(origin.port, PortNo{port});
    }
  }
}

TEST(Probe, OrdinaryPacketsAreNotProbes) {
  PortLocator origin;
  EXPECT_FALSE(LinkDiscovery::decode_probe(
      legosdn::test::packet_between(MacAddress::from_uint64(1),
                                    MacAddress::from_uint64(2))
          .hdr,
      &origin));
}

std::size_t expected_bidir_links(const netsim::Network& net) { return net.links().size(); }

class DiscoveryOnTopology : public ::testing::TestWithParam<int> {
protected:
  std::unique_ptr<netsim::Network> make_net() const {
    switch (GetParam()) {
      case 0: return netsim::Network::linear(4, 1);
      case 1: return netsim::Network::ring(5, 1);
      case 2: return netsim::Network::star(4, 1);
      default: return netsim::Network::fat_tree(4);
    }
  }

  static void expect_every_link(const netsim::Network& net, const LinkDiscovery& disc) {
    // Every physical link discovered in both directions.
    EXPECT_EQ(disc.link_count(), 2 * expected_bidir_links(net));
    EXPECT_EQ(disc.bidirectional_links().size(), expected_bidir_links(net));
    // Each discovered link corresponds to a real link.
    for (const auto& l : disc.links()) {
      const PortLocator* peer = net.link_peer(l.src);
      ASSERT_NE(peer, nullptr) << l.src.to_string();
      EXPECT_EQ(*peer, l.dst);
    }
  }
};

TEST_P(DiscoveryOnTopology, DiscoversEveryLinkBothWays) {
  auto net = make_net();
  ctl::Controller c(*net);
  auto disc = std::make_shared<LinkDiscovery>();
  c.register_app(disc);
  c.start();
  while (c.run() > 0) {
  }
  expect_every_link(*net, *disc);
}

// Over real sockets a probe crosses the OF 1.0 wire twice (packet-out, then
// packet-in), so the origin it carries in non-IPv4 L3/L4 fields must survive
// frame synthesis both ways.
TEST_P(DiscoveryOnTopology, DiscoversEveryLinkOverTheWire) {
  auto net = make_net();
  ctl::Controller c(*net);
  auto disc = std::make_shared<LinkDiscovery>();
  c.register_app(disc);
  southbound::SouthboundBridge bridge(*net, c);
  ASSERT_TRUE(bridge.start().ok());
  c.start();
  bridge.settle();
  expect_every_link(*net, *disc);
}

INSTANTIATE_TEST_SUITE_P(Topologies, DiscoveryOnTopology, ::testing::Values(0, 1, 2, 3));

TEST(Discovery, LinkDownRemovesBothDirections) {
  auto net = netsim::Network::linear(3, 1);
  ctl::Controller c(*net);
  auto disc = std::make_shared<LinkDiscovery>();
  c.register_app(disc);
  c.start();
  while (c.run() > 0) {
  }
  ASSERT_EQ(disc->link_count(), 4u); // 2 links x 2 directions
  net->set_link_state({DatapathId{1}, PortNo{3}}, false);
  while (c.run() > 0) {
  }
  EXPECT_EQ(disc->link_count(), 2u);
  // Re-probing on link-up rediscovers it.
  net->set_link_state({DatapathId{1}, PortNo{3}}, true);
  while (c.run() > 0) {
  }
  EXPECT_EQ(disc->link_count(), 4u);
}

TEST(Discovery, SwitchDownRemovesItsLinks) {
  auto net = netsim::Network::star(3, 1);
  ctl::Controller c(*net);
  auto disc = std::make_shared<LinkDiscovery>();
  c.register_app(disc);
  c.start();
  while (c.run() > 0) {
  }
  ASSERT_EQ(disc->bidirectional_links().size(), 3u);
  net->set_switch_state(DatapathId{1}, false); // the core dies
  while (c.run() > 0) {
  }
  EXPECT_EQ(disc->link_count(), 0u);
}

TEST(Discovery, ProbesDoNotLeakToOtherApps) {
  auto net = netsim::Network::linear(2, 1);
  ctl::Controller c(*net);
  auto disc = std::make_shared<LinkDiscovery>();
  auto rec = std::make_shared<legosdn::test::RecorderApp>(
      "rec", std::vector<ctl::EventType>{ctl::EventType::kPacketIn});
  c.register_app(disc); // discovery first: consumes probes
  c.register_app(rec);
  c.start();
  while (c.run() > 0) {
  }
  EXPECT_TRUE(rec->events.empty());
  // Ordinary traffic still reaches the recorder.
  net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));
  while (c.run() > 0) {
  }
  EXPECT_FALSE(rec->events.empty());
}

TEST(Discovery, StateSnapshotRoundTrip) {
  auto net = netsim::Network::ring(4, 1);
  ctl::Controller c(*net);
  auto disc = std::make_shared<LinkDiscovery>();
  c.register_app(disc);
  c.start();
  while (c.run() > 0) {
  }
  const auto count = disc->link_count();
  ASSERT_GT(count, 0u);
  const auto state = disc->snapshot_state();
  disc->reset();
  EXPECT_EQ(disc->link_count(), 0u);
  disc->restore_state(state);
  EXPECT_EQ(disc->link_count(), count);
}

// The bootstrap the paper's ecosystem assumes: discovery feeds routing.
TEST(Discovery, BootstrapsShortestPathRouter) {
  auto net = netsim::Network::ring(4, 1);
  ctl::Controller c(*net);
  auto disc = std::make_shared<LinkDiscovery>();
  c.register_app(disc);
  c.start();
  while (c.run() > 0) {
  }

  // Phase 2: construct the router from the *discovered* topology.
  std::vector<ShortestPathRouter::LinkInfo> links;
  for (const auto& [a, b] : disc->bidirectional_links()) links.push_back({a, b});
  ASSERT_EQ(links.size(), 4u);
  auto router = std::make_shared<ShortestPathRouter>(links);
  c.register_app(router);
  c.start(); // re-announce so the router sees switch features
  while (c.run() > 0) {
  }

  auto send = [&](std::size_t s, std::size_t d) {
    const auto before = net->hosts()[d].rx_packets;
    net->inject_from_host(net->hosts()[s].mac, legosdn::test::host_packet(*net, s, d));
    while (c.run() > 0) {
    }
    return net->host_by_mac(net->hosts()[d].mac)->rx_packets > before;
  };
  EXPECT_TRUE(send(0, 2));
  EXPECT_TRUE(send(2, 0));
  EXPECT_TRUE(send(0, 2));
  EXPECT_EQ(router->known_hosts(), 2u);
}

} // namespace
} // namespace legosdn::apps
