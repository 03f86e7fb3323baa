// OpenFlow substrate tests: match semantics (including a subsumption
// property sweep), actions and message classification. The byte encoding
// is tested in wire10_test.cpp.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace legosdn::of {
namespace {

using legosdn::test::MessageGen;

PacketHeader sample_header() {
  PacketHeader h;
  h.eth_src = MacAddress::from_uint64(0x111111);
  h.eth_dst = MacAddress::from_uint64(0x222222);
  h.eth_type = kEthTypeIpv4;
  h.ip_src = IpV4::from_octets(10, 0, 0, 1);
  h.ip_dst = IpV4::from_octets(10, 0, 0, 2);
  h.ip_proto = kIpProtoTcp;
  h.tp_src = 1000;
  h.tp_dst = 80;
  return h;
}

TEST(Match, AnyMatchesEverything) {
  const Match m = Match::any();
  EXPECT_TRUE(m.matches(PortNo{1}, sample_header()));
  PacketHeader other = sample_header();
  other.eth_type = kEthTypeArp;
  EXPECT_TRUE(m.matches(PortNo{7}, other));
}

TEST(Match, ExactMatchesOnlyIdenticalHeader) {
  const PacketHeader h = sample_header();
  const Match m = Match::exact(PortNo{3}, h);
  EXPECT_TRUE(m.matches(PortNo{3}, h));
  EXPECT_FALSE(m.matches(PortNo{4}, h));
  PacketHeader changed = h;
  changed.tp_dst = 81;
  EXPECT_FALSE(m.matches(PortNo{3}, changed));
}

TEST(Match, SingleFieldConstraints) {
  const PacketHeader h = sample_header();
  EXPECT_TRUE(Match{}.with_eth_dst(h.eth_dst).matches(PortNo{1}, h));
  EXPECT_FALSE(
      Match{}.with_eth_dst(MacAddress::from_uint64(0x999)).matches(PortNo{1}, h));
  EXPECT_TRUE(Match{}.with_tp_dst(80).matches(PortNo{1}, h));
  EXPECT_FALSE(Match{}.with_tp_dst(443).matches(PortNo{1}, h));
}

TEST(Match, IpPrefixMatching) {
  PacketHeader h = sample_header();
  h.ip_dst = IpV4::from_octets(192, 168, 4, 77);
  EXPECT_TRUE(Match{}
                  .with_ip_dst(IpV4::from_octets(192, 168, 0, 0), 16)
                  .matches(PortNo{1}, h));
  EXPECT_FALSE(Match{}
                   .with_ip_dst(IpV4::from_octets(192, 169, 0, 0), 16)
                   .matches(PortNo{1}, h));
  EXPECT_TRUE(Match{}
                  .with_ip_dst(IpV4::from_octets(0, 0, 0, 0), 0)
                  .matches(PortNo{1}, h)); // /0 covers all
  EXPECT_FALSE(Match{}
                   .with_ip_dst(IpV4::from_octets(192, 168, 4, 78), 32)
                   .matches(PortNo{1}, h));
}

TEST(Match, SubsumesBasics) {
  const Match any = Match::any();
  const Match dst = Match{}.with_eth_dst(MacAddress::from_uint64(1));
  const Match dst_and_port = Match{}
                                 .with_eth_dst(MacAddress::from_uint64(1))
                                 .with_tp_dst(80);
  EXPECT_TRUE(any.subsumes(dst));
  EXPECT_TRUE(any.subsumes(any));
  EXPECT_FALSE(dst.subsumes(any));
  EXPECT_TRUE(dst.subsumes(dst_and_port));
  EXPECT_FALSE(dst_and_port.subsumes(dst));
  const Match other_dst = Match{}.with_eth_dst(MacAddress::from_uint64(2));
  EXPECT_FALSE(dst.subsumes(other_dst));
}

TEST(Match, SubsumesWithPrefixes) {
  const Match wide = Match{}.with_ip_dst(IpV4::from_octets(10, 0, 0, 0), 8);
  const Match narrow = Match{}.with_ip_dst(IpV4::from_octets(10, 1, 0, 0), 16);
  EXPECT_TRUE(wide.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wide));
  const Match outside = Match{}.with_ip_dst(IpV4::from_octets(11, 0, 0, 0), 16);
  EXPECT_FALSE(wide.subsumes(outside));
}

// Property: if a subsumes b, every header matching b also matches a.
TEST(MatchProperty, SubsumptionImpliesMatchCoverage) {
  MessageGen gen(777);
  int checked = 0;
  for (int i = 0; i < 3000; ++i) {
    const Match a = gen.random_match();
    // Half the time derive b by narrowing a (guaranteed-subsumed candidates);
    // otherwise draw independently so false positives get probed too.
    Match b = (i % 2 == 0) ? a : gen.random_match();
    if (i % 2 == 0) {
      if (b.wildcarded(kWcTpDst)) b.with_tp_dst(80);
      if (b.wildcarded(kWcEthDst)) b.with_eth_dst(MacAddress::from_uint64(7));
    }
    if (!a.subsumes(b)) continue;
    // Synthesize headers that b accepts and verify a accepts them too.
    for (int j = 0; j < 5; ++j) {
      PacketHeader h = gen.random_header();
      // Force header to satisfy b's constrained fields.
      if (!b.wildcarded(kWcEthSrc)) h.eth_src = b.eth_src;
      if (!b.wildcarded(kWcEthDst)) h.eth_dst = b.eth_dst;
      if (!b.wildcarded(kWcEthType)) h.eth_type = b.eth_type;
      if (!b.wildcarded(kWcIpSrc)) h.ip_src = b.ip_src;
      if (!b.wildcarded(kWcIpDst)) h.ip_dst = b.ip_dst;
      if (!b.wildcarded(kWcIpProto)) h.ip_proto = b.ip_proto;
      if (!b.wildcarded(kWcTpSrc)) h.tp_src = b.tp_src;
      if (!b.wildcarded(kWcTpDst)) h.tp_dst = b.tp_dst;
      const PortNo port = b.wildcarded(kWcInPort) ? PortNo{9} : b.in_port;
      if (b.matches(port, h)) {
        EXPECT_TRUE(a.matches(port, h))
            << "a=" << a.to_string() << " b=" << b.to_string();
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100); // the sweep actually exercised the property
}

TEST(Actions, EmptyListIsDrop) {
  EXPECT_EQ(to_string(ActionList{}), "[drop]");
}

TEST(Messages, TypeNames) {
  EXPECT_EQ(type_name(MessageBody{Hello{}}), "hello");
  EXPECT_EQ(type_name(MessageBody{FlowMod{}}), "flow-mod");
  EXPECT_EQ(type_name(MessageBody{PacketIn{}}), "packet-in");
  EXPECT_EQ(type_name(MessageBody{BarrierReply{}}), "barrier-reply");
}

TEST(Messages, StateChangingClassification) {
  EXPECT_TRUE(is_state_changing(MessageBody{FlowMod{}}));
  EXPECT_FALSE(is_state_changing(MessageBody{PacketOut{}}));
  EXPECT_FALSE(is_state_changing(MessageBody{StatsRequest{}}));
  EXPECT_FALSE(is_state_changing(MessageBody{Hello{}}));
}

} // namespace
} // namespace legosdn::of
