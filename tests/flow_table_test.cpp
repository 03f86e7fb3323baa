// FlowTable semantics: the OpenFlow 1.0 state machine NetLog inverts.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "netsim/flow_table.hpp"

namespace legosdn::netsim {
namespace {

using legosdn::test::MessageGen;

of::FlowMod add_rule(const of::Match& m, std::uint16_t prio, PortNo out,
                     std::uint16_t idle = 0, std::uint16_t hard = 0) {
  of::FlowMod mod;
  mod.match = m;
  mod.priority = prio;
  mod.idle_timeout = idle;
  mod.hard_timeout = hard;
  mod.actions = of::output_to(out);
  return mod;
}

of::PacketHeader header_to(const MacAddress& dst) {
  of::PacketHeader h;
  h.eth_src = MacAddress::from_uint64(0xAAA);
  h.eth_dst = dst;
  h.eth_type = of::kEthTypeIpv4;
  h.tp_dst = 80;
  return h;
}

TEST(FlowTable, AddAndMatch) {
  FlowTable t;
  const MacAddress dst = MacAddress::from_uint64(5);
  auto res = t.apply(add_rule(of::Match{}.with_eth_dst(dst), 100, PortNo{2}), kSimStart);
  EXPECT_TRUE(res.ok);
  ASSERT_EQ(res.added.size(), 1u);
  EXPECT_EQ(t.size(), 1u);
  const FlowEntry* hit = t.match_packet(PortNo{1}, header_to(dst), 64, kSimStart);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->packet_count, 1u);
  EXPECT_EQ(hit->byte_count, 64u);
  EXPECT_EQ(t.match_packet(PortNo{1}, header_to(MacAddress::from_uint64(6)), 64,
                           kSimStart),
            nullptr);
}

TEST(FlowTable, HigherPriorityWins) {
  FlowTable t;
  const MacAddress dst = MacAddress::from_uint64(5);
  t.apply(add_rule(of::Match::any(), 10, PortNo{1}), kSimStart);
  t.apply(add_rule(of::Match{}.with_eth_dst(dst), 200, PortNo{2}), kSimStart);
  const FlowEntry* hit = t.peek(PortNo{9}, header_to(dst));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 200);
  // Non-matching header falls to the wildcard rule.
  hit = t.peek(PortNo{9}, header_to(MacAddress::from_uint64(7)));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 10);
}

TEST(FlowTable, EqualPriorityTieBreaksByInsertionOrder) {
  FlowTable t;
  t.apply(add_rule(of::Match{}.with_tp_dst(80), 50, PortNo{1}), kSimStart);
  t.apply(add_rule(of::Match{}.with_ip_proto(of::kIpProtoTcp), 50, PortNo{2}),
          kSimStart);
  of::PacketHeader h = header_to(MacAddress::from_uint64(1));
  h.ip_proto = of::kIpProtoTcp;
  h.tp_dst = 80;
  const FlowEntry* hit = t.peek(PortNo{1}, h);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions, of::output_to(PortNo{1})); // first inserted wins
}

TEST(FlowTable, AddReplacesIdenticalFlowAndResetsCounters) {
  FlowTable t;
  const of::Match m = of::Match{}.with_tp_dst(80);
  t.apply(add_rule(m, 50, PortNo{1}), kSimStart);
  of::PacketHeader h = header_to(MacAddress::from_uint64(1));
  h.tp_dst = 80;
  t.match_packet(PortNo{1}, h, 100, kSimStart);
  EXPECT_EQ(t.entries()[0].packet_count, 1u);

  auto res = t.apply(add_rule(m, 50, PortNo{3}), from_ms(10));
  EXPECT_EQ(res.removed.size(), 1u); // the before-image of the replaced flow
  EXPECT_EQ(res.removed[0].packet_count, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].packet_count, 0u);
  EXPECT_EQ(t.entries()[0].actions, of::output_to(PortNo{3}));
}

TEST(FlowTable, CheckOverlapRejectsConflicts) {
  FlowTable t;
  t.apply(add_rule(of::Match{}.with_tp_dst(80), 50, PortNo{1}), kSimStart);
  of::FlowMod conflicting = add_rule(of::Match{}.with_ip_proto(of::kIpProtoTcp), 50,
                                     PortNo{2});
  conflicting.check_overlap = true;
  auto res = t.apply(conflicting, kSimStart);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(t.size(), 1u);
  // Different priority does not conflict.
  conflicting.priority = 60;
  EXPECT_TRUE(t.apply(conflicting, kSimStart).ok);
  // Disjoint matches at the same priority do not conflict either.
  of::FlowMod disjoint = add_rule(of::Match{}.with_tp_dst(443), 50, PortNo{2});
  disjoint.check_overlap = true;
  EXPECT_TRUE(t.apply(disjoint, kSimStart).ok);
}

TEST(FlowTable, ModifyUpdatesActionsPreservesCounters) {
  FlowTable t;
  const of::Match m = of::Match{}.with_tp_dst(80);
  t.apply(add_rule(m, 50, PortNo{1}), kSimStart);
  of::PacketHeader h = header_to(MacAddress::from_uint64(1));
  h.tp_dst = 80;
  t.match_packet(PortNo{1}, h, 100, kSimStart);

  of::FlowMod mod = add_rule(of::Match::any(), 0, PortNo{9});
  mod.command = of::FlowModCommand::kModify; // non-strict: covers our entry
  auto res = t.apply(mod, from_ms(5));
  EXPECT_EQ(res.modified.size(), 1u);
  EXPECT_EQ(res.modified[0].actions, of::output_to(PortNo{1})); // before-image
  EXPECT_EQ(t.entries()[0].actions, of::output_to(PortNo{9}));
  EXPECT_EQ(t.entries()[0].packet_count, 1u); // counters preserved
}

TEST(FlowTable, ModifyStrictRequiresExactIdentity) {
  FlowTable t;
  const of::Match m = of::Match{}.with_tp_dst(80);
  t.apply(add_rule(m, 50, PortNo{1}), kSimStart);

  of::FlowMod wrong_prio = add_rule(m, 60, PortNo{9});
  wrong_prio.command = of::FlowModCommand::kModifyStrict;
  auto res = t.apply(wrong_prio, kSimStart);
  // No strict match: behaves as an add (OF 1.0).
  EXPECT_EQ(res.added.size(), 1u);
  EXPECT_EQ(t.size(), 2u);

  of::FlowMod right = add_rule(m, 50, PortNo{9});
  right.command = of::FlowModCommand::kModifyStrict;
  res = t.apply(right, kSimStart);
  EXPECT_EQ(res.modified.size(), 1u);
}

TEST(FlowTable, DeleteNonStrictRemovesCoveredEntries) {
  FlowTable t;
  t.apply(add_rule(of::Match{}.with_tp_dst(80), 50, PortNo{1}), kSimStart);
  t.apply(add_rule(of::Match{}.with_tp_dst(443), 60, PortNo{2}), kSimStart);
  of::FlowMod del;
  del.command = of::FlowModCommand::kDelete;
  del.match = of::Match::any();
  auto res = t.apply(del, kSimStart);
  EXPECT_EQ(res.removed.size(), 2u);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTable, DeleteStrictRemovesOnlyIdenticalFlow) {
  FlowTable t;
  const of::Match m = of::Match{}.with_tp_dst(80);
  t.apply(add_rule(m, 50, PortNo{1}), kSimStart);
  t.apply(add_rule(m, 60, PortNo{2}), kSimStart);
  of::FlowMod del;
  del.command = of::FlowModCommand::kDeleteStrict;
  del.match = m;
  del.priority = 50;
  auto res = t.apply(del, kSimStart);
  EXPECT_EQ(res.removed.size(), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].priority, 60);
}

TEST(FlowTable, DeleteHonoursOutPortFilter) {
  FlowTable t;
  t.apply(add_rule(of::Match{}.with_tp_dst(80), 50, PortNo{1}), kSimStart);
  t.apply(add_rule(of::Match{}.with_tp_dst(443), 50, PortNo{2}), kSimStart);
  of::FlowMod del;
  del.command = of::FlowModCommand::kDelete;
  del.match = of::Match::any();
  del.out_port = PortNo{2};
  auto res = t.apply(del, kSimStart);
  ASSERT_EQ(res.removed.size(), 1u);
  EXPECT_EQ(res.removed[0].actions, of::output_to(PortNo{2}));
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, HardTimeoutExpiry) {
  FlowTable t;
  of::FlowMod mod = add_rule(of::Match::any(), 50, PortNo{1}, 0, /*hard=*/10);
  mod.send_flow_removed = true;
  t.apply(mod, kSimStart);
  EXPECT_TRUE(t.expire(from_ms(9'999)).empty());
  auto expired = t.expire(from_ms(10'000));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].reason, of::FlowRemovedReason::kHardTimeout);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTable, IdleTimeoutResetByTraffic) {
  FlowTable t;
  t.apply(add_rule(of::Match::any(), 50, PortNo{1}, /*idle=*/5), kSimStart);
  // Traffic at t=4s refreshes the idle clock.
  t.match_packet(PortNo{1}, header_to(MacAddress::from_uint64(1)), 64, from_ms(4'000));
  EXPECT_TRUE(t.expire(from_ms(8'000)).empty()); // only 4s idle
  auto expired = t.expire(from_ms(9'000));       // 5s idle since last packet
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].reason, of::FlowRemovedReason::kIdleTimeout);
}

TEST(FlowTable, RestorePreservesRuntimeState) {
  FlowTable t;
  t.apply(add_rule(of::Match{}.with_tp_dst(80), 50, PortNo{1}), kSimStart);
  FlowEntry e = t.entries()[0];
  e.packet_count = 42;
  e.byte_count = 4200;
  of::FlowMod del;
  del.command = of::FlowModCommand::kDelete;
  del.match = of::Match::any();
  t.apply(del, kSimStart);
  ASSERT_TRUE(t.empty());
  t.restore(e);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].packet_count, 42u);
}

TEST(FlowTable, DigestDetectsDifferencesAndIgnoresOrder) {
  FlowTable a, b;
  auto r1 = add_rule(of::Match{}.with_tp_dst(80), 50, PortNo{1});
  auto r2 = add_rule(of::Match{}.with_tp_dst(443), 60, PortNo{2});
  a.apply(r1, kSimStart);
  a.apply(r2, kSimStart);
  b.apply(r2, kSimStart);
  b.apply(r1, kSimStart);
  EXPECT_EQ(a.digest(), b.digest()); // order-insensitive
  b.apply(add_rule(of::Match{}.with_tp_dst(22), 70, PortNo{3}), kSimStart);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(FlowTable, SnapshotRestoreIsIdentity) {
  FlowTable t;
  MessageGen gen(9);
  for (int i = 0; i < 50; ++i) t.apply(gen.random_flow_mod(1), kSimStart);
  const auto snap = t.snapshot();
  const auto digest = t.digest();
  for (int i = 0; i < 50; ++i) t.apply(gen.random_flow_mod(1), kSimStart);
  t.restore_snapshot(snap);
  EXPECT_EQ(t.digest(), digest);
}

// generation() is what lets the invariant checker reuse a reachability
// trace: it must move on every change a lookup can see, and on nothing else.
TEST(FlowTable, GenerationMovesOnEveryStructuralChange) {
  FlowTable t;
  std::uint64_t last = t.generation();
  auto moved = [&t, &last](const char* what) {
    EXPECT_NE(t.generation(), last) << what;
    last = t.generation();
  };
  const of::FlowMod a = add_rule(of::Match{}.with_tp_dst(80), 50, PortNo{1}, /*idle=*/5);
  t.apply(a, kSimStart);
  moved("add");
  // An identical re-add takes a new insertion seq, which can flip a tie.
  t.apply(a, kSimStart);
  moved("identical re-add");
  of::FlowMod mod = a;
  mod.command = of::FlowModCommand::kModifyStrict;
  mod.actions = of::output_to(PortNo{2});
  t.apply(mod, kSimStart);
  moved("modify-strict");
  mod.command = of::FlowModCommand::kModify;
  mod.match = of::Match::any();
  mod.actions = of::output_to(PortNo{3});
  t.apply(mod, kSimStart);
  moved("modify");
  const FlowEntry saved = t.entries()[0];
  of::FlowMod del;
  del.command = of::FlowModCommand::kDeleteStrict;
  del.match = a.match;
  del.priority = a.priority;
  t.apply(del, kSimStart);
  moved("delete-strict");
  t.restore(saved);
  moved("restore");
  del.command = of::FlowModCommand::kDelete;
  del.match = of::Match::any();
  t.apply(del, kSimStart);
  moved("delete");
  t.restore(saved);
  moved("restore");
  ASSERT_EQ(t.expire(from_ms(5'000)).size(), 1u);
  moved("expiry");
  const auto snap = t.snapshot(); // empty
  t.apply(a, kSimStart);
  moved("add");
  t.restore_snapshot(snap);
  moved("restore_snapshot");
  t.restore_snapshot(snap); // empty into empty still rebuilds
  moved("restore_snapshot of an empty table");
  t.apply(a, kSimStart);
  moved("add");
  t.clear();
  moved("clear");
}

TEST(FlowTable, GenerationIgnoresLookupsAndCounters) {
  FlowTable t;
  const MacAddress dst = MacAddress::from_uint64(5);
  t.apply(add_rule(of::Match{}.with_eth_dst(dst), 50, PortNo{1}, /*idle=*/5), kSimStart);
  const std::uint64_t gen = t.generation();
  EXPECT_NE(t.peek(PortNo{1}, header_to(dst)), nullptr);
  EXPECT_EQ(t.peek(PortNo{1}, header_to(MacAddress::from_uint64(6))), nullptr);
  EXPECT_NE(t.match_packet(PortNo{1}, header_to(dst), 64, from_ms(4'000)), nullptr);
  EXPECT_EQ(t.match_packet(PortNo{1}, header_to(MacAddress::from_uint64(6)), 64,
                           from_ms(4'000)),
            nullptr);
  // Traffic refreshed the idle clock, so this expiry only re-arms.
  EXPECT_TRUE(t.expire(from_ms(5'000)).empty());
  of::FlowMod miss;
  miss.command = of::FlowModCommand::kDeleteStrict;
  miss.match = of::Match{}.with_tp_dst(9);
  t.apply(miss, kSimStart); // deletes nothing
  EXPECT_EQ(t.generation(), gen);
}

// Property sweep: applying random flow-mods never corrupts invariants
// (no duplicate strict identities; lookups agree with manual scan).
class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableFuzz, NoDuplicateStrictIdentities) {
  FlowTable t;
  MessageGen gen(GetParam());
  for (int i = 0; i < 400; ++i) {
    t.apply(gen.random_flow_mod(1), from_ms(i));
    for (std::size_t a = 0; a < t.entries().size(); ++a) {
      for (std::size_t b = a + 1; b < t.entries().size(); ++b) {
        EXPECT_FALSE(t.entries()[a].same_flow(t.entries()[b].match,
                                              t.entries()[b].priority))
            << "duplicate identity after mod " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz, ::testing::Values(11, 22, 33, 44));

} // namespace
} // namespace legosdn::netsim
