// NetLog tests: atomicity, inverse computation, rollback-restores-state
// properties, the counter cache, timeout preservation, and delay-buffer mode.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "netlog/netlog.hpp"

namespace legosdn::netlog {
namespace {

using legosdn::test::MessageGen;

of::FlowMod add_rule(DatapathId dpid, const of::Match& m, std::uint16_t prio,
                     PortNo out, std::uint16_t idle = 0, std::uint16_t hard = 0) {
  of::FlowMod mod;
  mod.dpid = dpid;
  mod.match = m;
  mod.priority = prio;
  mod.idle_timeout = idle;
  mod.hard_timeout = hard;
  mod.actions = of::output_to(out);
  return mod;
}

/// Logical table digest ignoring counters/timestamps — what OF-protocol
/// rollback can restore exactly.
std::uint64_t logical_digest(const netsim::FlowTable& t) {
  std::uint64_t acc = 0;
  for (const auto& e : t.entries()) {
    ByteWriter w;
    e.match.encode(w);
    w.u16(e.priority);
    w.u64(e.cookie);
    of::encode_actions(e.actions, w);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (auto b : w.data()) {
      h ^= b;
      h *= 0x100000001B3ULL;
    }
    acc ^= h;
  }
  return acc;
}

TEST(NetLog, CommitAppliesAndClears) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  // Undo-log mode: visible immediately.
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  ASSERT_TRUE(log.commit(txn));
  EXPECT_FALSE(log.is_open(txn));
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  EXPECT_EQ(log.stats().committed, 1u);
}

TEST(NetLog, RollbackOfAddRemovesEntry) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  ASSERT_TRUE(log.rollback(txn));
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
}

TEST(NetLog, RollbackOfDeleteRestoresEntryWithCounters) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const of::Match m = of::Match{}.with_eth_dst(net->hosts()[1].mac);

  // Install (committed txn) then exercise the rule so counters tick.
  TxnId t0 = log.begin(AppId{1});
  log.apply(t0, {1, add_rule(DatapathId{1}, m, 100, PortNo{3})});
  log.commit(t0);
  net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));
  const auto before =
      net->switch_at(DatapathId{1})->table().entries()[0].packet_count;
  EXPECT_EQ(before, 1u);

  // A second transaction deletes it, then rolls back.
  TxnId t1 = log.begin(AppId{2});
  of::FlowMod del;
  del.dpid = DatapathId{1};
  del.command = of::FlowModCommand::kDelete;
  del.match = of::Match::any();
  log.apply(t1, {2, del});
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
  ASSERT_TRUE(log.rollback(t1));

  // The entry is back (re-added by the inverse); its in-switch counters are
  // zero, but the counter-cache remembers the lost ticks.
  ASSERT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().entries()[0].packet_count, 0u);
  ASSERT_EQ(log.counter_cache().size(), 1u);
  EXPECT_EQ(log.counter_cache()[0].packet_count, 1u);

  // Stats replies are corrected from the cache (§3.2).
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& msg) { nb.push_back(msg); });
  of::StatsRequest req;
  req.dpid = DatapathId{1};
  req.kind = of::StatsKind::kFlow;
  req.match = of::Match::any();
  net->send_to_switch({9, req});
  ASSERT_EQ(nb.size(), 1u);
  auto* reply = nb[0].get_if<of::StatsReply>();
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->flows.size(), 1u);
  EXPECT_EQ(reply->flows[0].packet_count, 0u); // raw from switch
  log.correct_stats(*reply);
  EXPECT_EQ(reply->flows[0].packet_count, 1u); // corrected
}

// Regression (counter-cache lifetime): after a restored flow is genuinely
// deleted (delete applied and *committed*), a later unrelated flow reusing
// the same (dpid, match, priority) must not inherit the dead flow's counts.
TEST(NetLog, CommittedDeleteEvictsCounterCache) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const of::Match m = of::Match{}.with_eth_dst(net->hosts()[1].mac);

  // Install, tick the counter, then delete + rollback: cache holds 1 packet.
  TxnId t0 = log.begin(AppId{1});
  log.apply(t0, {1, add_rule(DatapathId{1}, m, 100, PortNo{3})});
  log.commit(t0);
  net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));
  TxnId t1 = log.begin(AppId{2});
  of::FlowMod del;
  del.dpid = DatapathId{1};
  del.command = of::FlowModCommand::kDeleteStrict;
  del.match = m;
  del.priority = 100;
  log.apply(t1, {2, del});
  log.rollback(t1);
  ASSERT_EQ(log.counter_cache_size(), 1u);

  // Now the flow dies for real: the delete sticks (committed, no rollback).
  TxnId t2 = log.begin(AppId{2});
  log.apply(t2, {3, del});
  log.commit(t2);
  EXPECT_EQ(log.counter_cache_size(), 0u);

  // A brand-new flow with the same identity counts from zero.
  TxnId t3 = log.begin(AppId{3});
  log.apply(t3, {4, add_rule(DatapathId{1}, m, 100, PortNo{3})});
  log.commit(t3);
  net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));
  net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));

  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& msg) { nb.push_back(msg); });
  of::StatsRequest req;
  req.dpid = DatapathId{1};
  req.kind = of::StatsKind::kFlow;
  req.match = of::Match::any();
  net->send_to_switch({9, req});
  auto* reply = nb.at(0).get_if<of::StatsReply>();
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->flows.size(), 1u);
  log.correct_stats(*reply);
  EXPECT_EQ(reply->flows[0].packet_count, 2u); // new flow only, no inheritance
}

// Same lifetime bug via natural expiry: observe_northbound sees the
// flow-removed and must evict the cached record along with the shadow entry.
TEST(NetLog, FlowRemovedEvictsCounterCache) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const of::Match m = of::Match{}.with_eth_dst(net->hosts()[1].mac);

  TxnId t0 = log.begin(AppId{1});
  of::FlowMod add = add_rule(DatapathId{1}, m, 100, PortNo{3}, /*idle=*/0,
                             /*hard=*/5);
  add.send_flow_removed = true;
  log.apply(t0, {1, add});
  log.commit(t0);
  net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));

  TxnId t1 = log.begin(AppId{2});
  of::FlowMod del;
  del.dpid = DatapathId{1};
  del.command = of::FlowModCommand::kDeleteStrict;
  del.match = m;
  del.priority = 100;
  log.apply(t1, {2, del});
  log.rollback(t1);
  ASSERT_EQ(log.counter_cache_size(), 1u);

  // Let the restored entry hard-expire; route the flow-removed into the log
  // the way LegoController does.
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& msg) { nb.push_back(msg); });
  net->advance_time(std::chrono::seconds(10));
  ASSERT_FALSE(nb.empty());
  ASSERT_NE(nb.at(0).get_if<of::FlowRemoved>(), nullptr);
  log.observe_northbound(nb.at(0));
  EXPECT_EQ(log.counter_cache_size(), 0u);
}

// Repeated delete+rollback of the same flow must merge into one cache record
// (bounded by live restored flows), not grow a record per rollback.
TEST(NetLog, CounterCacheBoundedAcrossRepeatedRollbacks) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const of::Match m = of::Match{}.with_eth_dst(net->hosts()[1].mac);
  TxnId t0 = log.begin(AppId{1});
  log.apply(t0, {1, add_rule(DatapathId{1}, m, 100, PortNo{3})});
  log.commit(t0);

  for (int round = 0; round < 16; ++round) {
    net->inject_from_host(net->hosts()[0].mac,
                          legosdn::test::host_packet(*net, 0, 1));
    TxnId t = log.begin(AppId{2});
    of::FlowMod del;
    del.dpid = DatapathId{1};
    del.command = of::FlowModCommand::kDeleteStrict;
    del.match = m;
    del.priority = 100;
    log.apply(t, {2, del});
    log.rollback(t);
    EXPECT_EQ(log.counter_cache_size(), 1u) << "round " << round;
  }
  // The single record accumulated every lost tick.
  const auto cache = log.counter_cache();
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache[0].packet_count, 16u);
}

TEST(NetLog, RollbackOfModifyRestoresOldActions) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const of::Match m = of::Match{}.with_tp_dst(80);
  TxnId t0 = log.begin(AppId{1});
  log.apply(t0, {1, add_rule(DatapathId{1}, m, 100, PortNo{3})});
  log.commit(t0);

  TxnId t1 = log.begin(AppId{1});
  of::FlowMod mod = add_rule(DatapathId{1}, m, 100, PortNo{1});
  mod.command = of::FlowModCommand::kModifyStrict;
  log.apply(t1, {2, mod});
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().entries()[0].actions,
            of::output_to(PortNo{1}));
  ASSERT_TRUE(log.rollback(t1));
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().entries()[0].actions,
            of::output_to(PortNo{3}));
}

TEST(NetLog, RollbackOfReplacementRestoresOriginal) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const of::Match m = of::Match{}.with_tp_dst(80);
  TxnId t0 = log.begin(AppId{1});
  log.apply(t0, {1, add_rule(DatapathId{1}, m, 100, PortNo{3}, 30, 60)});
  log.commit(t0);

  // Same match+priority added again (replacement) in a rolled-back txn.
  TxnId t1 = log.begin(AppId{1});
  log.apply(t1, {2, add_rule(DatapathId{1}, m, 100, PortNo{1})});
  ASSERT_TRUE(log.rollback(t1));
  const auto& entries = net->switch_at(DatapathId{1})->table().entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].actions, of::output_to(PortNo{3}));
}

TEST(NetLog, TimeoutRestoredWithRemainingLifetime) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const of::Match m = of::Match{}.with_tp_dst(80);
  TxnId t0 = log.begin(AppId{1});
  log.apply(t0, {1, add_rule(DatapathId{1}, m, 100, PortNo{3}, 0, /*hard=*/60)});
  log.commit(t0);

  // 40 seconds later, a delete + rollback should restore ~20s of life.
  net->advance_time(std::chrono::seconds(40));
  TxnId t1 = log.begin(AppId{1});
  of::FlowMod del;
  del.dpid = DatapathId{1};
  del.command = of::FlowModCommand::kDeleteStrict;
  del.match = m;
  del.priority = 100;
  log.apply(t1, {2, del});
  log.rollback(t1);
  const auto& entries = net->switch_at(DatapathId{1})->table().entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].hard_timeout, 20);
  // And it expires on schedule relative to the restore.
  net->advance_time(std::chrono::seconds(19));
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  net->advance_time(std::chrono::seconds(2));
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
}

TEST(NetLog, MultiSwitchTransactionRollsBackEverywhere) {
  auto net = netsim::Network::linear(4, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  for (std::uint64_t d = 1; d <= 4; ++d) {
    log.apply(txn, {1, add_rule(DatapathId{d}, of::Match{}.with_tp_dst(80), 100,
                                PortNo{3})});
  }
  auto touched = log.touched(txn);
  EXPECT_EQ(touched.size(), 4u);
  ASSERT_TRUE(log.rollback(txn));
  for (std::uint64_t d = 1; d <= 4; ++d) {
    EXPECT_TRUE(net->switch_at(DatapathId{d})->table().empty()) << "s" << d;
  }
}

// Commit coalescing (DESIGN.md §4.7): joined spans commit once physically
// but count one committed transaction per logical span, so coalesced and
// per-event runs are stat-identical — the property the serial-vs-sharded
// differential oracle depends on.
TEST(NetLog, CoalescedCommitCountsOneSpanPerJoin) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  ASSERT_TRUE(log.join(txn, AppId{1}));
  ASSERT_TRUE(log.join(txn, AppId{1}));
  EXPECT_EQ(log.spans(txn), 3u);
  // Coalescing is same-app only: a foreign app cannot extend the batch.
  EXPECT_FALSE(log.join(txn, AppId{9}));
  for (std::uint16_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(log.apply(
        txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80 + p), 100,
                          PortNo{3})}));
  }
  ASSERT_TRUE(log.commit(txn));
  const auto st = log.stats();
  EXPECT_EQ(st.begun, 3u);
  EXPECT_EQ(st.committed, 3u);
  EXPECT_EQ(st.coalesced_joins, 2u);
  EXPECT_EQ(st.coalesced_commits, 1u);
  EXPECT_EQ(st.coalesced_spans, 3u);
}

// Crash mid-coalesced-batch: rollback must undo every logical span the
// physical transaction carries — across every switch it touched — and
// nothing committed before it, with the digest audit confirming each shadow
// returned to its pre-transaction state.
TEST(NetLog, CoalescedSpanCrashRollsBackWholeBatch) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);

  // Committed pre-state the rollback must leave untouched.
  const TxnId t0 = log.begin(AppId{1});
  ASSERT_TRUE(log.apply(t0, {1, add_rule(DatapathId{1},
                                         of::Match{}.with_tp_dst(22), 10,
                                         PortNo{3})}));
  ASSERT_TRUE(log.commit(t0));
  const auto pre1 = logical_digest(net->switch_at(DatapathId{1})->table());

  // One physical transaction carrying four logical spans, two flow-mods
  // each, spread across both switches.
  const TxnId t1 = log.begin(AppId{2});
  for (int s = 0; s < 3; ++s) ASSERT_TRUE(log.join(t1, AppId{2}));
  EXPECT_EQ(log.spans(t1), 4u);
  std::uint16_t port = 1000;
  for (int s = 0; s < 4; ++s) {
    for (int m = 0; m < 2; ++m) {
      const std::uint64_t dpid = 1 + (s + m) % 2;
      ASSERT_TRUE(log.apply(
          t1, {2, add_rule(DatapathId{dpid}, of::Match{}.with_tp_dst(port++),
                           100, PortNo{3})}));
    }
  }
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 5u);
  EXPECT_EQ(net->switch_at(DatapathId{2})->table().size(), 4u);

  // The app crashes before commit; the whole batch is undone.
  ASSERT_TRUE(log.rollback(t1));
  EXPECT_EQ(logical_digest(net->switch_at(DatapathId{1})->table()), pre1);
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
  EXPECT_TRUE(net->switch_at(DatapathId{2})->table().empty());

  const auto st = log.stats();
  EXPECT_EQ(st.begun, 5u);       // t0 + four logical spans
  EXPECT_EQ(st.committed, 1u);   // t0 only
  EXPECT_EQ(st.rolled_back, 4u); // every span of the coalesced txn
  EXPECT_EQ(st.coalesced_joins, 3u);
  EXPECT_EQ(st.undo_ops_applied, 8u);
  EXPECT_GE(st.rollback_digest_checks, 2u); // both touched shadows audited
  EXPECT_EQ(st.rollback_digest_mismatches, 0u);
}

TEST(NetLog, DelayBufferHoldsUntilCommit) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net, {Mode::kDelayBuffer, false});
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  // Not yet visible: the buffer delays it (the paper's prototype).
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
  ASSERT_TRUE(log.commit(txn));
  EXPECT_EQ(net->switch_at(DatapathId{1})->table().size(), 1u);
}

TEST(NetLog, DelayBufferRollbackDiscards) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net, {Mode::kDelayBuffer, false});
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  of::PacketOut po;
  po.dpid = DatapathId{1};
  po.actions = of::output_to(ports::kFlood);
  log.apply(txn, {2, po});
  ASSERT_TRUE(log.rollback(txn));
  EXPECT_TRUE(net->switch_at(DatapathId{1})->table().empty());
  EXPECT_EQ(net->totals().injected, 0u); // the packet-out never ran
}

TEST(NetLog, BarrierSentOnCommitWhenConfigured) {
  auto net = netsim::Network::linear(2, 1);
  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  NetLog log(*net, {Mode::kUndoLog, true});
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  log.commit(txn);
  bool barrier_reply = false;
  for (const auto& m : nb)
    if (m.is<of::BarrierReply>()) barrier_reply = true;
  EXPECT_TRUE(barrier_reply);
}

TEST(NetLog, UnknownTxnOperationsFail) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  EXPECT_FALSE(log.commit(TxnId{99}));
  EXPECT_FALSE(log.rollback(TxnId{99}));
  EXPECT_FALSE(log.apply(TxnId{99}, {1, of::FlowMod{}}));
}

// landed(): have a transaction's flow-mods reached the live tables? The
// verifier reads the live tables when they have and builds a pending-rule
// overlay when they have not.

TEST(NetLog, LandedOnceUndoLogAppliesReachTheSwitches) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  log.apply(txn, {2, add_rule(DatapathId{2}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{2})});
  EXPECT_TRUE(log.landed(txn));
  ASSERT_TRUE(log.commit(txn));
}

TEST(NetLog, LandedNeverInDelayBufferMode) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net, {Mode::kDelayBuffer, false});
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  EXPECT_FALSE(log.landed(txn));
  ASSERT_TRUE(log.commit(txn));
}

TEST(NetLog, LandedWaitsForQueuedSouthboundDelivery) {
  // A southbound that queues messages the way a socket does: nothing reaches
  // a switch until the queue is delivered.
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  std::vector<of::Message> queued;
  log.set_southbound([&](const of::Message& m) { queued.push_back(m); });
  const auto deliver = [&] {
    for (const auto& m : queued) net->send_to_switch(m);
    queued.clear();
  };
  const of::FlowMod rule =
      add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100, PortNo{3});

  const TxnId t1 = log.begin(AppId{1});
  log.apply(t1, {1, rule});
  EXPECT_FALSE(log.landed(t1));
  deliver();
  EXPECT_TRUE(log.landed(t1));
  ASSERT_TRUE(log.commit(t1));
  deliver();

  // Re-adding an identical rule changes no logical digest, so the live table
  // already holds the would-be state while the message is still queued.
  const TxnId t2 = log.begin(AppId{1});
  log.apply(t2, {2, rule});
  EXPECT_EQ(queued.size(), 1u);
  EXPECT_TRUE(log.landed(t2));
  ASSERT_TRUE(log.commit(t2));
}

TEST(NetLog, LandedFalseWhenATouchedSwitchDrifted) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  ASSERT_TRUE(log.landed(txn));
  // A rule written into the touched switch behind NetLog's back.
  net->send_to_switch({9, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(81), 100,
                                   PortNo{3})});
  EXPECT_FALSE(log.landed(txn));
}

TEST(NetLog, LandedIgnoresDownSwitches) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  log.apply(txn, {2, add_rule(DatapathId{2}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{2})});
  // s2 drifts from its shadow, then goes down: its table is unknowable, so
  // the verdict rests on s1 alone.
  net->send_to_switch({9, add_rule(DatapathId{2}, of::Match{}.with_tp_dst(81), 100,
                                   PortNo{2})});
  ASSERT_FALSE(log.landed(txn));
  net->set_switch_state(DatapathId{2}, false);
  EXPECT_TRUE(log.landed(txn));
}

TEST(NetLog, LandedFalseForClosedOrUnknownTxn) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId committed = log.begin(AppId{1});
  log.apply(committed, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                                    PortNo{3})});
  ASSERT_TRUE(log.commit(committed));
  EXPECT_FALSE(log.landed(committed));
  const TxnId rolled = log.begin(AppId{1});
  log.apply(rolled, {2, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(81), 100,
                                 PortNo{3})});
  ASSERT_TRUE(log.rollback(rolled));
  EXPECT_FALSE(log.landed(rolled));
  EXPECT_FALSE(log.landed(TxnId{99}));
}

TEST(NetLog, ShadowTracksSwitchState) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  log.apply(txn, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                              PortNo{3})});
  log.commit(txn);
  const netsim::FlowTable* shadow = log.shadow(DatapathId{1});
  ASSERT_NE(shadow, nullptr);
  EXPECT_EQ(logical_digest(*shadow),
            logical_digest(net->switch_at(DatapathId{1})->table()));
}

TEST(NetLog, ObserveFlowRemovedKeepsShadowInSync) {
  auto net = netsim::Network::linear(2, 1);
  NetLog log(*net);
  const TxnId txn = log.begin(AppId{1});
  of::FlowMod mod = add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                             PortNo{3}, 0, 5);
  mod.send_flow_removed = true;
  log.apply(txn, {1, mod});
  log.commit(txn);

  std::vector<of::Message> nb;
  net->set_northbound([&](const of::Message& m) { nb.push_back(m); });
  net->advance_time(std::chrono::seconds(6)); // hard timeout fires
  ASSERT_FALSE(nb.empty());
  log.observe_northbound(nb[0]);
  EXPECT_TRUE(log.shadow(DatapathId{1})->empty());
}

// Property: apply a random transaction on top of random committed state,
// roll it back, and the *logical* table contents are exactly as before.
class RollbackIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollbackIdentity, RandomTxnRollbackRestoresLogicalState) {
  auto net = netsim::Network::linear(3, 1);
  NetLog log(*net);
  MessageGen gen(GetParam());

  // Committed baseline: ~20 random mods across 3 switches.
  TxnId t0 = log.begin(AppId{1});
  for (int i = 0; i < 20; ++i) {
    of::FlowMod m = gen.random_flow_mod(3);
    m.idle_timeout = 0; // keep baseline immortal for a stable comparison
    m.hard_timeout = 0;
    m.check_overlap = false;
    log.apply(t0, {static_cast<std::uint32_t>(i), m});
  }
  log.commit(t0);

  std::array<std::uint64_t, 3> before{};
  for (std::uint64_t d = 1; d <= 3; ++d)
    before[d - 1] = logical_digest(net->switch_at(DatapathId{d})->table());

  // Random transaction, rolled back.
  TxnId t1 = log.begin(AppId{2});
  for (int i = 0; i < 15; ++i) {
    of::FlowMod m = gen.random_flow_mod(3);
    m.check_overlap = false;
    log.apply(t1, {static_cast<std::uint32_t>(100 + i), m});
  }
  ASSERT_TRUE(log.rollback(t1));

  for (std::uint64_t d = 1; d <= 3; ++d) {
    EXPECT_EQ(logical_digest(net->switch_at(DatapathId{d})->table()), before[d - 1])
        << "seed=" << GetParam() << " switch=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollbackIdentity,
                         ::testing::Values(1, 7, 42, 1337, 271828, 314159));

} // namespace
} // namespace legosdn::netlog
