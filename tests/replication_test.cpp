// Leader/follower replication tests (DESIGN.md §4.8): record codec, warm
// followers, exactly-once failover reconciliation, promotion guards, the
// replicated-vs-single differential oracle, and the crash-ticket lifetime
// fixes that ride along (TicketLog deque stability, per-app event_seq,
// shadow digests on tickets).
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/fault_injection.hpp"
#include "apps/learning_switch.hpp"
#include "helpers.hpp"
#include "legosdn/lego_controller.hpp"
#include "legosdn/replication.hpp"
#include "scenario/fuzz.hpp"

namespace legosdn::lego {
namespace {

using legosdn::test::host_packet;
using legosdn::test::RecorderApp;

of::FlowMod add_rule(DatapathId dpid, const of::Match& m, std::uint16_t prio,
                     PortNo out) {
  of::FlowMod mod;
  mod.dpid = dpid;
  mod.match = m;
  mod.priority = prio;
  mod.actions = of::output_to(out);
  return mod;
}

apps::CrashTrigger poison_packet_trigger(std::uint16_t tp_dst = 666) {
  apps::CrashTrigger t;
  t.on_tp_dst = tp_dst;
  return t;
}

/// Full (counter-sensitive) digests of every live switch table — any message
/// reaching any switch during reconciliation changes at least one of these.
std::vector<std::uint64_t> live_digests(const netsim::Network& net) {
  std::vector<std::uint64_t> out;
  for (const DatapathId d : net.switch_ids())
    out.push_back(net.switch_at(d)->table().digest());
  return out;
}

bool send_and_pump(netsim::Network& net, ctl::Controller& c, std::size_t src,
                   std::size_t dst, std::uint16_t tp_dst = 80) {
  const auto before = net.hosts()[dst].rx_packets;
  net.inject_from_host(net.hosts()[src].mac, host_packet(net, src, dst, tp_dst));
  while (c.run() > 0) {
  }
  return net.hosts()[dst].rx_packets > before;
}

// --- wire codec ---

TEST(ReplicaCodec, RoundTripsEveryKind) {
  ReplicaRecord ev;
  ev.kind = ReplicaRecord::Kind::kEvent;
  ev.event = ctl::SwitchDown{DatapathId{7}};
  auto r1 = decode_record(encode_record(ev));
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1.value().kind, ReplicaRecord::Kind::kEvent);
  EXPECT_EQ(std::get<ctl::SwitchDown>(r1.value().event).dpid, DatapathId{7});

  ReplicaRecord txn;
  txn.kind = ReplicaRecord::Kind::kTxn;
  txn.txn.kind = netlog::TxnRecord::Kind::kApply;
  txn.txn.txn = TxnId{42};
  txn.txn.app = AppId{3};
  txn.txn.msg = {9, add_rule(DatapathId{2}, of::Match{}.with_tp_dst(80), 100,
                             PortNo{1})};
  auto r2 = decode_record(encode_record(txn));
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2.value().txn.kind, netlog::TxnRecord::Kind::kApply);
  EXPECT_EQ(r2.value().txn.txn, TxnId{42});
  EXPECT_EQ(r2.value().txn.app, AppId{3});
  const auto* mod = r2.value().txn.msg.get_if<of::FlowMod>();
  ASSERT_NE(mod, nullptr);
  EXPECT_EQ(mod->dpid, DatapathId{2});

  ReplicaRecord commit;
  commit.kind = ReplicaRecord::Kind::kTxn;
  commit.txn.kind = netlog::TxnRecord::Kind::kCommit;
  commit.txn.txn = TxnId{42};
  commit.txn.app = AppId{3};
  auto r3 = decode_record(encode_record(commit));
  ASSERT_TRUE(r3);
  EXPECT_EQ(r3.value().txn.kind, netlog::TxnRecord::Kind::kCommit);

  ReplicaRecord snap;
  snap.kind = ReplicaRecord::Kind::kAppState;
  snap.app_index = 2;
  snap.state = {1, 2, 3, 4};
  auto r4 = decode_record(encode_record(snap));
  ASSERT_TRUE(r4);
  EXPECT_EQ(r4.value().app_index, 2u);
  EXPECT_EQ(r4.value().state, (std::vector<std::uint8_t>{1, 2, 3, 4}));

  ReplicaRecord down;
  down.kind = ReplicaRecord::Kind::kAppDown;
  down.app_index = 1;
  auto r5 = decode_record(encode_record(down));
  ASSERT_TRUE(r5);
  EXPECT_EQ(r5.value().kind, ReplicaRecord::Kind::kAppDown);
  EXPECT_EQ(r5.value().app_index, 1u);
}

TEST(ReplicaCodec, RejectsTruncatedAndGarbage) {
  ReplicaRecord snap;
  snap.kind = ReplicaRecord::Kind::kAppState;
  snap.state = {1, 2, 3};
  auto bytes = encode_record(snap);
  bytes.resize(bytes.size() - 2);
  EXPECT_FALSE(decode_record(bytes));

  const std::vector<std::uint8_t> garbage = {0xFF, 0x00, 0x01};
  EXPECT_FALSE(decode_record(garbage));
}

// --- warm followers ---

TEST(ReplicaSet, FollowerMirrorsLeaderThroughWireCodec) {
  auto net = netsim::Network::linear(3, 1);
  LegoConfig cfg;
  ReplicaConfig rcfg;
  rcfg.followers = 1;
  rcfg.encode_records = true; // every record crosses the codec
  ReplicaSet set(*net, cfg, rcfg);
  set.add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  ASSERT_TRUE(set.start());

  EXPECT_TRUE(send_and_pump(*net, set.leader(), 0, 2));
  EXPECT_TRUE(send_and_pump(*net, set.leader(), 2, 0));

  EXPECT_GT(set.records_shipped(), 0u);
  EXPECT_EQ(set.codec_failures(), 0u);

  // The follower replayed the same transactions against its shadows: its
  // NetLog agrees with the leader's span for span, digest for digest.
  LegoController& follower = set.follower(0);
  EXPECT_EQ(follower.netlog().stats().committed,
            set.leader().netlog().stats().committed);
  EXPECT_GT(follower.netlog().stats().committed, 0u);
  EXPECT_EQ(follower.netlog().shadow_digests(),
            set.leader().netlog().shadow_digests());

  // Its apps saw the identical event stream.
  const auto& le = set.leader().appvisor().entries()[0];
  const auto& fe = follower.appvisor().entries()[0];
  EXPECT_EQ(fe.events_delivered, le.events_delivered);
  EXPECT_GT(fe.events_delivered, 0u);
}

TEST(ReplicaSet, FollowerPutsNothingOnTheWire) {
  auto net = netsim::Network::linear(3, 1);
  ReplicaSet set(*net, LegoConfig{}, ReplicaConfig{});
  set.add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  ASSERT_TRUE(set.start());

  send_and_pump(*net, set.leader(), 0, 2);
  send_and_pump(*net, set.leader(), 2, 0);
  const auto digests = live_digests(*net);

  // Replaying the same stream into a brand-new single controller on a fresh
  // network must land the same switch state: the follower's replay added
  // nothing and removed nothing from the shared network.
  auto ref_net = netsim::Network::linear(3, 1);
  LegoController single(*ref_net);
  single.add_app(std::make_shared<apps::LearningSwitch>());
  ASSERT_TRUE(single.start_system());
  send_and_pump(*ref_net, single, 0, 2);
  send_and_pump(*ref_net, single, 2, 0);

  std::vector<std::uint64_t> ref;
  for (const DatapathId d : ref_net->switch_ids())
    ref.push_back(ref_net->switch_at(d)->table().logical_digest());
  std::vector<std::uint64_t> got;
  for (const DatapathId d : net->switch_ids())
    got.push_back(net->switch_at(d)->table().logical_digest());
  EXPECT_EQ(got, ref);
}

// --- failover: exactly-once reconciliation ---

TEST(Failover, AdoptsLandedInFlightTxnWithoutResending) {
  auto net = netsim::Network::linear(3, 1);
  ReplicaSet set(*net, LegoConfig{}, ReplicaConfig{});
  set.add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  ASSERT_TRUE(set.start());
  send_and_pump(*net, set.leader(), 0, 2);

  // The leader dies mid-transaction: begin and apply shipped, commit never
  // happened. Undo-log mode forwarded the apply, so the switch executed it.
  const TxnId t = set.leader().netlog().begin(AppId{1});
  ASSERT_TRUE(set.leader().netlog().apply(
      t, {1, add_rule(DatapathId{2}, of::Match{}.with_tp_dst(443), 200,
                      PortNo{1})}));
  ASSERT_EQ(net->switch_at(DatapathId{2})->table().size(), 1u);

  const auto committed_before = set.follower(0).netlog().stats().committed;
  const auto digests_before = live_digests(*net);

  const auto rep = set.fail_over();
  ASSERT_TRUE(rep.promoted);
  EXPECT_EQ(rep.reconcile.txns_adopted, 1u);
  EXPECT_EQ(rep.reconcile.spans_adopted, 1u);
  EXPECT_EQ(rep.reconcile.txns_discarded, 0u);

  // Exactly-once: adoption is pure bookkeeping. Not one message reached any
  // switch — even the counter-sensitive full digests are untouched.
  EXPECT_EQ(live_digests(*net), digests_before);
  EXPECT_EQ(set.leader().netlog().stats().committed, committed_before + 1);
  EXPECT_EQ(set.failovers(), 1u);

  // The promoted leader is live: new flows still get installed.
  EXPECT_TRUE(send_and_pump(*net, set.leader(), 2, 0));
}

TEST(Failover, DiscardsUnlandedDelayBufferTxnWithoutTouchingSwitches) {
  auto net = netsim::Network::linear(3, 1);
  LegoConfig cfg;
  cfg.netlog.mode = netlog::Mode::kDelayBuffer;
  ReplicaSet set(*net, cfg, ReplicaConfig{});
  set.add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  ASSERT_TRUE(set.start());

  // Delay-buffer: the apply is held, the switch never saw it.
  const TxnId t = set.leader().netlog().begin(AppId{1});
  ASSERT_TRUE(set.leader().netlog().apply(
      t, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(443), 200,
                      PortNo{1})}));
  ASSERT_TRUE(net->switch_at(DatapathId{1})->table().empty());

  const auto digests_before = live_digests(*net);
  const auto rep = set.fail_over();
  ASSERT_TRUE(rep.promoted);
  EXPECT_EQ(rep.reconcile.txns_adopted, 0u);
  EXPECT_EQ(rep.reconcile.txns_discarded, 1u);
  EXPECT_EQ(rep.reconcile.spans_discarded, 1u);

  EXPECT_EQ(live_digests(*net), digests_before);
  ASSERT_TRUE(net->switch_at(DatapathId{1})->table().empty());
  EXPECT_GE(set.leader().netlog().stats().rolled_back, 1u);
}

TEST(Failover, AdoptsEverySpanOfACoalescedBatch) {
  auto net = netsim::Network::linear(3, 1);
  ReplicaSet set(*net, LegoConfig{}, ReplicaConfig{});
  set.add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  ASSERT_TRUE(set.start());

  // A coalesced run (begin + join) dies mid-batch with both spans' applies
  // already on the switches.
  const TxnId t = set.leader().netlog().begin(AppId{1});
  ASSERT_TRUE(set.leader().netlog().join(t, AppId{1}));
  ASSERT_TRUE(set.leader().netlog().apply(
      t, {1, add_rule(DatapathId{1}, of::Match{}.with_tp_dst(80), 100,
                      PortNo{1})}));
  ASSERT_TRUE(set.leader().netlog().apply(
      t, {2, add_rule(DatapathId{2}, of::Match{}.with_tp_dst(80), 100,
                      PortNo{2})}));

  const auto digests_before = live_digests(*net);
  const auto rep = set.fail_over();
  ASSERT_TRUE(rep.promoted);
  EXPECT_EQ(rep.reconcile.txns_adopted, 1u);
  EXPECT_EQ(rep.reconcile.spans_adopted, 2u);
  EXPECT_EQ(live_digests(*net), digests_before);
  EXPECT_GE(set.leader().lego_stats().txns_committed, 2u);
}

TEST(Failover, CrashBetweenBeginAndAnyApplyAdoptsEmptyTxn) {
  auto net = netsim::Network::linear(2, 1);
  ReplicaSet set(*net, LegoConfig{}, ReplicaConfig{});
  set.add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  ASSERT_TRUE(set.start());

  // Begin shipped, nothing applied: no switch was touched, so live == shadow
  // vacuously and the empty transaction is adopted as a no-op commit.
  set.leader().netlog().begin(AppId{1});
  const auto digests_before = live_digests(*net);

  const auto rep = set.fail_over();
  ASSERT_TRUE(rep.promoted);
  EXPECT_EQ(rep.reconcile.txns_adopted + rep.reconcile.txns_discarded, 1u);
  EXPECT_EQ(live_digests(*net), digests_before);
  // Whichever verdict, the promoted controller has no open transactions.
  EXPECT_TRUE(send_and_pump(*net, set.leader(), 0, 1));
}

TEST(Failover, DoublePromotionIsGuarded) {
  auto net = netsim::Network::linear(2, 1);
  ReplicaSet set(*net, LegoConfig{}, ReplicaConfig{});
  set.add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  ASSERT_TRUE(set.start());

  ASSERT_TRUE(set.fail_over().promoted);
  // Promoting an already-promoted controller is a no-op...
  EXPECT_FALSE(set.leader().promote_to_leader().promoted);
  // ...and with no follower left, fail_over has nobody to promote.
  EXPECT_FALSE(set.fail_over().promoted);
  EXPECT_EQ(set.failovers(), 1u);
}

TEST(Failover, SurvivesAppCrashBeforeAndAfterPromotion) {
  auto net = netsim::Network::linear(3, 1);
  ReplicaSet set(*net, LegoConfig{}, ReplicaConfig{});
  set.add_app([] {
    return std::make_shared<apps::CrashyApp>(
        std::make_shared<apps::LearningSwitch>(), poison_packet_trigger());
  });
  ASSERT_TRUE(set.start());

  // Leader-side crash + recovery ships the app snapshot to the follower.
  send_and_pump(*net, set.leader(), 0, 2);
  send_and_pump(*net, set.leader(), 0, 2, 666);
  EXPECT_EQ(set.leader().lego_stats().failstop_crashes, 1u);
  EXPECT_EQ(set.leader().lego_stats().recoveries, 1u);
  EXPECT_EQ(set.follower(0).lego_stats().recoveries, 1u);

  ASSERT_TRUE(set.fail_over().promoted);

  // The promoted controller recovers its own crashes now.
  send_and_pump(*net, set.leader(), 2, 0, 666);
  EXPECT_FALSE(set.leader().crashed());
  EXPECT_GE(set.leader().lego_stats().recoveries, 2u);
  EXPECT_TRUE(send_and_pump(*net, set.leader(), 2, 0));
}

// --- replicated-vs-single differential oracle ---

TEST(ReplicatedDifferential, FollowerReplayIsDeterministicAcrossSeeds) {
  // Every generated churn script must converge to the same final state when
  // run replicated (2 replicas, leader crash mid-script) as when run by the
  // single controller the fuzzer already trusts. Same oracle fields as the
  // wire-vs-in-process differential: reachability, digests, commit stats.
  // LEGOSDN_REPL_DIFF_SEEDS overrides the seed count (nightly runs deep).
  std::uint64_t seeds = 50;
  if (const char* env = std::getenv("LEGOSDN_REPL_DIFF_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) seeds = static_cast<std::uint64_t>(v);
  }
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const auto gen = scenario::generate_scenario({.seed = 1000 + seed});

    auto single = scenario::Scenario::parse(gen.lego_script);
    ASSERT_TRUE(single) << gen.lego_script;
    const auto base = single.value().run();

    // Textual transform: 2 replicas, leader crash halfway through the
    // post-start body.
    std::vector<std::string> lines;
    std::istringstream in(gen.lego_script);
    for (std::string l; std::getline(in, l);) lines.push_back(l);
    std::size_t start_idx = lines.size();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i] == "start") {
        start_idx = i;
        break;
      }
    }
    ASSERT_LT(start_idx, lines.size()) << gen.lego_script;
    const std::size_t mid = start_idx + 1 + (lines.size() - start_idx - 1) / 2;
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(mid),
                 "leader crash");
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(start_idx),
                 "replicas 2");
    std::string replicated_script;
    for (const auto& l : lines) replicated_script += l + "\n";

    auto replicated = scenario::Scenario::parse(replicated_script);
    ASSERT_TRUE(replicated) << replicated_script;
    const auto repl = replicated.value().run();

    ASSERT_TRUE(repl.error.empty())
        << "seed " << (1000 + seed) << ": " << repl.error << "\n"
        << replicated_script;
    EXPECT_EQ(repl.controller_down, base.controller_down) << replicated_script;
    EXPECT_EQ(repl.violations, base.violations) << replicated_script;
    EXPECT_EQ(repl.reachability, base.reachability)
        << "seed " << (1000 + seed) << "\n" << replicated_script;
    EXPECT_EQ(repl.switch_digests, base.switch_digests)
        << "seed " << (1000 + seed) << "\n" << replicated_script;
    EXPECT_EQ(repl.netlog_committed, base.netlog_committed)
        << "seed " << (1000 + seed) << "\n" << replicated_script;
    EXPECT_EQ(repl.netlog_rolled_back, base.netlog_rolled_back)
        << "seed " << (1000 + seed) << "\n" << replicated_script;
  }
}

// --- crash-ticket lifetime fixes (satellites) ---

TEST(TicketLog, ForAppPointersSurviveLaterFilings) {
  crashpad::TicketLog log;
  for (int i = 0; i < 3; ++i) {
    crashpad::ProblemTicket t;
    t.app = "victim";
    t.crash_info = "crash " + std::to_string(i);
    log.file(std::move(t));
  }
  const auto held = log.for_app("victim");
  ASSERT_EQ(held.size(), 3u);
  const std::string first_info = held[0].crash_info;

  // A vector-backed log reallocated here and left pointers into it dangling;
  // the bounded log now also evicts the held tickets themselves, so
  // for_app() hands out copies that outlive both.
  const std::size_t fillers = crashpad::TicketLog::kCapacity + 512;
  for (std::size_t i = 0; i < fillers; ++i) {
    crashpad::ProblemTicket t;
    t.app = "other";
    t.crash_info = "filler " + std::to_string(i);
    log.file(std::move(t));
  }
  EXPECT_EQ(held[0].app, "victim");
  EXPECT_EQ(held[0].crash_info, first_info);
  EXPECT_EQ(held[2].crash_info, "crash 2");
  EXPECT_EQ(log.count(), fillers + 3);
  EXPECT_TRUE(log.for_app("victim").empty()); // evicted from the log
}

TEST(Ticket, EventSeqIsPerAppLogPosition) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  // A wide subscriber inflates the global dispatch counter far past the
  // victim's own log: every event it sees ticks the controller-wide seq.
  c.add_app(std::make_shared<RecorderApp>(
      "wide", std::vector<ctl::EventType>{
                  ctl::EventType::kPacketIn, ctl::EventType::kSwitchUp,
                  ctl::EventType::kSwitchDown, ctl::EventType::kPortStatus,
                  ctl::EventType::kLinkDown}));
  c.add_app(std::make_shared<apps::CrashyApp>(
      std::make_shared<apps::LearningSwitch>(), poison_packet_trigger()));
  ASSERT_TRUE(c.start_system());
  c.run();

  send_and_pump(*net, c, 0, 1);      // packet-ins the victim survives
  send_and_pump(*net, c, 1, 0);
  send_and_pump(*net, c, 0, 1, 666); // the offender

  ASSERT_EQ(c.tickets().count(), 1u);
  const auto& ticket = c.tickets().all()[0];
  // The victim subscribes to PacketIn/SwitchDown/PortStatus only; its log
  // position is strictly below the global counter, which also counted the
  // SwitchUp announcements the wide app consumed.
  const auto& victim = c.appvisor().entries()[1];
  EXPECT_EQ(ticket.event_seq, victim.events_delivered)
      << ticket.to_string();
  EXPECT_LT(ticket.event_seq, c.stats().events_dispatched);
}

TEST(Ticket, CarriesShadowDigestsAtCrashTime) {
  auto net = netsim::Network::linear(2, 1);
  LegoController c(*net);
  c.add_app(std::make_shared<apps::CrashyApp>(
      std::make_shared<apps::LearningSwitch>(), poison_packet_trigger()));
  ASSERT_TRUE(c.start_system());
  c.run();

  send_and_pump(*net, c, 0, 1); // install some state first
  send_and_pump(*net, c, 1, 0);
  send_and_pump(*net, c, 0, 1, 666);

  ASSERT_EQ(c.tickets().count(), 1u);
  const auto& ticket = c.tickets().all()[0];
  ASSERT_EQ(ticket.shadow_digests.size(), net->switch_ids().size());
  // Nothing committed since the crash: the ticket's snapshot still matches
  // the live shadow digests, switch for switch.
  EXPECT_EQ(ticket.shadow_digests, c.netlog().shadow_digests());
  EXPECT_NE(ticket.to_string().find("shadow digests"), std::string::npos);
}

} // namespace
} // namespace legosdn::lego
