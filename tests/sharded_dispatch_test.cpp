// Sharded dispatch tests: ShardRouter classification, ShardedDispatcher
// ordering guarantees (per-switch FIFO, stop-the-world barriers, re-entrant
// submit), and the seeded differential oracle — the same multi-switch event
// stream driven through a serial (1-shard) and a 4-shard LegoController must
// leave identical per-switch flow tables, NetLog commit counts, merged app
// state and forwarding behaviour. LEGOSDN_SHARD_DIFF_SEEDS overrides the
// seed count (default 50).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "controller/shard_router.hpp"
#include "controller/sharded_dispatch.hpp"
#include "helpers.hpp"
#include "legosdn/lego_controller.hpp"
#include "netsim/network.hpp"

namespace legosdn::lego {
namespace {

using legosdn::test::mac;
using legosdn::test::packet_between;
using legosdn::test::RecorderApp;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

of::PacketIn packet_in(std::uint64_t dpid, std::uint16_t in_port,
                       std::uint64_t tag = 0) {
  of::PacketIn pin;
  pin.dpid = DatapathId{dpid};
  pin.in_port = PortNo{in_port};
  pin.packet = packet_between(mac(0x100 + tag), mac(0x200 + tag),
                              static_cast<std::uint16_t>(tag), tag);
  return pin;
}

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

TEST(ShardRouter, ShardOfIsStableAndInRange) {
  for (std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    ctl::ShardRouter r(shards);
    for (std::uint64_t d = 1; d <= 64; ++d) {
      const std::size_t s = r.shard_of(DatapathId{d});
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, r.shard_of(DatapathId{d})); // stable
    }
  }
}

TEST(ShardRouter, DenseDpidsSpreadAcrossShards) {
  ctl::ShardRouter r(4);
  std::set<std::size_t> used;
  for (std::uint64_t d = 1; d <= 20; ++d) used.insert(r.shard_of(DatapathId{d}));
  // A fat-tree's worth of consecutive dpids must not collapse onto one lane.
  EXPECT_GT(used.size(), 1u);
}

TEST(ShardRouter, SingleShardRoutesEverythingToLaneZero) {
  ctl::ShardRouter r(1);
  EXPECT_EQ(r.route(ctl::Event{packet_in(7, 1)}), 0u);
  EXPECT_EQ(r.route(ctl::Event{ctl::SwitchDown{DatapathId{3}}}), 0u);
  EXPECT_EQ(r.route(ctl::Event{ctl::LinkDown{{DatapathId{1}, PortNo{1}},
                                             {DatapathId{2}, PortNo{2}}}}),
            0u);
  EXPECT_EQ(r.route(ctl::Event{packet_in(0, 1)}), 0u);
}

TEST(ShardRouter, EventsWithNoDpidAreGlobal) {
  ctl::ShardRouter r(4);
  EXPECT_EQ(r.route(ctl::Event{packet_in(0, 1)}), ctl::ShardRouter::kGlobal);
}

TEST(ShardRouter, DpidEventsRouteToTheirShard) {
  ctl::ShardRouter r(4);
  for (std::uint64_t d = 1; d <= 32; ++d) {
    EXPECT_EQ(r.route(ctl::Event{packet_in(d, 1)}), r.shard_of(DatapathId{d}));
    EXPECT_EQ(r.route(ctl::Event{ctl::SwitchDown{DatapathId{d}}}),
              r.shard_of(DatapathId{d}));
  }
}

TEST(ShardRouter, LinkDownRoutesByEndpointAgreement) {
  ctl::ShardRouter r(4);
  // Find a same-shard pair and a cross-shard pair; dense dpids guarantee both.
  for (std::uint64_t a = 1; a <= 16; ++a) {
    for (std::uint64_t b = a + 1; b <= 16; ++b) {
      const ctl::Event e{ctl::LinkDown{{DatapathId{a}, PortNo{1}},
                                       {DatapathId{b}, PortNo{1}}}};
      if (r.shard_of(DatapathId{a}) == r.shard_of(DatapathId{b})) {
        EXPECT_EQ(r.route(e), r.shard_of(DatapathId{a}));
      } else {
        EXPECT_EQ(r.route(e), ctl::ShardRouter::kGlobal);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedDispatcher
// ---------------------------------------------------------------------------

TEST(ShardedDispatcher, PerSwitchOrderIsPreserved) {
  std::mutex mu;
  std::map<std::uint64_t, std::vector<std::uint64_t>> seen; // dpid -> tags
  ctl::ShardedDispatcher d({.shards = 4},
                           [&](ctl::Event e, std::size_t) {
                             const auto& pin = std::get<of::PacketIn>(e);
                             std::lock_guard<std::mutex> lk(mu);
                             seen[raw(pin.dpid)].push_back(pin.packet.trace_tag);
                           });
  constexpr std::uint64_t kPerDpid = 200;
  for (std::uint64_t tag = 0; tag < kPerDpid; ++tag) {
    for (std::uint64_t dpid = 1; dpid <= 6; ++dpid) {
      d.submit(ctl::Event{packet_in(dpid, 1, tag)});
    }
  }
  d.drain();
  ASSERT_EQ(seen.size(), 6u);
  for (const auto& [dpid, tags] : seen) {
    ASSERT_EQ(tags.size(), kPerDpid) << "dpid " << dpid;
    EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()))
        << "dpid " << dpid << ": per-switch FIFO order violated";
  }
  const auto st = d.stats();
  EXPECT_EQ(st.dispatched, 6 * kPerDpid);
  EXPECT_EQ(st.barriers, 0u);
}

TEST(ShardedDispatcher, BarrierIsTotallyOrderedAgainstLocals) {
  // Tags: locals carry their submission index; the global carries kGlobalTag.
  // Everything submitted before the global must execute before it, everything
  // after must execute after — on every lane.
  constexpr std::uint64_t kGlobalTag = 1'000'000;
  std::mutex mu;
  std::vector<std::uint64_t> order;
  ctl::ShardedDispatcher d({.shards = 4},
                           [&](ctl::Event e, std::size_t shard) {
                             const auto& pin = std::get<of::PacketIn>(e);
                             if (pin.packet.trace_tag == kGlobalTag) {
                               EXPECT_EQ(shard, ctl::ShardRouter::kGlobal);
                             }
                             std::lock_guard<std::mutex> lk(mu);
                             order.push_back(pin.packet.trace_tag);
                           });
  constexpr std::uint64_t kPre = 120, kPost = 120;
  for (std::uint64_t i = 0; i < kPre; ++i)
    d.submit(ctl::Event{packet_in(1 + i % 8, 1, i)});
  d.submit(ctl::Event{packet_in(0, 1, kGlobalTag)}); // dpid 0 -> barrier
  for (std::uint64_t i = 0; i < kPost; ++i)
    d.submit(ctl::Event{packet_in(1 + i % 8, 1, kPre + i)});
  d.drain();

  ASSERT_EQ(order.size(), kPre + kPost + 1);
  const auto at = std::find(order.begin(), order.end(), kGlobalTag);
  ASSERT_NE(at, order.end());
  for (auto it = order.begin(); it != at; ++it)
    EXPECT_LT(*it, kPre) << "post-barrier event ran before the barrier";
  for (auto it = at + 1; it != order.end(); ++it)
    EXPECT_GE(*it, kPre) << "pre-barrier event ran after the barrier";
  EXPECT_EQ(d.stats().barriers, 1u);
  EXPECT_EQ(d.stats().dispatched, kPre + kPost + 1);
}

TEST(ShardedDispatcher, ReentrantSubmitIsCountedByDrain) {
  // Sinks may submit derived events (the packet-in punt path); drain() must
  // wait for the whole cascade, including cross-lane descendants.
  ctl::ShardedDispatcher* self = nullptr;
  std::atomic<std::uint64_t> handled{0};
  ctl::ShardedDispatcher d({.shards = 4},
                           [&](ctl::Event e, std::size_t) {
                             const auto& pin = std::get<of::PacketIn>(e);
                             handled.fetch_add(1);
                             if (pin.packet.trace_tag < 2) {
                               self->submit(ctl::Event{packet_in(
                                   raw(pin.dpid) + 1, 1, pin.packet.trace_tag + 1)});
                             }
                           });
  self = &d;
  constexpr std::uint64_t kRoots = 16;
  for (std::uint64_t i = 0; i < kRoots; ++i)
    d.submit(ctl::Event{packet_in(1 + i, 1, 0)});
  d.drain();
  EXPECT_EQ(handled.load(), kRoots * 3); // each root spawns depth 1 and 2
  EXPECT_EQ(d.stats().dispatched, kRoots * 3);
}

TEST(ShardedDispatcher, StatsAggregateAcrossLanes) {
  ctl::ShardedDispatcher d({.shards = 3}, [](ctl::Event, std::size_t) {});
  for (std::uint64_t i = 0; i < 30; ++i) d.submit(ctl::Event{packet_in(1 + i % 9, 1, i)});
  for (int i = 0; i < 4; ++i) d.submit(ctl::Event{packet_in(0, 1)});
  d.drain();
  const auto st = d.stats();
  EXPECT_EQ(st.dispatched, 34u);
  EXPECT_EQ(st.barriers, 4u);
  ASSERT_EQ(st.per_shard.size(), 3u);
  std::uint64_t sum = 0;
  for (auto v : st.per_shard) sum += v;
  EXPECT_EQ(sum, st.dispatched);
  EXPECT_GT(st.latency_us.count(), 0u);
}

// Batched submission (DESIGN.md §4.7): seeded interleavings of submit(),
// submit_batch() and global barriers must behave exactly like per-event
// submission — per-switch FIFO holds across both paths, and every barrier
// observes precisely the locals submitted before it (none after). The
// batching stats must show activity on this path.
TEST(ShardedDispatcher, SeededBatchSubmitInterleavePreservesOrder) {
  for (const std::uint64_t seed : {11ull, 29ull, 4242ull}) {
    Rng rng(seed);
    std::mutex mu;
    std::map<std::uint64_t, std::vector<std::uint64_t>> got; // dpid -> tags
    std::atomic<std::uint64_t> locals_done{0};
    std::vector<std::uint64_t> barrier_saw; // locals complete at each barrier
    ctl::ShardedDispatcher d(
        {.shards = 4}, [&](ctl::Event e, std::size_t shard) {
          const auto& pin = std::get<of::PacketIn>(e);
          if (shard == ctl::ShardRouter::kGlobal) {
            // World stopped: no lane is running, so this is race-free.
            barrier_saw.push_back(locals_done.load());
            return;
          }
          std::lock_guard lk(mu);
          got[raw(pin.dpid)].push_back(pin.packet.trace_tag);
          locals_done.fetch_add(1);
        });

    std::map<std::uint64_t, std::vector<std::uint64_t>> want;
    std::vector<std::uint64_t> barrier_want;
    std::uint64_t tag = 0, submitted_locals = 0, barriers = 0;
    for (int step = 0; step < 150; ++step) {
      switch (rng.below(3)) {
      case 0: { // single submit
        const std::uint64_t dpid = 1 + rng.below(6);
        want[dpid].push_back(tag);
        d.submit(ctl::Event{packet_in(dpid, 1, tag++)});
        ++submitted_locals;
        break;
      }
      case 1: { // batch of mixed-lane events
        std::vector<ctl::Event> batch;
        const std::uint64_t n = 1 + rng.below(16);
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint64_t dpid = 1 + rng.below(6);
          want[dpid].push_back(tag);
          batch.push_back(ctl::Event{packet_in(dpid, 1, tag++)});
          ++submitted_locals;
        }
        d.submit_batch(std::move(batch));
        break;
      }
      default: // barrier (dpid 0 routes kGlobal)
        barrier_want.push_back(submitted_locals);
        d.submit(ctl::Event{packet_in(0, 1, tag++)});
        ++barriers;
      }
    }
    d.drain();

    for (const auto& [dpid, tags] : want)
      EXPECT_EQ(got[dpid], tags) << "seed " << seed << " dpid " << dpid;
    EXPECT_EQ(barrier_saw, barrier_want) << "seed " << seed;
    const auto st = d.stats();
    EXPECT_EQ(st.dispatched, tag);
    EXPECT_EQ(st.barriers, barriers);
    EXPECT_GT(st.batches, 0u);
    EXPECT_GT(st.batch_events.count(), 0u);
    EXPECT_GT(st.lock_acquisitions, 0u);
  }
}

// The amortization itself: one large same-switch batch must cost far fewer
// lane-lock acquisitions than events dispatched (per-event submission costs
// at least one acquisition per event before the lane even drains).
TEST(ShardedDispatcher, BatchSubmitAmortizesLockAcquisitions) {
  constexpr std::uint64_t kEvents = 1000;
  ctl::ShardedDispatcher d({.shards = 4}, [](ctl::Event, std::size_t) {});
  std::vector<ctl::Event> batch;
  batch.reserve(kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i)
    batch.push_back(ctl::Event{packet_in(1, 1, i)});
  d.submit_batch(std::move(batch));
  d.drain();
  const auto st = d.stats();
  EXPECT_EQ(st.dispatched, kEvents);
  EXPECT_GT(st.batches, 0u);
  EXPECT_LT(st.lock_acquisitions, kEvents / 2)
      << "a single-lane batch should append and drain in a handful of "
         "lock acquisitions, not one per event";
  EXPECT_GE(st.batch_events.max(), 1.0);
}

// Long-run soak. Lane stats are fixed-size histograms, so recording every
// event's latency and every batch's size keeps lane memory flat; none of
// those samples may be lost on the way in: one latency per dispatched event
// (locals and barriers alike) and one size per drained batch.
TEST(ShardedDispatcher, SoakRecordsEveryEventAndBatch) {
  constexpr std::uint64_t kRounds = 200;
  constexpr std::uint64_t kPerRound = 1000; // one of them a global barrier
  ctl::ShardedDispatcher d({.shards = 2}, [](ctl::Event, std::size_t) {});
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    std::vector<ctl::Event> batch;
    batch.reserve(kPerRound);
    for (std::uint64_t i = 0; i < kPerRound; ++i) {
      const std::uint64_t dpid = i == kPerRound / 2 ? 0 : 1 + i % 8; // 0: kGlobal
      batch.push_back(ctl::Event{packet_in(dpid, 1, i)});
    }
    d.submit_batch(std::move(batch));
    d.drain();
  }
  const auto st = d.stats();
  EXPECT_EQ(st.dispatched, kRounds * kPerRound);
  EXPECT_EQ(d.dispatched(), st.dispatched);
  EXPECT_EQ(st.barriers, kRounds);
  EXPECT_EQ(st.latency_us.count(), st.dispatched);
  EXPECT_EQ(st.batch_events.count(), st.batches);
  EXPECT_EQ(st.batch_events.sum(), static_cast<double>(st.dispatched - st.barriers));
}

// ---------------------------------------------------------------------------
// Differential: serial vs sharded LegoController
// ---------------------------------------------------------------------------

/// Dpid-partitionable probe app. Per-switch state is a running digest bucket;
/// every mutation is a pure function of event content, so the merged bucket
/// map of N clones must equal the serial instance's map exactly. PacketIns
/// whose content hash satisfies the poison predicate crash deterministically
/// (before touching any state), exercising checkpoint/restore and recovery on
/// shard lanes. Each PacketIn also installs one rule at its own switch and a
/// mirror rule at a content-chosen other switch — a cross-shard transaction
/// through the NetLog stripe locks. All matches embed the (unique) event tag,
/// so final table contents are order-independent by construction.
class ShardProbeApp : public ctl::App {
public:
  ShardProbeApp(std::vector<DatapathId> switches, std::uint64_t poison_mod)
      : switches_(std::move(switches)), poison_mod_(poison_mod) {}

  std::string name() const override { return "shard-probe"; }

  std::vector<ctl::EventType> subscriptions() const override {
    return {ctl::EventType::kPacketIn, ctl::EventType::kSwitchUp,
            ctl::EventType::kSwitchDown, ctl::EventType::kLinkDown,
            ctl::EventType::kPortStatus};
  }

  ctl::AppPtr clone() const override {
    return std::make_shared<ShardProbeApp>(switches_, poison_mod_);
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override {
    if (const auto* up = std::get_if<ctl::SwitchUp>(&e)) {
      buckets_[raw(up->dpid)] = mix(buckets_[raw(up->dpid)], 0x5A);
      return ctl::Disposition::kContinue;
    }
    if (const auto* down = std::get_if<ctl::SwitchDown>(&e)) {
      touch(raw(down->dpid), 0xD0);
      return ctl::Disposition::kContinue;
    }
    if (const auto* ld = std::get_if<ctl::LinkDown>(&e)) {
      // Update only buckets this instance owns: on the serial controller that
      // is both endpoints; on a shard clone exactly the endpoints whose dpids
      // hash to its lane — the merged result is identical.
      touch(raw(ld->a.dpid), mix(raw(ld->b.dpid), raw(ld->b.port)));
      touch(raw(ld->b.dpid), mix(raw(ld->a.dpid), raw(ld->a.port)));
      return ctl::Disposition::kContinue;
    }
    if (const auto* ps = std::get_if<of::PortStatus>(&e)) {
      touch(raw(ps->dpid), raw(ps->desc.port) + (ps->desc.link_up ? 1 : 0));
      return ctl::Disposition::kContinue;
    }
    const auto* pin = std::get_if<of::PacketIn>(&e);
    if (!pin) return ctl::Disposition::kContinue;

    const std::uint64_t h =
        mix(raw(pin->dpid),
            mix(raw(pin->in_port),
                mix(pin->packet.hdr.tp_dst, pin->packet.trace_tag)));
    if (poison_mod_ && h % poison_mod_ == 0) {
      throw ctl::AppCrash("probe poison " + std::to_string(h));
    }
    touch(raw(pin->dpid), h);

    // Own-switch rule: exact match on the punted packet.
    of::FlowMod own;
    own.dpid = pin->dpid;
    own.match = of::Match::exact(pin->in_port, pin->packet.hdr);
    own.priority = static_cast<std::uint16_t>(0x4000 + h % 0x3FF);
    own.actions = of::output_to(PortNo{static_cast<std::uint16_t>(1 + h % 4)});
    api.send({api.next_xid(), own});

    // Mirror rule at a content-chosen switch: the same transaction now spans
    // two dpids, which may live on different shards.
    of::PacketHeader mh = pin->packet.hdr;
    mh.tp_src = 0xBEEF; // never collides with an own-rule identity
    of::FlowMod mirror;
    mirror.dpid = switches_[(h >> 16) % switches_.size()];
    mirror.match = of::Match::exact(
        PortNo{static_cast<std::uint16_t>(1 + (h >> 8) % 4)}, mh);
    mirror.priority = static_cast<std::uint16_t>(0x4000 + (h >> 4) % 0x3FF);
    mirror.actions = of::output_to(PortNo{1});
    api.send({api.next_xid(), mirror});
    return ctl::Disposition::kContinue;
  }

  std::vector<std::uint8_t> snapshot_state() const override {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(buckets_.size()));
    for (const auto& [dpid, digest] : buckets_) { // std::map: sorted, canonical
      w.u64(dpid);
      w.u64(digest);
    }
    return std::move(w).take();
  }

  void restore_state(std::span<const std::uint8_t> state) override {
    buckets_.clear();
    ByteReader r(state);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const std::uint64_t dpid = r.u64();
      const std::uint64_t digest = r.u64();
      if (r.ok()) buckets_[dpid] = digest;
    }
  }

  void reset() override { buckets_.clear(); }

private:
  void touch(std::uint64_t dpid, std::uint64_t h) {
    auto it = buckets_.find(dpid);
    if (it != buckets_.end()) it->second = mix(it->second, h);
  }

  std::map<std::uint64_t, std::uint64_t> buckets_;
  std::vector<DatapathId> switches_;
  std::uint64_t poison_mod_;
};

/// Everything a scenario run must agree on across shard counts.
struct Outcome {
  std::map<std::uint64_t, std::uint64_t> table_digests; ///< dpid -> logical
  std::map<std::uint64_t, std::uint64_t> probe_state;   ///< merged buckets
  std::uint64_t netlog_begun = 0;
  std::uint64_t netlog_committed = 0;
  std::uint64_t netlog_rolled_back = 0;
  std::uint64_t failstop_crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t events_ignored = 0;
  std::uint64_t txns_committed = 0;
  std::size_t recorder_events = 0;
  std::size_t probe_entries = 0;
  std::vector<std::string> traces; ///< forwarding traces over the final tables

  bool operator==(const Outcome&) const = default;
};

std::string trace_of(const netsim::DeliveryResult& r) {
  std::ostringstream os;
  os << static_cast<int>(r.outcome) << " hops=" << r.hops << " punts=" << r.punts
     << " drops=" << r.drops << " path=";
  for (const auto& loc : r.path) os << raw(loc.dpid) << ":" << raw(loc.port) << ",";
  os << " to=";
  std::vector<std::uint64_t> macs;
  for (const auto& m : r.delivered_to) macs.push_back(m.to_uint64());
  std::sort(macs.begin(), macs.end());
  for (auto m : macs) os << m << ",";
  return os.str();
}

struct ChurnFlow {
  DatapathId dpid{};
  PortNo in_port{};
  of::Packet packet{};
};

Outcome run_scenario(std::uint64_t seed, std::size_t shards) {
  auto net = netsim::Network::fat_tree(4); // 20 switches, 16 hosts
  LegoConfig cfg;
  cfg.dispatch.shards = shards;
  // The verification baseline is a whole-network reachability trace, which is
  // a function of *which* commits landed before the verifying transaction —
  // legitimately different between interleavings. The differential pins down
  // the commit path itself, so verification stays off here.
  cfg.byzantine_detection = false;
  // Synchronous encodes keep restore points exact, so the recovery replay
  // span is empty in both modes and the oracle compares pure event effects.
  cfg.checkpoint.async = false;
  LegoController c(*net, cfg);

  c.add_app(std::make_shared<ShardProbeApp>(net->switch_ids(), /*poison_mod=*/23));
  auto recorder = std::make_shared<RecorderApp>(
      "recorder", std::vector<ctl::EventType>{ctl::EventType::kPacketIn});
  c.add_app(recorder); // not cloneable: reached from every lane, serialized
  EXPECT_TRUE(c.start_system());
  c.run(); // switch announcements

  const auto ids = net->switch_ids();
  Rng rng(seed);
  std::vector<ChurnFlow> flows;
  constexpr std::size_t kEvents = 160;
  for (std::size_t i = 0; i < kEvents; ++i) {
    const std::uint64_t kind = rng.below(100);
    if (kind < 80) {
      of::PacketIn pin;
      pin.dpid = ids[rng.below(ids.size())];
      pin.in_port = PortNo{static_cast<std::uint16_t>(1 + rng.below(4))};
      pin.packet = packet_between(mac(0x1000 + rng.below(64)),
                                  mac(0x2000 + rng.below(64)),
                                  static_cast<std::uint16_t>(i), i);
      flows.push_back({pin.dpid, pin.in_port, pin.packet});
      c.inject_event(ctl::Event{pin});
    } else if (kind < 85) {
      c.inject_event(ctl::Event{ctl::SwitchDown{ids[rng.below(ids.size())]}});
    } else if (kind < 90) {
      c.inject_event(ctl::Event{ctl::SwitchUp{ids[rng.below(ids.size())]}});
    } else if (kind < 95) {
      const auto& l = net->links()[rng.below(net->links().size())];
      c.inject_event(ctl::Event{ctl::LinkDown{l.a, l.b}});
    } else {
      of::PortStatus ps;
      ps.dpid = ids[rng.below(ids.size())];
      ps.reason = of::PortReason::kModify;
      ps.desc.port = PortNo{static_cast<std::uint16_t>(1 + rng.below(4))};
      ps.desc.link_up = rng.chance(0.5);
      c.inject_event(ctl::Event{ps});
    }
  }
  while (c.run() > 0) {
  }

  Outcome out;
  for (DatapathId d : ids)
    out.table_digests[raw(d)] = net->switch_at(d)->table().logical_digest();

  // Forwarding traces: re-inject a sample of the churn flows at their punt
  // locators; they hit the probe's exact-match rules and walk the final
  // tables. Identical tables => identical traces.
  const std::size_t n_probes = std::min<std::size_t>(10, flows.size());
  for (std::size_t j = 0; j < n_probes; ++j) {
    const ChurnFlow& f = flows[j * flows.size() / n_probes];
    const auto r = net->inject_at({f.dpid, f.in_port}, f.packet);
    out.traces.push_back(trace_of(r));
    while (c.run() > 0) { // absorb the punt cascade before the next probe
    }
  }

  for (auto& entry : c.appvisor().entries()) {
    if (entry.domain->app_name() != "shard-probe") continue;
    out.probe_entries += 1;
    auto snap = entry.domain->snapshot();
    EXPECT_TRUE(snap);
    ByteReader r(snap.value());
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const std::uint64_t dpid = r.u64();
      const std::uint64_t digest = r.u64();
      // Clone bucket sets must partition: no dpid may appear in two clones.
      EXPECT_FALSE(out.probe_state.contains(dpid))
          << "dpid " << dpid << " owned by two clones";
      out.probe_state[dpid] = digest;
    }
  }

  const auto ns = c.netlog().stats();
  out.netlog_begun = ns.begun;
  out.netlog_committed = ns.committed;
  out.netlog_rolled_back = ns.rolled_back;
  const auto ls = c.lego_stats();
  out.failstop_crashes = ls.failstop_crashes;
  out.recoveries = ls.recoveries;
  out.events_ignored = ls.events_ignored;
  out.txns_committed = ls.txns_committed;
  out.recorder_events = recorder->events.size();
  return out;
}

void expect_equal(const Outcome& serial, const Outcome& sharded,
                  std::uint64_t seed) {
  EXPECT_EQ(serial.table_digests, sharded.table_digests) << "seed " << seed;
  EXPECT_EQ(serial.probe_state, sharded.probe_state) << "seed " << seed;
  EXPECT_EQ(serial.netlog_begun, sharded.netlog_begun) << "seed " << seed;
  EXPECT_EQ(serial.netlog_committed, sharded.netlog_committed) << "seed " << seed;
  EXPECT_EQ(serial.netlog_rolled_back, sharded.netlog_rolled_back)
      << "seed " << seed;
  EXPECT_EQ(serial.failstop_crashes, sharded.failstop_crashes) << "seed " << seed;
  EXPECT_EQ(serial.recoveries, sharded.recoveries) << "seed " << seed;
  EXPECT_EQ(serial.events_ignored, sharded.events_ignored) << "seed " << seed;
  EXPECT_EQ(serial.txns_committed, sharded.txns_committed) << "seed " << seed;
  EXPECT_EQ(serial.recorder_events, sharded.recorder_events) << "seed " << seed;
  EXPECT_EQ(serial.traces, sharded.traces) << "seed " << seed;
}

std::size_t diff_seed_count() {
  if (const char* env = std::getenv("LEGOSDN_SHARD_DIFF_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 50;
}

constexpr std::uint64_t kBaseSeed = 0x5AD0F00D;

TEST(ShardDifferential, ClonesPartitionAndCrashesAreAbsorbed) {
  const Outcome o = run_scenario(kBaseSeed, 4);
  EXPECT_EQ(o.probe_entries, 4u);            // one clone per shard
  EXPECT_GT(o.failstop_crashes, 0u);         // the poison predicate fired
  EXPECT_EQ(o.recoveries, o.failstop_crashes);
  EXPECT_EQ(o.events_ignored, o.failstop_crashes); // Absolute Compromise
  EXPECT_GT(o.txns_committed, 0u);
  EXPECT_EQ(o.probe_state.size(), 20u); // every fat-tree(4) switch has a bucket
}

TEST(ShardDifferential, ShardedRunIsDeterministic) {
  const Outcome a = run_scenario(kBaseSeed + 1, 4);
  const Outcome b = run_scenario(kBaseSeed + 1, 4);
  EXPECT_TRUE(a == b);
}

TEST(ShardDifferential, SerialAndShardedConverge) {
  const std::size_t n = diff_seed_count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = kBaseSeed + i;
    const Outcome serial = run_scenario(seed, 1);
    const Outcome sharded = run_scenario(seed, 4);
    EXPECT_EQ(serial.probe_entries, 1u);
    EXPECT_EQ(sharded.probe_entries, 4u);
    expect_equal(serial, sharded, seed);
  }
}

TEST(ShardDifferential, TwoShardsAlsoConverge) {
  // A second shard count catches routing bugs that a lucky 4-way hash hides.
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = kBaseSeed + 100 + i;
    expect_equal(run_scenario(seed, 1), run_scenario(seed, 2), seed);
  }
}

} // namespace
} // namespace legosdn::lego
