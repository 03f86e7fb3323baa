// Checkpoint module tests: the chunk diff codec, the snapshot store (newest
// whole, older snapshots as backward diffs, checked against a reference that
// keeps full copies), the checkpoint worker, and the event log.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <thread>

#include "checkpoint/checkpoint_worker.hpp"
#include "checkpoint/delta_codec.hpp"
#include "checkpoint/event_log.hpp"
#include "checkpoint/snapshot_store.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"

namespace legosdn::checkpoint {
namespace {

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  return b;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Bytes b(n);
  Rng rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

// --- chunk diff codec ---

TEST(DeltaCodec, DiffChunksRebuildsGrowthAndShrink) {
  static_assert(kChunkSize == 1024);
  const Bytes base = random_bytes(5000, 1);
  Bytes one_byte = base;
  one_byte[2100] ^= 1;
  Bytes grown = base;
  grown.resize(7000, 0x33);
  const Bytes shrunk(base.begin(), base.begin() + 2500); // mid-chunk
  for (const Bytes& next : {base, one_byte, grown, shrunk, Bytes{}}) {
    const auto dirty = diff_chunks(base, next);
    Bytes out = base;
    ASSERT_TRUE(apply_chunks(out, next.size(), dirty).ok());
    EXPECT_EQ(out, next);
  }
  EXPECT_TRUE(diff_chunks(base, base).empty());
  ASSERT_EQ(diff_chunks(base, one_byte).size(), 1u);
  EXPECT_EQ(diff_chunks(base, one_byte)[0].index, 2u);
  EXPECT_EQ(diff_chunks(base, grown).size(), 3u); // tail 4 + new 5, 6
  EXPECT_TRUE(diff_chunks(base, shrunk).empty()); // truncation only
  EXPECT_EQ(diff_chunks({}, base).size(), 5u);    // no base: all
}

TEST(DeltaCodec, MalformedChunksRejectedBeforeStateIsTouched) {
  const Bytes base = random_bytes(3000, 2);
  const Bytes next = random_bytes(5000, 3);
  const auto good = diff_chunks(base, next); // chunks 0..4
  ASSERT_EQ(good.size(), 5u);

  std::vector<std::pair<const char*, std::vector<DirtyChunk>>> bad;
  auto past_end = good;
  past_end[4].index = 9;
  bad.push_back({"chunk outside size", past_end});
  auto huge_index = good;
  huge_index[4].index = 0xFFFFFFFFu;
  bad.push_back({"index overflow", huge_index});
  auto uncovered = good;
  uncovered.erase(uncovered.begin() + 3); // bytes 3072..4095 lie past the base
  bad.push_back({"growth uncovered", uncovered});
  auto unordered = good;
  std::swap(unordered[1], unordered[2]);
  bad.push_back({"out of order", unordered});
  auto short_data = good;
  short_data[1].data.pop_back();
  bad.push_back({"chunk shorter than kChunkSize", short_data});
  auto long_tail = good;
  long_tail[4].data.push_back(0); // the tail chunk holds 5000 - 4096 bytes
  bad.push_back({"tail chunk longer than the state", long_tail});
  for (const auto& [what, dirty] : bad) {
    Bytes state = base;
    EXPECT_FALSE(apply_chunks(state, next.size(), dirty).ok()) << what;
    EXPECT_EQ(state, base) << what << ": state touched";
  }
  // A delta that rewrites bytes inside the base alone needs no coverage.
  Bytes state = base;
  const std::vector<DirtyChunk> inside{good[1]};
  ASSERT_TRUE(apply_chunks(state, base.size(), inside).ok());
  Bytes expect = base;
  std::copy(next.begin() + 1024, next.begin() + 2048, expect.begin() + 1024);
  EXPECT_EQ(state, expect);
}

// --- snapshot store ---

TEST(SnapshotStore, LatestAndCount) {
  SnapshotStore store(4);
  const AppId app{1};
  EXPECT_FALSE(store.latest(app).has_value());
  store.put(app, 1, kSimStart, pattern(64, 0xA));
  store.put(app, 2, kSimStart, pattern(64, 0xB));
  const auto latest = store.latest(app);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->event_seq, 2u);
  EXPECT_EQ(latest->state, pattern(64, 0xB));
  EXPECT_EQ(store.count(app), 2u);
}

TEST(SnapshotStore, MaterializesChains) {
  SnapshotStore store(8);
  const AppId app{1};
  Bytes s0 = pattern(5000, 1);
  Bytes s1 = s0;
  s1[100] ^= 0xFF;
  Bytes s2 = s1;
  s2[4900] ^= 0xFF;
  EXPECT_TRUE(store.put(app, 10, kSimStart, s0).first);
  const SnapshotStore::Put put = store.put(app, 20, kSimStart, s1);
  EXPECT_FALSE(put.first);
  // s0 is kept as the one chunk that differs from s1.
  EXPECT_EQ(put.stored_bytes, sizeof(DirtyChunk) + kChunkSize);
  store.put(app, 30, kSimStart, s2);

  EXPECT_EQ(store.latest(app)->state, s2);
  EXPECT_EQ(store.at_or_before(app, 25)->state, s1);
  EXPECT_EQ(store.at_or_before(app, 30)->state, s2);
  EXPECT_FALSE(store.at_or_before(app, 9).has_value());
  EXPECT_EQ(store.oldest(app)->state, s0);
  EXPECT_EQ(store.latest_seq(app), 30u);
  EXPECT_EQ(store.oldest_seq(app), 10u);
}

TEST(SnapshotStore, BoundedHistoryEvictsOldest) {
  SnapshotStore store(3);
  const AppId app{1};
  for (std::uint64_t i = 1; i <= 5; ++i)
    store.put(app, i, kSimStart, pattern(32, std::uint8_t(i)));
  EXPECT_EQ(store.count(app), 3u);
  EXPECT_EQ(store.oldest(app)->event_seq, 3u);
  EXPECT_EQ(store.oldest_seq(app), 3u);
  EXPECT_EQ(store.latest(app)->event_seq, 5u);
}

TEST(SnapshotStore, AppsAreIndependent) {
  SnapshotStore store(4);
  store.put(AppId{1}, 1, kSimStart, pattern(16, 0xA));
  store.put(AppId{2}, 7, kSimStart, pattern(16, 0xB));
  EXPECT_EQ(store.latest(AppId{1})->event_seq, 1u);
  EXPECT_EQ(store.latest(AppId{2})->event_seq, 7u);
  store.clear(AppId{1});
  EXPECT_FALSE(store.latest(AppId{1}).has_value());
  EXPECT_FALSE(store.oldest_seq(AppId{1}).has_value());
  EXPECT_TRUE(store.latest(AppId{2}).has_value());
}

/// Executable specification of SnapshotStore: per app, a deque of full
/// copies (oldest first), bounded by keep.
struct ReferenceStore {
  struct Entry {
    std::uint64_t seq = 0;
    SimTime taken_at{};
    Bytes state;
  };
  std::size_t keep = 1;
  std::map<std::uint32_t, std::deque<Entry>> apps;

  /// Bytes a backward diff keeps of `older` next to `newer`: every chunk of
  /// `older` that differs from `newer` at the same offset or lies past its
  /// end, plus the per-chunk overhead.
  static std::size_t diff_bytes(const Bytes& older, const Bytes& newer) {
    std::size_t n = 0;
    for (std::size_t off = 0; off < older.size(); off += kChunkSize) {
      const std::size_t len = std::min(kChunkSize, older.size() - off);
      const auto first = older.begin() + static_cast<std::ptrdiff_t>(off);
      const bool same =
          off + len <= newer.size() &&
          std::equal(first, first + static_cast<std::ptrdiff_t>(len),
                     newer.begin() + static_cast<std::ptrdiff_t>(off));
      if (!same) n += sizeof(DirtyChunk) + len;
    }
    return n;
  }

  std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& [id, q] : apps) {
      n += q.back().state.size();
      for (std::size_t i = 0; i + 1 < q.size(); ++i)
        n += diff_bytes(q[i].state, q[i + 1].state);
    }
    return n;
  }

  std::size_t logical_bytes() const {
    std::size_t n = 0;
    for (const auto& [id, q] : apps)
      for (const auto& e : q) n += e.state.size();
    return n;
  }
};

void expect_same(const std::optional<Snapshot>& got,
                 const ReferenceStore::Entry& want, const std::string& what) {
  ASSERT_TRUE(got.has_value()) << what;
  EXPECT_EQ(got->event_seq, want.seq) << what;
  EXPECT_EQ(got->taken_at, want.taken_at) << what;
  EXPECT_EQ(got->state, want.state) << what;
}

/// One state change: unchanged, a few flipped bytes, a run inserted or
/// erased (shifting the tail), or a rewrite at a size that may be 0 or sit
/// on either side of a chunk boundary.
Bytes mutate(const Bytes& prev, Rng& rng) {
  Bytes next = prev;
  switch (rng.below(4)) {
    case 0:
      break;
    case 1:
      for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n && !next.empty(); ++i)
        next[rng.below(next.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    case 2: {
      const std::size_t at = rng.below(next.size() + 1);
      const std::size_t len = 1 + rng.below(1500);
      if (rng.chance(0.5) || at == next.size()) {
        const Bytes run = random_bytes(len, rng.next());
        next.insert(next.begin() + static_cast<std::ptrdiff_t>(at), run.begin(),
                    run.end());
      } else {
        const std::size_t end = std::min(next.size(), at + len);
        next.erase(next.begin() + static_cast<std::ptrdiff_t>(at),
                   next.begin() + static_cast<std::ptrdiff_t>(end));
      }
      break;
    }
    default: {
      static constexpr std::size_t kSizes[] = {0,    1,    1023, 1024,
                                               1025, 2048, 3071};
      const std::size_t size = rng.chance(0.5) ? kSizes[rng.below(std::size(kSizes))]
                                               : rng.below(6 * kChunkSize);
      next = random_bytes(size, rng.next());
      break;
    }
  }
  return next;
}

// The store against ReferenceStore over seeded histories: keep 1-9, 1-3
// apps, 30-200 puts each of one mutate() step, clear() interleaved. After
// every put each read the store offers must match the reference, and so
// must its byte accounting.
TEST(SnapshotStore, MatchesFullCopyReferenceAcrossSeeds) {
  constexpr std::uint64_t kSeeds = 240;
  std::uint64_t puts = 0;
  std::uint64_t clears = 0;
  std::uint64_t evictions = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    ReferenceStore ref;
    ref.keep = 1 + rng.below(9);
    const auto napps = static_cast<std::uint32_t>(1 + rng.below(3));
    const std::uint64_t nputs = 30 + rng.below(171);
    SnapshotStore store(ref.keep);
    std::map<std::uint32_t, Bytes> current;
    std::map<std::uint32_t, std::uint64_t> next_seq;
    for (std::uint64_t step = 0; step < nputs; ++step) {
      const auto id = static_cast<std::uint32_t>(1 + rng.below(napps));
      const AppId app{id};
      const std::string what = "seed " + std::to_string(seed) + " step " +
                               std::to_string(step) + " app " + std::to_string(id);
      if (rng.chance(0.03)) {
        store.clear(app);
        ref.apps.erase(id);
        clears += 1;
        EXPECT_FALSE(store.latest(app).has_value()) << what;
        EXPECT_EQ(store.count(app), 0u) << what;
      }
      Bytes state = mutate(current[id], rng);
      current[id] = state;
      // Gaps between seqs leave room for a seq no snapshot carries.
      const std::uint64_t seq = next_seq[id] += 1 + rng.below(3);
      const SimTime at = from_us(static_cast<std::int64_t>(seq));
      auto& q = ref.apps[id];
      const bool first = q.empty();
      const std::size_t expect_stored =
          first ? state.size() : ReferenceStore::diff_bytes(q.back().state, state);
      q.push_back({seq, at, state});
      if (q.size() > ref.keep) {
        q.pop_front();
        evictions += 1;
      }

      const SnapshotStore::Put put = store.put(app, seq, at, std::move(state));
      puts += 1;
      EXPECT_EQ(put.first, first) << what;
      EXPECT_EQ(put.stored_bytes, expect_stored) << what;

      expect_same(store.latest(app), q.back(), what + " latest");
      expect_same(store.oldest(app), q.front(), what + " oldest");
      std::vector<std::uint64_t> want_seqs;
      for (std::size_t i = 0; i < q.size(); ++i) {
        want_seqs.push_back(q[i].seq);
        expect_same(store.at_or_before(app, q[i].seq), q[i],
                    what + " at_or_before #" + std::to_string(i));
      }
      if (q.size() >= 2) {
        // A seq strictly between two retained ones reads the older.
        const std::size_t i = rng.below(q.size() - 1);
        if (q[i + 1].seq - q[i].seq >= 2)
          expect_same(store.at_or_before(app, q[i].seq + 1), q[i],
                      what + " between");
      }
      EXPECT_FALSE(store.at_or_before(app, q.front().seq - 1).has_value()) << what;
      EXPECT_EQ(store.seqs(app), want_seqs) << what;
      EXPECT_EQ(store.count(app), q.size()) << what;
      EXPECT_EQ(store.latest_seq(app), q.back().seq) << what;
      EXPECT_EQ(store.oldest_seq(app), q.front().seq) << what;
      EXPECT_EQ(store.total_bytes(), ref.total_bytes()) << what;
      EXPECT_EQ(store.stats().logical_bytes, ref.logical_bytes()) << what;
      if (::testing::Test::HasFailure()) return;
    }
    for (std::uint32_t id = 1; id <= napps; ++id) store.clear(AppId{id});
    EXPECT_EQ(store.total_bytes(), 0u) << "seed " << seed;
    EXPECT_EQ(store.stats().logical_bytes, 0u) << "seed " << seed;
    EXPECT_EQ(store.stats().compose_failures, 0u) << "seed " << seed;
  }
  // The corpus exercised what it claims to.
  EXPECT_GT(puts, kSeeds * 30);
  EXPECT_GT(clears, 0u);
  EXPECT_GT(evictions, 0u);
}

// --- checkpoint worker ---

TEST(CheckpointWorker, SyncModeStoresInline) {
  SnapshotStore store(8);
  CheckpointWorker worker(store, {.async = false});
  worker.submit(AppId{1}, 1, kSimStart, pattern(512, 3));
  // No flush needed: sync mode encodes on the calling thread.
  EXPECT_EQ(store.latest_seq(AppId{1}), 1u);
  EXPECT_EQ(worker.in_flight(), 0u);
  EXPECT_EQ(worker.stats().encoded_inline, 1u);
  EXPECT_EQ(worker.stats().inline_encodes, 0u); // not a backpressure fallback
}

TEST(CheckpointWorker, AsyncEncodesOffThreadAndFlushes) {
  SnapshotStore store(16);
  CheckpointWorker worker(store, {.async = true});
  // 64 KiB of state with one dirty byte per event: each backward diff
  // carries one or two chunks of the sixty-four, so the stored footprint
  // must shrink.
  Bytes state = pattern(64 * 1024, 1);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    state[seq * 97 % state.size()] ^= 0xFF;
    worker.submit(AppId{1}, seq, kSimStart, Bytes(state));
  }
  worker.flush();
  EXPECT_EQ(store.count(AppId{1}), 10u);
  EXPECT_EQ(store.latest(AppId{1})->state, state);
  const auto ws = worker.stats();
  EXPECT_EQ(ws.submitted, 10u);
  EXPECT_EQ(ws.encoded_async, 10u);
  // The first put lands whole; each later one diffs its predecessor.
  EXPECT_EQ(ws.full_snapshots, 1u);
  EXPECT_EQ(ws.delta_snapshots, 9u);
  EXPECT_EQ(ws.encode_lag_us.count(), 10u);
  EXPECT_GT(ws.raw_bytes, ws.stored_bytes); // diffs shrank the footprint
  EXPECT_LT(ws.stored_bytes, state.size() + 9 * 2 * (sizeof(DirtyChunk) + kChunkSize));
}

TEST(CheckpointWorker, BackpressureFallsBackInline) {
  SnapshotStore store(64);
  CheckpointWorker::Config wcfg;
  wcfg.async = true;
  wcfg.max_queue = 1;
  wcfg.encode_delay = std::chrono::microseconds(2000);
  CheckpointWorker worker(store, wcfg);
  for (std::uint64_t seq = 1; seq <= 6; ++seq)
    worker.submit(AppId{1}, seq, kSimStart, pattern(256, std::uint8_t(seq)));
  worker.flush();
  EXPECT_EQ(store.count(AppId{1}), 6u);
  EXPECT_GT(worker.stats().inline_encodes, 0u);
  // Ordering survived the inline fallbacks: seqs are strictly increasing.
  const auto seqs = store.seqs(AppId{1});
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
}

TEST(CheckpointWorker, InFlightVisibleWithEncodeDelay) {
  SnapshotStore store(8);
  CheckpointWorker::Config wcfg;
  wcfg.async = true;
  wcfg.encode_delay = std::chrono::microseconds(20000);
  CheckpointWorker worker(store, wcfg);
  worker.submit(AppId{1}, 1, kSimStart, pattern(128, 1));
  EXPECT_GT(worker.in_flight(), 0u); // still encoding (20ms artificial delay)
  EXPECT_FALSE(store.latest_seq(AppId{1}).has_value());
  worker.flush();
  EXPECT_EQ(worker.in_flight(), 0u);
  EXPECT_EQ(store.latest_seq(AppId{1}), 1u);
}

// Every app's history depends on its snapshots landing in submission order.
// Hammer the worker from several threads (each owning disjoint apps, so
// per-app submission order is well defined), with a queue small enough to
// force backpressure inline fallbacks, and check each app's stored history:
// exact sequence, no gaps, the latest state byte-identical to the last
// capture and the oldest, rebuilt through every backward diff, to the first.
TEST(CheckpointWorker, PoolPreservesPerAppOrderUnderConcurrency) {
  SnapshotStore store(64);
  CheckpointWorker::Config wcfg;
  wcfg.async = true;
  wcfg.max_queue = 2;
  wcfg.encode_delay = std::chrono::microseconds(200);
  CheckpointWorker worker(store, wcfg);

  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kAppsPerThread = 3;
  constexpr std::uint64_t kSubmitsPerApp = 16;
  std::vector<std::thread> submitters;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&worker, t] {
      for (std::uint64_t seq = 1; seq <= kSubmitsPerApp; ++seq) {
        for (std::uint32_t a = 0; a < kAppsPerThread; ++a) {
          const AppId app{1 + t * kAppsPerThread + a};
          Bytes state = pattern(1024, std::uint8_t(raw(app)));
          state[seq * 131 % state.size()] ^= std::uint8_t(seq);
          worker.submit(app, seq, kSimStart, std::move(state));
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  worker.flush();
  EXPECT_EQ(worker.in_flight(), 0u);

  for (std::uint32_t id = 1; id <= kThreads * kAppsPerThread; ++id) {
    const AppId app{id};
    const auto seqs = store.seqs(app);
    ASSERT_EQ(seqs.size(), kSubmitsPerApp) << "app " << id;
    for (std::uint64_t i = 0; i < kSubmitsPerApp; ++i)
      ASSERT_EQ(seqs[i], i + 1) << "app " << id; // exact order, no drops
    for (const std::uint64_t seq : {std::uint64_t{1}, kSubmitsPerApp}) {
      Bytes expect = pattern(1024, std::uint8_t(id));
      expect[seq * 131 % expect.size()] ^= std::uint8_t(seq);
      const auto snap = store.at_or_before(app, seq);
      ASSERT_TRUE(snap.has_value()) << "app " << id;
      EXPECT_EQ(snap->state, expect) << "app " << id << " seq " << seq;
    }
  }
  const auto ws = worker.stats();
  EXPECT_EQ(ws.submitted, kThreads * kAppsPerThread * kSubmitsPerApp);
  EXPECT_EQ(ws.encoded_async + ws.encoded_inline, ws.submitted);
  EXPECT_EQ(store.stats().compose_failures, 0u);
}

// --- event log (unchanged semantics) ---

TEST(EventLog, AppendAndRange) {
  EventLog log;
  const AppId app{1};
  for (std::uint64_t i = 0; i < 10; ++i)
    log.append(app, i, ctl::Event{ctl::SwitchDown{DatapathId{i}}});
  auto r = log.range(app, 3, 7);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.front().seq, 3u);
  EXPECT_EQ(r.back().seq, 6u);
  EXPECT_EQ(std::get<ctl::SwitchDown>(r.front().event).dpid, DatapathId{3});
}

TEST(EventLog, TruncateDropsPrefix) {
  EventLog log;
  const AppId app{1};
  for (std::uint64_t i = 0; i < 10; ++i)
    log.append(app, i, ctl::Event{of::PacketIn{}});
  log.truncate(app, 6);
  EXPECT_EQ(log.count(app), 4u);
  EXPECT_TRUE(log.range(app, 0, 6).empty());
  EXPECT_EQ(log.range(app, 0, 100).size(), 4u);
}

TEST(EventLog, BoundedCapacity) {
  EventLog log(16);
  const AppId app{1};
  for (std::uint64_t i = 0; i < 100; ++i)
    log.append(app, i, ctl::Event{of::PacketIn{}});
  EXPECT_EQ(log.count(app), 16u);
  EXPECT_EQ(log.range(app, 0, 1000).front().seq, 84u);
}

} // namespace
} // namespace legosdn::checkpoint
