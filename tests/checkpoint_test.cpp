// Checkpoint module tests: delta codec, snapshot store (chain composition,
// eviction rebase, byte accounting), checkpoint worker, and the event log.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <unordered_set>

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

// --- RLE ---

TEST(Rle, RoundTripsRunsAndLiterals) {
  for (const Bytes& in :
       {Bytes{}, Bytes(1, 0xAB), Bytes(500, 0x00), pattern(1000, 3),
        random_bytes(4096, 7), Bytes{1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 4}}) {
    const Bytes packed = rle_compress(in);
    auto out = rle_decompress(packed, in.size());
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), in);
  }
}

TEST(Rle, CompressesRunsExpandsNothingMuch) {
  const Bytes zeros(1 << 16, 0);
  EXPECT_LT(rle_compress(zeros).size(), zeros.size() / 50);
  // Incompressible input grows by at most ~1 byte per 128.
  const Bytes rnd = random_bytes(1 << 14, 99);
  EXPECT_LE(rle_compress(rnd).size(), rnd.size() + rnd.size() / 100 + 16);
}

TEST(Rle, RejectsMalformedInput) {
  // Literal run header promising more bytes than present.
  EXPECT_FALSE(rle_decompress(Bytes{0x05, 1, 2}, 6).ok());
  // Run token with no repeat byte.
  EXPECT_FALSE(rle_decompress(Bytes{0x80}, 3).ok());
  // Output size mismatch both ways.
  EXPECT_FALSE(rle_decompress(rle_compress(Bytes(10, 1)), 9).ok());
  EXPECT_FALSE(rle_decompress(rle_compress(Bytes(10, 1)), 11).ok());
}

// --- chunk hashing + delta encode/apply ---

TEST(DeltaCodec, ChunkHashesCoverPartialTail) {
  const Bytes state = pattern(10000, 1);
  const auto hashes = chunk_hashes(state, 4096);
  ASSERT_EQ(hashes.size(), 3u); // 4096 + 4096 + 1808
  // Tail hash covers exactly the tail bytes.
  EXPECT_EQ(hashes[2], chunk_hash({state.data() + 8192, state.size() - 8192}));
}

TEST(DeltaCodec, FullRoundTrip) {
  CodecConfig cfg;
  for (bool compress : {false, true}) {
    cfg.compress = compress;
    const Bytes state = pattern(9000, 5);
    const EncodedSnapshot snap = encode_full(7, kSimStart, Bytes(state), cfg);
    EXPECT_TRUE(snap.is_full);
    EXPECT_EQ(snap.state_size, state.size());
    auto out = decode_full(snap);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), state);
  }
}

TEST(DeltaCodec, DeltaCarriesOnlyDirtyChunks) {
  CodecConfig cfg;
  cfg.chunk_size = 1024;
  const Bytes base = pattern(8 * 1024, 1);
  Bytes next = base;
  next[3 * 1024 + 5] ^= 0xFF; // dirty exactly chunk 3

  const auto base_hashes = chunk_hashes(base, cfg.chunk_size);
  const EncodedSnapshot delta =
      encode_delta(2, kSimStart, Bytes(next), base_hashes, base.size(), cfg);
  EXPECT_FALSE(delta.is_full);
  ASSERT_EQ(delta.dirty.size(), 1u);
  EXPECT_EQ(delta.dirty[0].index, 3u);

  Bytes composed = base;
  ASSERT_TRUE(apply_delta(composed, delta, cfg.chunk_size).ok());
  EXPECT_EQ(composed, next);
}

TEST(DeltaCodec, DeltaHandlesGrowthAndTruncation) {
  CodecConfig cfg;
  cfg.chunk_size = 1024;
  const Bytes base = pattern(4096 + 100, 2); // partial tail chunk

  // Growth: new chunks plus the reshaped tail are dirty.
  Bytes grown = base;
  grown.resize(7000, 0x33);
  const auto base_hashes = chunk_hashes(base, cfg.chunk_size);
  const EncodedSnapshot d1 =
      encode_delta(3, kSimStart, Bytes(grown), base_hashes, base.size(), cfg);
  Bytes composed = base;
  ASSERT_TRUE(apply_delta(composed, d1, cfg.chunk_size).ok());
  EXPECT_EQ(composed, grown);

  // Truncation: state shrinks below the base.
  Bytes shrunk(base.begin(), base.begin() + 2000);
  const EncodedSnapshot d2 =
      encode_delta(4, kSimStart, Bytes(shrunk), base_hashes, base.size(), cfg);
  composed = base;
  ASSERT_TRUE(apply_delta(composed, d2, cfg.chunk_size).ok());
  EXPECT_EQ(composed, shrunk);
  // The surviving complete chunk (index 0) was clean and not re-sent.
  for (const auto& dc : d2.dirty) EXPECT_NE(dc.index, 0u);
}

TEST(DeltaCodec, CompressedDeltaRoundTrips) {
  CodecConfig cfg;
  cfg.chunk_size = 2048;
  cfg.compress = true;
  const Bytes base(16 * 1024, 0);
  Bytes next = base;
  std::fill(next.begin() + 4096, next.begin() + 6144, 0x77); // compressible dirt

  const EncodedSnapshot delta = encode_delta(
      1, kSimStart, Bytes(next), chunk_hashes(base, cfg.chunk_size), base.size(), cfg);
  ASSERT_FALSE(delta.dirty.empty());
  EXPECT_TRUE(delta.dirty[0].compressed);
  Bytes composed = base;
  ASSERT_TRUE(apply_delta(composed, delta, cfg.chunk_size).ok());
  EXPECT_EQ(composed, next);
}

// Every single-bit flip of one 4 KiB chunk, top-bit flips in pairs of its
// words, and a seeded corpus of random chunks: no two hash alike.
TEST(DeltaCodec, ChunkHashHasNoCollisionsOnSeededCorpus) {
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kWords = kChunk / 8;
  std::unordered_set<std::uint64_t> seen;
  std::size_t hashed = 0;
  auto add = [&](const Bytes& c) {
    seen.insert(chunk_hash(c));
    hashed += 1;
  };
  for (std::uint64_t s = 1; s <= 256; ++s) add(random_bytes(kChunk, s));

  const Bytes base = random_bytes(kChunk, 9999);
  Bytes c = base;
  for (std::size_t bit = 0; bit < kChunk * 8; ++bit) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    c[bit / 8] ^= mask;
    add(c);
    c[bit / 8] ^= mask;
  }

  // The top bit of little-endian word w is bit 7 of byte 8w+7. FNV over
  // words collides on every such pair: the first flip leaves the running
  // hash differing in bit 63 alone (an odd multiply keeps it there), and the
  // second flip cancels it.
  auto fnv_over_words = [](const Bytes& b) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t w = 0; w < b.size() / 8; ++w) {
      std::uint64_t word = 0;
      for (std::size_t i = 8; i-- > 0;) word = (word << 8) | b[8 * w + i];
      h = (h ^ word) * 0x100000001b3ull;
    }
    return h;
  };
  for (std::size_t i = 0; i < kWords; ++i) {
    for (std::size_t j = i + 1; j < kWords; ++j) {
      c[8 * i + 7] ^= 0x80;
      c[8 * j + 7] ^= 0x80;
      if (i == 0 && j == 1) {
        ASSERT_EQ(fnv_over_words(c), fnv_over_words(base));
      }
      add(c);
      c[8 * i + 7] ^= 0x80;
      c[8 * j + 7] ^= 0x80;
    }
  }
  EXPECT_EQ(hashed, 256u + kChunk * 8 + kWords * (kWords - 1) / 2);
  EXPECT_EQ(seen.size(), hashed) << hashed - seen.size() << " collisions";
}

TEST(DeltaCodec, DiffChunksRebuildsGrowthAndShrink) {
  constexpr std::size_t kChunk = 1024;
  const Bytes base = random_bytes(5000, 1);
  Bytes one_byte = base;
  one_byte[2100] ^= 1;
  Bytes grown = base;
  grown.resize(7000, 0x33);
  const Bytes shrunk(base.begin(), base.begin() + 2500); // mid-chunk
  for (const Bytes& next : {base, one_byte, grown, shrunk, Bytes{}}) {
    const auto dirty = diff_chunks(base, next, kChunk);
    Bytes out = base;
    ASSERT_TRUE(apply_chunks(out, next.size(), dirty, kChunk).ok());
    EXPECT_EQ(out, next);
  }
  EXPECT_TRUE(diff_chunks(base, base, kChunk).empty());
  ASSERT_EQ(diff_chunks(base, one_byte, kChunk).size(), 1u);
  EXPECT_EQ(diff_chunks(base, one_byte, kChunk)[0].index, 2u);
  EXPECT_EQ(diff_chunks(base, grown, kChunk).size(), 3u); // tail 4 + new 5, 6
  EXPECT_TRUE(diff_chunks(base, shrunk, kChunk).empty()); // truncation only
  EXPECT_EQ(diff_chunks({}, base, kChunk).size(), 5u);    // no base: all
}

TEST(DeltaCodec, MalformedChunksRejectedBeforeStateIsTouched) {
  constexpr std::size_t kChunk = 1024;
  const Bytes base = random_bytes(3000, 2);
  const Bytes next = random_bytes(5000, 3);
  const auto good = diff_chunks(base, next, kChunk); // chunks 0..4
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
  bad.push_back({"data shorter than raw_size", short_data});
  for (const auto& [what, dirty] : bad) {
    Bytes state = base;
    EXPECT_FALSE(apply_chunks(state, next.size(), dirty, kChunk).ok()) << what;
    EXPECT_EQ(state, base) << what << ": state touched";
  }
  // A delta that rewrites bytes inside the base alone needs no coverage.
  Bytes state = base;
  const std::vector<DirtyChunk> inside{good[1]};
  ASSERT_TRUE(apply_chunks(state, base.size(), inside, kChunk).ok());
  Bytes expect = base;
  std::copy(next.begin() + 1024, next.begin() + 2048, expect.begin() + 1024);
  EXPECT_EQ(state, expect);
}

// --- snapshot store ---

EncodedSnapshot full_snap(std::uint64_t seq, const Bytes& state,
                          const CodecConfig& cfg) {
  return encode_full(seq, kSimStart, Bytes(state), cfg);
}

EncodedSnapshot delta_snap(std::uint64_t seq, const Bytes& state,
                           const Bytes& base, const CodecConfig& cfg) {
  return encode_delta(seq, kSimStart, Bytes(state),
                      chunk_hashes(base, cfg.chunk_size), base.size(), cfg);
}

TEST(SnapshotStore, LatestAndCount) {
  SnapshotStore store(4);
  const AppId app{1};
  EXPECT_FALSE(store.latest(app).has_value());
  store.put(app, full_snap(1, pattern(64, 0xA), store.codec()));
  store.put(app, full_snap(2, pattern(64, 0xB), store.codec()));
  const auto latest = store.latest(app);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->event_seq, 2u);
  EXPECT_EQ(latest->state, pattern(64, 0xB));
  EXPECT_EQ(store.count(app), 2u);
}

TEST(SnapshotStore, MaterializesChains) {
  CodecConfig cfg;
  cfg.chunk_size = 64;
  SnapshotStore store(8, cfg);
  const AppId app{1};
  Bytes s0 = pattern(1000, 1);
  Bytes s1 = s0;
  s1[100] ^= 0xFF;
  Bytes s2 = s1;
  s2[900] ^= 0xFF;
  store.put(app, full_snap(10, s0, cfg));
  store.put(app, delta_snap(20, s1, s0, cfg));
  store.put(app, delta_snap(30, s2, s1, cfg));

  EXPECT_EQ(store.latest(app)->state, s2);
  EXPECT_EQ(store.at_or_before(app, 25)->state, s1);
  EXPECT_EQ(store.at_or_before(app, 30)->state, s2);
  EXPECT_FALSE(store.at_or_before(app, 9).has_value());
  EXPECT_EQ(store.oldest(app)->state, s0);
  EXPECT_EQ(store.latest_seq(app), 30u);
}

TEST(SnapshotStore, BoundedHistoryEvictsOldest) {
  SnapshotStore store(3);
  const AppId app{1};
  for (std::uint64_t i = 1; i <= 5; ++i)
    store.put(app, full_snap(i, pattern(32, std::uint8_t(i)), store.codec()));
  EXPECT_EQ(store.count(app), 3u);
  EXPECT_EQ(store.oldest(app)->event_seq, 3u);
  EXPECT_EQ(store.latest(app)->event_seq, 5u);
}

// The keep_per_app boundary: evicting the full base of a live delta chain
// must rebase the chain onto a new full snapshot, never leave it dangling.
TEST(SnapshotStore, EvictingChainBaseRebasesNotDangles) {
  CodecConfig cfg;
  cfg.chunk_size = 128;
  SnapshotStore store(3, cfg);
  const AppId app{1};

  Bytes state = pattern(1024, 9);
  store.put(app, full_snap(1, state, cfg));
  std::vector<Bytes> versions{state};
  for (std::uint64_t seq = 2; seq <= 6; ++seq) {
    Bytes next = versions.back();
    next[(seq * 131) % next.size()] ^= 0xFF;
    store.put(app, delta_snap(seq, next, versions.back(), cfg));
    versions.push_back(next);
  }
  // keep=3: seqs {4,5,6} retained; the base (seq 1) and two deltas were
  // evicted, each eviction rebasing its successor into a full snapshot.
  EXPECT_EQ(store.count(app), 3u);
  EXPECT_GE(store.stats().rebases, 3u);
  // Every retained snapshot still materializes byte-identically.
  EXPECT_EQ(store.oldest(app)->state, versions[3]);
  EXPECT_EQ(store.at_or_before(app, 5)->state, versions[4]);
  EXPECT_EQ(store.latest(app)->state, versions[5]);
  EXPECT_EQ(store.stats().compose_failures, 0u);
}

TEST(SnapshotStore, OrphanDeltaIsDroppedNotStored) {
  CodecConfig cfg;
  SnapshotStore store(4, cfg);
  const AppId app{1};
  const Bytes base = pattern(256, 1);
  store.put(app, delta_snap(5, base, base, cfg)); // no full predecessor
  EXPECT_EQ(store.count(app), 0u);
  EXPECT_EQ(store.stats().orphan_deltas_dropped, 1u);
  EXPECT_EQ(store.total_bytes(), 0u);
}

// total_bytes_ must survive eviction/replacement interleaving: rebase
// replaces a delta with a differently-sized full snapshot mid-eviction.
TEST(SnapshotStore, ByteAccountingExactUnderEvictionRebaseInterleave) {
  CodecConfig cfg;
  cfg.chunk_size = 64;
  for (bool compress : {false, true}) {
    cfg.compress = compress;
    SnapshotStore store(3, cfg);
    Rng rng(0xACC0);
    std::unordered_map<AppId, Bytes> prev;
    for (std::uint64_t round = 0; round < 200; ++round) {
      const AppId app{static_cast<std::uint32_t>(1 + round % 3)};
      // Sizes vary so rebases replace deltas with differently-sized fulls.
      const std::size_t size = 128 + (rng.next() % 2048);
      Bytes state = random_bytes(size, rng.next());
      auto it = prev.find(app);
      const bool delta = it != prev.end() && round % 4 != 0;
      store.put(app, delta ? delta_snap(round + 1, state, it->second, cfg)
                           : full_snap(round + 1, state, cfg));
      prev[app] = std::move(state);
      EXPECT_GT(store.total_bytes(), 0u);
    }
    EXPECT_GT(store.stats().rebases, 0u);
    // Clearing everything must return the gauge exactly to zero — any
    // accounting drift during eviction/rebase shows up here.
    store.clear(AppId{1});
    store.clear(AppId{2});
    store.clear(AppId{3});
    EXPECT_EQ(store.total_bytes(), 0u);
    EXPECT_EQ(store.stats().logical_bytes, 0u);
  }
}

TEST(SnapshotStore, AppsAreIndependent) {
  SnapshotStore store(4);
  store.put(AppId{1}, full_snap(1, pattern(16, 0xA), store.codec()));
  store.put(AppId{2}, full_snap(7, pattern(16, 0xB), store.codec()));
  EXPECT_EQ(store.latest(AppId{1})->event_seq, 1u);
  EXPECT_EQ(store.latest(AppId{2})->event_seq, 7u);
  store.clear(AppId{1});
  EXPECT_FALSE(store.latest(AppId{1}).has_value());
  EXPECT_TRUE(store.latest(AppId{2}).has_value());
}

// --- checkpoint worker ---

TEST(CheckpointWorker, SyncModeStoresInline) {
  CodecConfig cfg;
  cfg.full_every = 1;
  SnapshotStore store(8, cfg);
  CheckpointWorker worker(store, {.async = false});
  worker.submit(AppId{1}, 1, kSimStart, pattern(512, 3));
  // No flush needed: sync mode encodes on the calling thread.
  EXPECT_EQ(store.latest_seq(AppId{1}), 1u);
  EXPECT_EQ(worker.in_flight(), 0u);
  EXPECT_EQ(worker.stats().encoded_inline, 1u);
  EXPECT_EQ(worker.stats().inline_encodes, 0u); // not a backpressure fallback
}

TEST(CheckpointWorker, AsyncEncodesOffThreadAndFlushes) {
  CodecConfig cfg;
  cfg.full_every = 4;
  SnapshotStore store(16, cfg);
  CheckpointWorker worker(store, {.async = true});
  // 64 KiB of state with one dirty byte per event: deltas carry one chunk
  // where a full carries sixteen, so the stored footprint must shrink.
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
  // full_every=4 over one chain: snapshots 1,5,9 are full, the rest deltas.
  EXPECT_EQ(ws.full_snapshots, 3u);
  EXPECT_EQ(ws.delta_snapshots, 7u);
  EXPECT_EQ(ws.encode_lag_us.count(), 10u);
  EXPECT_GT(ws.raw_bytes, ws.stored_bytes); // deltas shrank the footprint
}

TEST(CheckpointWorker, BackpressureFallsBackInline) {
  CodecConfig cfg;
  SnapshotStore store(64, cfg);
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
  CodecConfig cfg;
  SnapshotStore store(8, cfg);
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

// Every app's delta chain depends on its snapshots landing in submission
// order. Hammer the worker from several threads (each owning disjoint apps,
// so per-app submission order is well defined), with a queue small enough to
// force backpressure inline fallbacks, and check each app's stored chain:
// exact sequence, no gaps, and the composed latest state byte-identical to
// the last capture.
TEST(CheckpointWorker, PoolPreservesPerAppOrderUnderConcurrency) {
  CodecConfig cfg;
  cfg.full_every = 4; // exercise delta chaining, not just independent fulls
  SnapshotStore store(64, cfg);
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
    // The chain composed correctly: latest materializes to the final capture.
    Bytes expect = pattern(1024, std::uint8_t(id));
    expect[kSubmitsPerApp * 131 % expect.size()] ^= std::uint8_t(kSubmitsPerApp);
    const auto latest = store.latest(app);
    ASSERT_TRUE(latest.has_value()) << "app " << id;
    EXPECT_EQ(latest->state, expect) << "app " << id;
  }
  const auto ws = worker.stats();
  EXPECT_EQ(ws.submitted, kThreads * kAppsPerThread * kSubmitsPerApp);
  EXPECT_EQ(ws.encoded_async + ws.encoded_inline, ws.submitted);
  EXPECT_EQ(store.stats().orphan_deltas_dropped, 0u); // no chain ever dangled
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
