// Unit tests for the common substrate: byte codec, RNG, result, clock, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace legosdn {
namespace {

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.span());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(Bytes, MacRoundTrip) {
  const MacAddress m = MacAddress::from_uint64(0x0A0B0C0D0E0FULL);
  ByteWriter w;
  w.mac(m);
  ByteReader r(w.span());
  EXPECT_EQ(r.mac(), m);
}

TEST(Bytes, BlobAndString) {
  ByteWriter w;
  w.blob(std::vector<std::uint8_t>{1, 2, 3});
  w.str("hello");
  ByteReader r(w.span());
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, TruncatedReadSetsErrorAndReturnsZero) {
  ByteWriter w;
  w.u16(0x1234);
  ByteReader r(w.span());
  EXPECT_EQ(r.u32(), 0u); // needs 4 bytes, only 2 available
  EXPECT_TRUE(r.error());
  // Further reads stay zero and never crash.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_TRUE(r.blob().empty());
}

TEST(Bytes, BlobLengthBeyondBufferIsError) {
  ByteWriter w;
  w.u32(1000); // claims 1000 bytes follow
  w.u8(1);
  ByteReader r(w.span());
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.error());
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u32(42);
  w.patch_u16(0, 0xCAFE);
  ByteReader r(w.span());
  EXPECT_EQ(r.u16(), 0xCAFE);
}

/// The writer ByteWriter replaced, one push_back per byte: the executable
/// specification of the encoding that the field-wide writer must match.
struct PerByteWriter {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) {
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
    buf.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void mac(const MacAddress& m) {
    buf.insert(buf.end(), m.octets.begin(), m.octets.end());
  }
  void bytes(std::span<const std::uint8_t> d) {
    buf.insert(buf.end(), d.begin(), d.end());
  }
  void zeros(std::size_t n) { buf.insert(buf.end(), n, 0); }
  void blob(std::span<const std::uint8_t> d) {
    u32(static_cast<std::uint32_t>(d.size()));
    bytes(d);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
  }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf[offset] = static_cast<std::uint8_t>(v >> 8);
    buf[offset + 1] = static_cast<std::uint8_t>(v);
  }
};

/// One writer call with its arguments, so a sequence can be replayed into
/// writers with different size hints.
struct WriteOp {
  enum Kind { kU8, kU16, kU32, kU64, kMac, kBytes, kZeros, kBlob, kStr, kPatch, kClaim };
  Kind kind = kU8;
  std::uint64_t v = 0;
  std::size_t offset = 0; ///< kPatch
  std::vector<std::uint8_t> data;

  template <typename W> void apply(W& w) const {
    switch (kind) {
      case kU8:
        w.u8(static_cast<std::uint8_t>(v));
        break;
      case kU16:
        w.u16(static_cast<std::uint16_t>(v));
        break;
      case kU32:
        w.u32(static_cast<std::uint32_t>(v));
        break;
      case kU64:
        w.u64(v);
        break;
      case kMac:
        w.mac(MacAddress::from_uint64(v & 0xFFFFFFFFFFFFULL));
        break;
      case kBytes:
        w.bytes(data);
        break;
      case kZeros:
        w.zeros(data.size());
        break;
      case kBlob:
        w.blob(data);
        break;
      case kStr:
        w.str({reinterpret_cast<const char*>(data.data()), data.size()});
        break;
      case kPatch:
        w.patch_u16(offset, static_cast<std::uint16_t>(v));
        break;
      case kClaim:
        if constexpr (std::is_same_v<W, ByteWriter>) {
          std::uint8_t* p = w.claim(data.size());
          for (std::uint8_t b : data) *p++ = b;
        } else {
          w.bytes(data);
        }
        break;
    }
  }
};

std::vector<WriteOp> random_ops(Rng& rng) {
  PerByteWriter ref; // tracks the size, so patches land inside the buffer
  std::vector<WriteOp> ops;
  const std::size_t n = 1 + rng.below(120);
  for (std::size_t i = 0; i < n; ++i) {
    WriteOp op;
    op.kind = static_cast<WriteOp::Kind>(rng.below(WriteOp::kClaim + 1));
    op.v = rng.next();
    // Mostly short runs, sometimes longer than any slack the writer keeps.
    const std::size_t len = rng.chance(0.1) ? rng.below(5000) : rng.below(40);
    if (op.kind >= WriteOp::kBytes && op.kind != WriteOp::kPatch) {
      op.data.resize(len);
      for (auto& b : op.data) b = static_cast<std::uint8_t>(rng.below(256));
    }
    if (op.kind == WriteOp::kPatch) {
      if (ref.buf.size() < 2) continue;
      op.offset = rng.below(ref.buf.size() - 1);
    }
    op.apply(ref);
    ops.push_back(std::move(op));
  }
  return ops;
}

TEST(Bytes, FieldWriterMatchesPerByteReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto ops = random_ops(rng);
    PerByteWriter ref;
    for (const auto& op : ops) op.apply(ref);
    const std::size_t size = ref.buf.size();
    // No hint, an exact hint and one too short to hold the result.
    for (std::size_t hint : {std::size_t{0}, size, size / 3}) {
      ByteWriter w(hint);
      PerByteWriter step;
      for (const auto& op : ops) {
        op.apply(w);
        op.apply(step);
        ASSERT_EQ(w.size(), step.buf.size()) << "seed " << seed << " op " << op.kind;
      }
      ASSERT_EQ(w.size(), size) << "seed " << seed << " hint " << hint;
      ASSERT_TRUE(std::equal(w.span().begin(), w.span().end(), ref.buf.begin(),
                             ref.buf.end()))
          << "seed " << seed << " hint " << hint;
      const std::vector<std::uint8_t> taken = std::move(w).take();
      ASSERT_EQ(taken.size(), size) << "seed " << seed << " hint " << hint;
      ASSERT_EQ(taken, ref.buf) << "seed " << seed << " hint " << hint;
    }
  }
}

TEST(Bytes, ClaimedRecordsLandExactlyWhereClaimed) {
  for (std::size_t records : {0u, 1u, 7u, 1280u}) {
    ByteWriter w(3 + records * 16);
    PerByteWriter ref;
    w.u8(0xA5);
    w.u16(0xBEEF);
    ref.u8(0xA5);
    ref.u16(0xBEEF);
    const std::size_t before = w.size();
    std::uint8_t* p = w.claim(records * 16);
    ASSERT_EQ(w.size(), before + records * 16);
    EXPECT_TRUE(std::all_of(w.span().begin() + static_cast<std::ptrdiff_t>(before),
                            w.span().end(), [](std::uint8_t b) { return b == 0; }))
        << "claimed bytes read as zero until written";
    for (std::uint64_t i = 0; i < records; ++i) {
      be::store_u64(p, i * 0x0101010101ULL);
      be::store_u64(p + 8, ~i);
      p += 16;
      ref.u64(i * 0x0101010101ULL);
      ref.u64(~i);
    }
    EXPECT_EQ(p, w.span().data() + w.size()) << "the cursor ends at the claim's end";
    w.u8(0x5A); // the next field follows the run directly
    ref.u8(0x5A);
    EXPECT_EQ(std::move(w).take(), ref.buf) << records << " records";
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  std::array<int, 10> buckets{};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) buckets[rng.below(10)] += 1;
  for (int b : buckets) {
    EXPECT_GT(b, kN / 10 * 0.9);
    EXPECT_LT(b, kN / 10 * 1.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, RangeInclusive) {
  Rng rng(21);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Error{Error::Code::kTimeout, "late"});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Error::Code::kTimeout);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(ok.value_or(-1), 42);
}

TEST(Result, StatusDefaultsToSuccess) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status bad = Error{Error::Code::kIo, "disk"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().to_string(), "io: disk");
}

TEST(Clock, AdvancesMonotonically) {
  SimClock c;
  EXPECT_EQ(c.now(), kSimStart);
  c.advance_by(std::chrono::milliseconds(5));
  EXPECT_EQ(to_ms(c.now()), 5.0);
  c.advance_to(SimTime{1'000'000}); // in the past: ignored
  EXPECT_EQ(to_ms(c.now()), 5.0);
  c.advance_to(from_ms(10));
  EXPECT_EQ(to_ms(c.now()), 10.0);
}

TEST(Types, MacHelpers) {
  const MacAddress broadcast{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}};
  EXPECT_TRUE(broadcast.is_broadcast());
  EXPECT_FALSE(MacAddress::from_uint64(0x1234).is_broadcast());
  const MacAddress mcast{{0x01, 0, 0, 0, 0, 5}};
  EXPECT_TRUE(mcast.is_multicast());
  const MacAddress m = MacAddress::from_uint64(0xA1B2C3D4E5F6ULL);
  EXPECT_EQ(m.to_uint64(), 0xA1B2C3D4E5F6ULL);
  EXPECT_EQ(m.to_string(), "a1:b2:c3:d4:e5:f6");
}

TEST(Types, IpFormatting) {
  EXPECT_EQ(IpV4::from_octets(10, 1, 2, 3).to_string(), "10.1.2.3");
  EXPECT_EQ(IpV4::from_octets(255, 255, 255, 0).addr, 0xFFFFFF00u);
}

static_assert(std::is_trivially_copyable_v<Histogram>);

/// `n` seeded samples spread log-uniformly over [0.01, 1e7].
std::vector<double> log_uniform_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = std::pow(10.0, -2.0 + 9.0 * rng.uniform());
  return xs;
}

/// The exact nearest-rank percentile: the ceil(p% * n)-th smallest sample.
double nearest_rank(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return xs[rank - 1];
}

TEST(Histogram, PercentilesWithinOneThirtySecondOfNearestRank) {
  const auto xs = log_uniform_samples(20000, 7);
  Histogram h;
  double sum = 0;
  for (const double x : xs) {
    h.add(x);
    sum += x;
  }
  ASSERT_EQ(h.count(), xs.size());
  EXPECT_EQ(h.sum(), sum); // count and sum are exact, not bucketed
  EXPECT_DOUBLE_EQ(h.mean(), sum / static_cast<double>(xs.size()));
  for (const double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double exact = nearest_rank(xs, p);
    EXPECT_NEAR(h.percentile(p), exact, exact / 32) << "p" << p;
  }
  // The first and last ranks are exact, not bucket estimates.
  EXPECT_EQ(h.percentile(0), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(h.percentile(100), *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(h.min(), h.percentile(0));
  EXPECT_EQ(h.max(), h.percentile(100));
}

TEST(Histogram, RepeatedValueReportsItself) {
  // A power-of-two histogram reports 724 (1000/sqrt(2)) here.
  Histogram one;
  one.add(1000);
  EXPECT_NEAR(one.percentile(50), 1000.0, 1000.0 / 32);
  // Clamping to [min, max] makes a run of one value exact at every rank,
  // although 1000 sits below its bucket's midpoint (1008).
  Histogram run;
  for (int i = 0; i < 1000; ++i) run.add(1000);
  for (const double p : {1.0, 50.0, 99.0}) EXPECT_EQ(run.percentile(p), 1000.0);
  EXPECT_DOUBLE_EQ(run.mean(), 1000.0);
}

TEST(Histogram, MergeEqualsPooledSamples) {
  const auto xs = log_uniform_samples(5000, 11);
  Histogram a, b, pooled;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i % 3 == 0 ? a : b).add(xs[i]);
    pooled.add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_EQ(a.min(), pooled.min());
  EXPECT_EQ(a.max(), pooled.max());
  EXPECT_NEAR(a.sum(), pooled.sum(), pooled.sum() * 1e-12);
  for (double p = 0; p <= 100; p += 0.5) EXPECT_EQ(a.percentile(p), pooled.percentile(p));
}

TEST(Histogram, EmptyAndZeroSamplesAreSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) EXPECT_EQ(h.percentile(p), 0.0);

  for (int i = 0; i < 5; ++i) h.add(0.0);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.mean(), 0.0);
  for (const double p : {0.0, 50.0, 100.0}) EXPECT_EQ(h.percentile(p), 0.0);

  h.add(8.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.percentile(100), 8.0);

  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  h.add(3.0); // clear() also forgot the old min and max
  EXPECT_EQ(h.min(), 3.0);
  EXPECT_EQ(h.max(), 3.0);
}

} // namespace
} // namespace legosdn
