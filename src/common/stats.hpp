// Bounded online statistics: one fixed-size histogram for every latency,
// round-trip and batch-size series in the controller and the benches.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace legosdn {

/// Log-linear histogram (HDR-style) that never allocates. Each power of two
/// in [2^-10, 2^40) of the caller's unit is split into 16 linear
/// sub-buckets; one underflow bucket holds 0 and anything below 2^-10, and
/// values from 2^40 up share the top bucket. count, sum, min and max are
/// exact. percentile() reports the midpoint of the bucket that holds the
/// nearest-rank sample, clamped to [min, max]: p0 is min, p100 is max, and
/// every other percentile is within 1/32 of the exact nearest-rank value.
class Histogram {
public:
  void add(double x) noexcept {
    buckets_[bucket_of(x)] += 1;
    count_ += 1;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Pool another histogram's samples into this one (e.g. per-lane series
  /// into a whole-pipeline distribution).
  void merge(const Histogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  void clear() noexcept { *this = Histogram{}; }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// p in [0, 100]: an estimate of the ceil(p/100 * count)-th smallest
  /// sample. The first and last ranks are min and max, exactly.
  double percentile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    const double n = static_cast<double>(count_);
    const auto rank =
        static_cast<std::uint64_t>(std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
    if (rank == 1) return min_;
    if (rank == count_) return max_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return std::clamp(midpoint(i), min_, max_);
    }
    return max_;
  }

private:
  static constexpr double kLowest = 0x1p-10;
  static constexpr int kOctaves = 50; ///< 2^-10 .. 2^40
  static constexpr int kSubBits = 4;  ///< 16 linear sub-buckets per octave
  static constexpr std::size_t kBuckets = 1 + (std::size_t{kOctaves} << kSubBits);
  /// A positive double's top 16 bits (sign 0, 11-bit exponent, top 4
  /// mantissa bits) rise monotonically with its value, one step per
  /// sub-bucket, so a bucket index is this key minus the lowest one.
  static constexpr int kKeyShift = 52 - kSubBits;
  static constexpr std::uint64_t kLowestKey =
      std::bit_cast<std::uint64_t>(kLowest) >> kKeyShift;

  static std::size_t bucket_of(double x) noexcept {
    if (!(x >= kLowest)) return 0; // zero, underflow, negative or NaN
    const std::uint64_t key = std::bit_cast<std::uint64_t>(x) >> kKeyShift;
    return std::min<std::size_t>(key - kLowestKey + 1, kBuckets - 1);
  }

  /// Lower edge of bucket i >= 1; lower_edge(i + 1) is its upper edge.
  static double lower_edge(std::size_t i) noexcept {
    return std::bit_cast<double>((kLowestKey + i - 1) << kKeyShift);
  }

  static double midpoint(std::size_t i) noexcept {
    return i == 0 ? 0.0 : (lower_edge(i) + lower_edge(i + 1)) / 2;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace legosdn
