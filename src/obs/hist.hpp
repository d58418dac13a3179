#pragma once
// Log-bucketed histogram with lock-free per-thread shards (DESIGN.md §13.1).
//
// Values are unsigned integers (the pipeline records microseconds, depths and
// node counts). Buckets follow the HDR scheme: values below 2^(kSubBits+1)
// land in exact unit buckets; above that each power-of-two range is split
// into 2^kSubBits sub-buckets, bounding the relative quantile error by
// 2^-kSubBits (6.25%). Quantile estimates return the bucket's *upper* bound,
// so an estimate is always >= the true order statistic and two values in the
// same bucket estimate identically — the property the reference-sort test
// pins down.
//
// Recording is wait-free: a thread picks a shard once (round-robin at first
// touch) and does relaxed fetch_adds into it; merges happen only on read by
// summing shards. Addition commutes, so a merged snapshot is bit-identical
// no matter how recording threads interleaved.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace imodec::obs {

class Histogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSubBuckets = 1u << kSubBits;  // 16
  // Exact region: [0, 2*kSubBuckets). Log region: one row of kSubBuckets per
  // power of two from 2^(kSubBits+1) up to 2^63 -> ((64-kSubBits)<<kSubBits)
  // + kSubBuckets = 976 buckets total; index 975 holds values up to 2^64-1.
  static constexpr unsigned kBuckets =
      ((64 - kSubBits) << kSubBits) | kSubBuckets;

  static constexpr unsigned bucket_index(std::uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<unsigned>(v);
    const unsigned high = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = high - kSubBits;
    const std::uint64_t mantissa = v >> shift;  // in [16, 32)
    return ((shift + 1u) << kSubBits) |
           static_cast<unsigned>(mantissa & (kSubBuckets - 1));
  }

  /// Smallest value mapping to bucket i.
  static constexpr std::uint64_t bucket_lo(unsigned i) {
    if (i < 2 * kSubBuckets) return i;
    const unsigned shift = (i >> kSubBits) - 1u;
    const std::uint64_t mantissa = kSubBuckets + (i & (kSubBuckets - 1));
    return mantissa << shift;
  }

  /// Largest value mapping to bucket i (the quantile estimate for it).
  static constexpr std::uint64_t bucket_hi(unsigned i) {
    if (i < 2 * kSubBuckets) return i;
    const unsigned shift = (i >> kSubBits) - 1u;
    const std::uint64_t mantissa = kSubBuckets + (i & (kSubBuckets - 1));
    return ((mantissa + 1) << shift) - 1;  // wraps to 2^64-1 for the top row
  }

  void record(std::uint64_t v) {
    Shard& s = shards_[shard_index()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = s.max.load(std::memory_order_relaxed);
    while (v > prev && !s.max.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t max() const;

  /// Merged bucket counts (sum over shards).
  std::array<std::uint64_t, kBuckets> buckets() const;

  /// Upper bound of the bucket holding the ceil(q*count)-th smallest value
  /// (q clamped to (0,1]); 0 when empty.
  std::uint64_t quantile(double q) const;

  struct Summary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
  };
  /// Count and quantiles computed from one merged bucket snapshot (so they
  /// agree with each other even under concurrent writers); sum/max read
  /// directly from the shards.
  Summary summary() const;

  void reset();

  /// Add every value `other` recorded, as if recorded here.
  void merge(const Histogram& other);

 private:
  static constexpr unsigned kShards = 16;
  // Not over-aligned: under per-run histograms, aligned allocation
  // fragments the heap (DESIGN.md §13.1).
  struct Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint32_t>, kBuckets> buckets{};
  };
  static unsigned shard_index();
  Shard shards_[kShards];
};

}  // namespace imodec::obs
