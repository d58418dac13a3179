#include "obs/hist.hpp"

#include <algorithm>
#include <cmath>

namespace imodec::obs {

unsigned Histogram::shard_index() {
  static std::atomic<unsigned> next{0};
  // Round-robin assignment at first touch guarantees an even spread without
  // relying on the quality of std::thread::id hashing.
  thread_local const unsigned idx =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_)
    total += s.count.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::max() const {
  std::uint64_t m = 0;
  for (const Shard& s : shards_)
    m = std::max(m, s.max.load(std::memory_order_relaxed));
  return m;
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (const Shard& s : shards_)
    for (unsigned i = 0; i < kBuckets; ++i)
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
  return out;
}

namespace {

std::uint64_t quantile_from(
    const std::array<std::uint64_t, Histogram::kBuckets>& b,
    std::uint64_t count, double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t seen = 0;
  for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
    seen += b[i];
    if (seen >= rank) return Histogram::bucket_hi(i);
  }
  return Histogram::bucket_hi(Histogram::kBuckets - 1);  // unreachable
}

}  // namespace

std::uint64_t Histogram::quantile(double q) const {
  const auto b = buckets();
  std::uint64_t total = 0;
  for (std::uint64_t n : b) total += n;
  return quantile_from(b, total, q);
}

Histogram::Summary Histogram::summary() const {
  Summary s;
  const auto b = buckets();
  for (std::uint64_t n : b) s.count += n;
  s.sum = sum();
  s.max = max();
  s.p50 = quantile_from(b, s.count, 0.50);
  s.p90 = quantile_from(b, s.count, 0.90);
  s.p99 = quantile_from(b, s.count, 0.99);
  return s;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto& bucket : s.buckets) bucket.store(0, std::memory_order_relaxed);
  }
}

void Histogram::merge(const Histogram& other) {
  const auto b = other.buckets();
  Shard& s = shards_[shard_index()];
  for (unsigned i = 0; i < kBuckets; ++i)
    s.buckets[i].fetch_add(static_cast<std::uint32_t>(b[i]),
                           std::memory_order_relaxed);
  s.count.fetch_add(other.count(), std::memory_order_relaxed);
  s.sum.fetch_add(other.sum(), std::memory_order_relaxed);
  const std::uint64_t m = other.max();
  std::uint64_t prev = s.max.load(std::memory_order_relaxed);
  while (m > prev &&
         !s.max.compare_exchange_weak(prev, m, std::memory_order_relaxed)) {
  }
}

}  // namespace imodec::obs
