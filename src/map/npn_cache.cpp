#include "map/npn_cache.hpp"

#include "obs/metrics.hpp"

namespace imodec {

std::optional<NpnCache::Entry> NpnCache::lookup(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    obs::count("cache.npn.miss");
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  obs::count("cache.npn.hit");
  return it->second->second;
}

void NpnCache::store(Key key, Entry e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->second = std::move(e);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(e));
  index_.emplace(std::move(key), lru_.begin());
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    obs::count("cache.npn.evict");
  }
}

void NpnCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

NpnCache::Stats NpnCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t NpnCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void NpnCache::note_verify_failure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.verify_failures;
}

}  // namespace imodec
