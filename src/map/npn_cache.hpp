#pragma once
// Session result cache: decomposition work shared by the runs of one
// SynthesisSession (the serving layer's front end).
//
// The name is historical — the cache once keyed singleton functions by an
// NPN-canonical representative. Every key is now exact: the entry family,
// the flow options the result depends on, and the function tuple itself. A
// hit therefore returns exactly what the computation it replaces would
// return, so a run with the cache on maps every circuit to the same network
// as a run with it off, and a warm session to the same network as a cold
// one (DESIGN.md §14.3).

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "decomp/single.hpp"
#include "imodec/result.hpp"

namespace imodec {

/// What an entry holds. Part of the key, so the families never alias even
/// when their function tuples coincide.
enum class CacheFamily : std::uint8_t {
  decomposition,  ///< full decomposition of a group's function vector
  trial,          ///< trimmed-search grouping trial: its q, or why it failed
  own_cost,       ///< single-output codewidth baseline of one node
};

/// Bounded, thread-safe LRU over exact keys. Negative results (typed
/// DecomposeError) are cached too: re-discovering that a vector has no
/// non-trivial bound set costs the same search as a success.
class NpnCache {
 public:
  explicit NpnCache(std::size_t max_entries = 4096)
      : max_entries_(max_entries) {}

  /// Everything a cached result depends on, compared exactly.
  struct Key {
    CacheFamily family = CacheFamily::decomposition;
    std::vector<std::uint64_t> options;  ///< the run's decomposition knobs
    std::vector<TruthTable> tables;      ///< the function tuple
    bool operator==(const Key&) const = default;
  };

  /// Cached value. Exactly one of dec/error/cost is set.
  struct Entry {
    std::optional<Decomposition> dec;
    std::optional<DecomposeError> error;
    std::optional<unsigned> cost;  ///< trial q or own-cost codewidth
  };

  /// nullopt = miss. Publishes cache.npn.{hit,miss} counters.
  std::optional<Entry> lookup(const Key& key);
  /// Insert (or refresh) an entry; evicts LRU past capacity
  /// (cache.npn.evict).
  void store(Key key, Entry e);
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t verify_failures = 0;
  };
  Stats stats() const;
  std::size_t size() const;
  void note_verify_failure();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h =
          static_cast<std::size_t>(k.family) * 0x9e3779b97f4a7c15ull;
      for (std::uint64_t o : k.options) h = (h * 0x100000001b3ull) ^ o;
      for (const TruthTable& t : k.tables)
        h = (h * 0x100000001b3ull) ^ t.hash() ^ t.num_vars();
      return h;
    }
  };
  using Lru = std::list<std::pair<Key, Entry>>;

  std::size_t max_entries_;
  mutable std::mutex mu_;
  Lru lru_;  // front = most recent
  std::unordered_map<Key, Lru::iterator, KeyHash> index_;
  Stats stats_;
};

}  // namespace imodec
