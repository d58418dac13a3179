#include "bdd/add.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace imodec::bdd {

namespace {
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_triple(std::uint32_t var, std::uint32_t lo,
                          std::uint32_t hi) {
  return mix64((static_cast<std::uint64_t>(var) << 32 | lo) *
                   0x9e3779b97f4a7c15ull ^
               hi);
}

constexpr std::size_t kInitialUnique = std::size_t(1) << 8;
constexpr std::size_t kMinPlusCache = std::size_t(1) << 8;
}  // namespace

AddManager::AddManager(unsigned num_vars) : num_vars_(num_vars) {
  unique_.assign(kInitialUnique, kNoAdd_);
  plus_cache_.assign(kMinPlusCache, PlusEntry{});
}

AddManager::AddId AddManager::constant(std::int64_t value) {
  if (auto it = terminals_.find(value); it != terminals_.end())
    return it->second;
  const AddId id = static_cast<AddId>(nodes_.size());
  nodes_.push_back(Node{kTerminalVar, 0, 0, value});
  terminals_.emplace(value, id);
  return id;
}

AddManager::AddId AddManager::make_node(unsigned v, AddId lo, AddId hi) {
  if (lo == hi) return lo;
  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = hash_triple(v, lo, hi) & mask;
  while (unique_[slot] != kNoAdd_) {
    const Node& n = nodes_[unique_[slot]];
    if (n.var == v && n.lo == lo && n.hi == hi) return unique_[slot];
    slot = (slot + 1) & mask;
  }
  const AddId id = static_cast<AddId>(nodes_.size());
  nodes_.push_back(Node{v, lo, hi, 0});
  unique_[slot] = id;
  ++unique_occupied_;
  if ((unique_occupied_ + 1) * 4 > unique_.size() * 3)
    unique_rehash(unique_.size() * 2);
  return id;
}

void AddManager::unique_rehash(std::size_t new_size) {
  unique_.assign(new_size, kNoAdd_);
  unique_occupied_ = 0;
  const std::size_t mask = new_size - 1;
  for (AddId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.var == kTerminalVar) continue;
    std::size_t slot = hash_triple(n.var, n.lo, n.hi) & mask;
    while (unique_[slot] != kNoAdd_) slot = (slot + 1) & mask;
    unique_[slot] = id;
    ++unique_occupied_;
  }
  // Grow the plus cache with the node population. Entries are exact-keyed
  // and AddIds never die, so dropping them only costs recomputation.
  const std::size_t target = std::max(kMinPlusCache, new_size / 2);
  if (plus_cache_.size() < target) plus_cache_.assign(target, PlusEntry{});
}

AddManager::AddId AddManager::from_bdd_rec(
    Manager& src, NodeId f, std::unordered_map<NodeId, AddId>& memo) {
  if (f == kFalse) return constant(0);
  if (f == kTrue) return constant(1);
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  // Both layers order by raw variable index, so the shape carries over.
  const AddId l = from_bdd_rec(src, src.lo(f), memo);
  const AddId h = from_bdd_rec(src, src.hi(f), memo);
  const AddId r = make_node(src.var_of(f), l, h);
  memo[f] = r;
  return r;
}

AddManager::AddId AddManager::from_bdd(Manager& src, NodeId f) {
  std::unordered_map<NodeId, AddId> memo;
  return from_bdd_rec(src, f, memo);
}

AddManager::AddId AddManager::plus_rec(AddId f, AddId g) {
  if (is_terminal(f) && is_terminal(g))
    return constant(value_of(f) + value_of(g));
  if (f > g) std::swap(f, g);  // plus is commutative
  const std::size_t slot =
      mix64((static_cast<std::uint64_t>(f) << 32) | g) &
      (plus_cache_.size() - 1);
  if (const PlusEntry& e = plus_cache_[slot]; e.f == f && e.g == g)
    return e.result;

  unsigned v = kTerminalVar;
  if (!is_terminal(f)) v = var_of(f);
  if (!is_terminal(g) && var_of(g) < v) v = var_of(g);

  const AddId f0 = (!is_terminal(f) && var_of(f) == v) ? lo(f) : f;
  const AddId f1 = (!is_terminal(f) && var_of(f) == v) ? hi(f) : f;
  const AddId g0 = (!is_terminal(g) && var_of(g) == v) ? lo(g) : g;
  const AddId g1 = (!is_terminal(g) && var_of(g) == v) ? hi(g) : g;

  const AddId l = plus_rec(f0, g0);
  const AddId h = plus_rec(f1, g1);
  const AddId r = make_node(v, l, h);
  // Recompute the slot: make_node may have grown the cache underneath us.
  plus_cache_[mix64((static_cast<std::uint64_t>(f) << 32) | g) &
              (plus_cache_.size() - 1)] = PlusEntry{f, g, r};
  return r;
}

AddManager::AddId AddManager::plus(AddId f, AddId g) { return plus_rec(f, g); }

std::int64_t AddManager::max_rec(
    AddId f, std::unordered_map<AddId, std::int64_t>& memo) {
  if (is_terminal(f)) return value_of(f);
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  const std::int64_t r = std::max(max_rec(lo(f), memo), max_rec(hi(f), memo));
  memo[f] = r;
  return r;
}

std::int64_t AddManager::max_value(AddId f) {
  std::unordered_map<AddId, std::int64_t> memo;
  return max_rec(f, memo);
}

std::int64_t AddManager::argmax(AddId f, std::vector<bool>& assignment,
                                bool fill) {
  std::unordered_map<AddId, std::int64_t> memo;
  const std::int64_t best = max_rec(f, memo);
  assignment.assign(num_vars_, fill);
  AddId cur = f;
  while (!is_terminal(cur)) {
    const std::int64_t lo_max = max_rec(lo(cur), memo);
    const std::int64_t hi_max = max_rec(hi(cur), memo);
    // Prefer the 0-branch on ties: fewer onset classes means a smaller
    // decomposition function, a mild simplicity bias.
    if (lo_max >= hi_max) {
      assignment[var_of(cur)] = false;
      cur = lo(cur);
    } else {
      assignment[var_of(cur)] = true;
      cur = hi(cur);
    }
  }
  assert(value_of(cur) == best);
  return best;
}

void AddManager::foreach_at_value(
    AddId f, std::int64_t target, const std::vector<unsigned>& vars,
    const std::function<bool(const std::vector<bool>&)>& cb) {
  std::vector<bool> assignment(vars.size(), false);
  bool stop = false;
  std::function<void(std::size_t, AddId)> rec = [&](std::size_t pos, AddId g) {
    if (stop) return;
    if (pos == vars.size()) {
      assert(is_terminal(g));
      if (value_of(g) == target && !cb(assignment)) stop = true;
      return;
    }
    const unsigned v = vars[pos];
    AddId g0 = g, g1 = g;
    if (!is_terminal(g) && var_of(g) == v) {
      g0 = lo(g);
      g1 = hi(g);
    }
    assignment[pos] = false;
    rec(pos + 1, g0);
    assignment[pos] = true;
    rec(pos + 1, g1);
    assignment[pos] = false;
  };
  rec(0, f);
}

}  // namespace imodec::bdd
