#include "imodec/lmax.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/resource.hpp"

namespace imodec {
namespace {

using bdd::NodeId;
/// A tuple of χ cofactors under one partial z-assignment: the members that
/// are neither constant, sorted so that equal multisets compare equal.
using Tuple = std::vector<NodeId>;

struct TupleHash {
  std::size_t operator()(const Tuple& t) const {
    std::uint64_t h = t.size();
    for (const NodeId n : t) h = (h ^ n) * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

// Past this many entries the memo is dropped and refilled. A lost entry is
// recomputed, so the cap bounds memory and costs only time.
constexpr std::size_t kMemoCap = std::size_t(1) << 16;
// Visited tuples between governance checkpoints (the first visit polls).
constexpr std::uint64_t kCheckpointStride = 4096;

/// Branch and bound over the χ tuple in the caller's manager. Reads nodes
/// only, so it never allocates one and no garbage collection can run.
class Search {
 public:
  Search(const bdd::Manager& mgr, util::ResourceGuard* guard)
      : mgr_(mgr), guard_(guard) {}

  /// Split `t` on variable v: `out` gets the sorted non-constant cofactors;
  /// returns how many cofactors are constant 1. Constant 0s drop out.
  unsigned branch(const Tuple& t, unsigned v, bool value, Tuple& out) const {
    out.clear();
    unsigned ones = 0;
    for (const NodeId f : t) {
      const NodeId c =
          mgr_.var_of(f) == v ? (value ? mgr_.hi(f) : mgr_.lo(f)) : f;
      if (c == bdd::kTrue)
        ++ones;
      else if (c != bdd::kFalse)
        out.push_back(c);
    }
    std::sort(out.begin(), out.end());
    return ones;
  }

  unsigned top_var(const Tuple& t) const {
    unsigned v = bdd::kTerminalVar;
    for (const NodeId f : t) v = std::min(v, mgr_.var_of(f));
    return v;
  }

  /// Fail-soft bound search for the largest number of members of `t` that
  /// one z-vertex satisfies. A result above `floor` is that maximum exactly;
  /// a result at or below `floor` is only an upper bound on it.
  unsigned max(const Tuple& t, unsigned floor) {
    // |t| bounds the maximum, so a tuple no larger than the floor fails low.
    if (t.size() <= floor) return static_cast<unsigned>(t.size());
    if (visits_++ % kCheckpointStride == 0 && guard_) guard_->checkpoint();
    if (const auto it = memo_.find(t); it != memo_.end())
      if (it->second.exact || it->second.value <= floor)
        return it->second.value;
    const unsigned v = top_var(t);
    Tuple t0, t1;
    const unsigned ones0 = branch(t, v, false, t0);
    const unsigned r0 = ones0 + max(t0, floor > ones0 ? floor - ones0 : 0);
    // The 1-branch matters only if it beats both the floor and the 0-branch;
    // its ones plus its non-zero members bound it without a search.
    const unsigned bar = std::max(floor, r0);
    const unsigned ones1 = branch(t, v, true, t1);
    unsigned r1 = ones1 + static_cast<unsigned>(t1.size());
    if (r1 > bar) r1 = ones1 + max(t1, bar > ones1 ? bar - ones1 : 0);
    const unsigned r = std::max(r0, r1);
    if (memo_.size() >= kMemoCap) memo_.clear();
    memo_.insert_or_assign(t, Bound{r, r > floor});
    return r;
  }

  std::uint64_t visits() const { return visits_; }

 private:
  const bdd::Manager& mgr_;
  util::ResourceGuard* guard_;
  struct Bound {
    unsigned value;
    bool exact;  // else an upper bound
  };
  std::unordered_map<Tuple, Bound, TupleHash> memo_;
  std::uint64_t visits_ = 0;
};

}  // namespace

LmaxResult lmax(bdd::Manager& mgr, std::uint32_t p,
                const std::vector<bdd::Bdd>& chis) {
  assert(!chis.empty());
  assert(p <= 64);

  Search search(mgr, mgr.resource_guard());
  Tuple t;
  unsigned ones = 0;
  for (const bdd::Bdd& chi : chis) {
    if (chi.is_one())
      ++ones;
    else if (!chi.is_zero())
      t.push_back(chi.node());
  }
  std::sort(t.begin(), t.end());

  LmaxResult res;
  // A non-empty tuple has a maximum of at least 1, so floor 0 makes it exact.
  unsigned need = search.max(t, 0);
  res.coverage = ones + need;
  // Second walk: take the 0-branch whenever it still reaches the maximum, so
  // z is the lexicographically smallest maximizer (z_0 first, 0 before 1);
  // variables the tuple skips stay 0.
  Tuple t0, t1;
  while (!t.empty()) {
    const unsigned v = search.top_var(t);
    const unsigned ones0 = search.branch(t, v, false, t0);
    // With floor need - 1 - ones0, a result that reaches need - ones0 is
    // exact, so this asks whether the 0-branch still reaches `need`.
    if (ones0 >= need || search.max(t0, need - 1 - ones0) >= need - ones0) {
      need -= ones0;
      t.swap(t0);
    } else {
      need -= search.branch(t, v, true, t1);
      res.z_mask |= std::uint64_t{1} << v;
      t.swap(t1);
    }
  }
  assert(need == 0);
  obs::count("engine.lmax_visits", search.visits());

  // Report which outputs the chosen function is preferable for.
  std::vector<bool> full(mgr.num_vars(), false);
  for (std::uint32_t i = 0; i < p; ++i) full[i] = (res.z_mask >> i) & 1;
  res.covers.reserve(chis.size());
  unsigned check = 0;
  for (const bdd::Bdd& chi : chis) {
    const bool in = chi.eval(full);
    res.covers.push_back(in);
    check += in;
  }
  assert(check == res.coverage);
  return res;
}

LmaxResult lmax_explicit(bdd::Manager& mgr, std::uint32_t p,
                         const std::vector<bdd::Bdd>& chis) {
  assert(p <= 24);
  LmaxResult res;
  std::vector<bool> a(mgr.num_vars(), false);
  std::vector<bool> best_covers;
  for (std::uint64_t z = 0; z < (std::uint64_t{1} << p); ++z) {
    for (std::uint32_t i = 0; i < p; ++i) a[i] = (z >> i) & 1;
    unsigned cover = 0;
    std::vector<bool> covers;
    covers.reserve(chis.size());
    for (const bdd::Bdd& chi : chis) {
      const bool in = chi.eval(a);
      covers.push_back(in);
      cover += in;
    }
    if (cover > res.coverage) {
      res.coverage = cover;
      res.z_mask = z;
      best_covers = std::move(covers);
    }
  }
  res.covers = std::move(best_covers);
  if (res.covers.empty()) res.covers.assign(chis.size(), false);
  return res;
}

}  // namespace imodec
