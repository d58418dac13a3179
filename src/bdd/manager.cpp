#include "bdd/manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>

#include <chrono>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"
#include "util/resource.hpp"

namespace imodec::bdd {
namespace {

/// Internal unwind signal: a governed make_node hit the guard's node budget.
/// Only thrown while a guard is attached; converted by Manager::governed into
/// either a successful GC-retry or a util::ResourceExhausted.
struct NodeBudgetHit {};

/// SplitMix64 finalizer — the mixing step behind both flat tables.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t hash_triple(std::uint32_t var, NodeId lo, NodeId hi) {
  return mix64((static_cast<std::uint64_t>(var) << 32 | lo) *
                   0x9e3779b97f4a7c15ull ^
               hi);
}

constexpr NodeId kNotFound = 0xffffffffu;
constexpr std::size_t kInitialUnique = std::size_t(1) << 11;
constexpr std::size_t kMinCache = std::size_t(1) << 12;
constexpr std::size_t kMaxCache = std::size_t(1) << 21;

/// Maintains a recursion-depth counter and its watermark across every exit
/// path of a recursive frame (early returns, exceptions, GC-retry unwinds).
struct DepthScope {
  std::uint32_t* depth;
  DepthScope(std::uint32_t* d, std::uint32_t* dmax) : depth(d) {
    if (++*d > *dmax) *dmax = *d;
  }
  ~DepthScope() { --*depth; }
};

}  // namespace

Manager::Manager(unsigned num_vars) : num_vars_(num_vars) {
  // Arena slot 0 is the one terminal; its permanent external reference keeps
  // every GC from touching it.
  nodes_.push_back(Node{kTerminalVar, 0, 0, 1});
  live_nodes_ = peak_nodes_ = 1;
  unique_.assign(kInitialUnique, 0);
  cache_.assign(kMinCache, CacheEntry{});
}

Manager::~Manager() {
  if (guard_) guard_->charge_nodes(-static_cast<std::int64_t>(guard_charged_));
}

void Manager::set_resource_guard(util::ResourceGuard* guard) {
  if (guard_ == guard) return;
  if (guard_) guard_->charge_nodes(-static_cast<std::int64_t>(guard_charged_));
  guard_ = guard;
  guard_charged_ = 0;
  sync_guard_charge();
}

void Manager::sync_guard_charge() {
  if (!guard_) return;
  const std::int64_t delta = static_cast<std::int64_t>(live_nodes_) -
                             static_cast<std::int64_t>(guard_charged_);
  if (delta != 0) guard_->charge_nodes(delta);
  guard_charged_ = live_nodes_;
}

template <typename Fn>
NodeId Manager::governed(const std::vector<NodeId>& roots, Fn&& fn) {
  // Nested public calls (e.g. vector_compose_rec -> var) must not run their
  // own recovery: a GC here would free the outer recursion's unreferenced
  // intermediates. Only the outermost governed frame recovers.
  if (!guard_ || in_governed_) return fn();
  in_governed_ = true;
  struct Reset {
    bool* flag;
    ~Reset() { *flag = false; }
  } reset{&in_governed_};

  const auto protect = [&](int d) {
    for (const NodeId r : roots) nodes_[r >> 1].ref += d;
  };
  // One collection with the operands protected, then one retry. The ladder:
  // trip -> GC -> retry -> second trip -> typed ResourceExhausted.
  const auto recover = [&](bool from_budget) {
    protect(+1);
    try {
      garbage_collect();
    } catch (const std::bad_alloc&) {
      protect(-1);
      throw util::ResourceExhausted(util::ResourceKind::memory,
                                    "BDD arena allocation failed during GC");
    }
    protect(-1);
    const std::size_t budget = guard_->node_budget();
    if (from_budget && budget != 0 && live_nodes_ >= budget)
      throw util::ResourceExhausted(
          util::ResourceKind::bdd_nodes,
          "BDD node budget exceeded (GC could not free enough)");
  };

  try {
    return fn();
  } catch (const NodeBudgetHit&) {
    recover(/*from_budget=*/true);
  } catch (const std::bad_alloc&) {
    recover(/*from_budget=*/false);
  }
  try {
    return fn();
  } catch (const NodeBudgetHit&) {
    throw util::ResourceExhausted(util::ResourceKind::bdd_nodes,
                                  "BDD node budget exceeded");
  } catch (const std::bad_alloc&) {
    throw util::ResourceExhausted(util::ResourceKind::memory,
                                  "BDD arena allocation failed");
  }
}

void Manager::reset(unsigned num_vars) {
  // Logically this is ~Manager() + Manager(num_vars), minus the frees: the
  // arena vector keeps its capacity and the flat tables keep their (possibly
  // grown) sizes, just zeroed. Results are unaffected by table capacity —
  // node allocation order depends only on the operation sequence (a bigger
  // computed cache can skip a recomputation, but a recomputation of a
  // still-cached result finds every node in the unique table and allocates
  // nothing) — so a warm reset manager is bit-identical in behaviour to a
  // fresh one, only without the cold allocation cost.
  if (guard_) guard_->charge_nodes(-static_cast<std::int64_t>(guard_charged_));
  guard_ = nullptr;
  guard_charged_ = 0;
  num_vars_ = num_vars;
  nodes_.clear();
  nodes_.push_back(Node{kTerminalVar, 0, 0, 1});
  live_nodes_ = peak_nodes_ = 1;
  free_head_ = 0;
  std::fill(unique_.begin(), unique_.end(), 0u);
  unique_occupied_ = 0;
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  gc_threshold_ = 1u << 14;
  in_governed_ = false;
  ite_depth_ = ite_depth_max_ = 0;
  stats_ = Stats{};
}

void Manager::add_vars(unsigned extra) { num_vars_ += extra; }

void Manager::assert_live(NodeId f) const {
  (void)f;
  assert(edge_live(f) &&
         "BDD edge used after GC -- hold nodes in a bdd::Bdd handle");
}

void Manager::ref(NodeId f) {
  assert_live(f);
  ++nodes_[f >> 1].ref;
}

void Manager::deref(NodeId f) {
  assert_live(f);
  Node& n = nodes_[f >> 1];
  assert(n.ref > 0 && "unbalanced deref");
  --n.ref;
}

// --- Unique table ------------------------------------------------------------

NodeId Manager::make_node(unsigned v, NodeId lo_e, NodeId hi_e) {
  if (lo_e == hi_e) return lo_e;  // reduction rule
  // Governance checkpoint: every operation recurses through here, so this one
  // site gives sub-operation granularity for deadlines and cancellation.
  // Unwinding from a checkpoint is safe at this point — nothing has been
  // mutated yet and half-built recursion results are just future garbage.
  if (guard_) guard_->checkpoint();
  // Canonical form: regular hi child; the complement moves to the result.
  const NodeId comp = hi_e & 1u;
  lo_e ^= comp;
  hi_e ^= comp;
  assert(v < num_vars_);
  // Fixed order: children branch on strictly larger variable indices (the
  // terminal's kTerminalVar is larger than every variable).
  assert(nodes_[lo_e >> 1].var > v);
  assert(nodes_[hi_e >> 1].var > v);

  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = hash_triple(v, lo_e, hi_e) & mask;
  while (true) {
    const std::uint32_t idx = unique_[slot];
    if (idx == 0) break;
    const Node& n = nodes_[idx];
    if (n.var == v && n.lo == lo_e && n.hi == hi_e) {
      ++stats_.unique_hits;
      return (idx << 1) | comp;
    }
    slot = (slot + 1) & mask;
  }

  std::uint32_t idx;
  if (free_head_) {
    idx = free_head_;
    free_head_ = nodes_[idx].lo;  // free list chains through lo
  } else {
    if constexpr (util::fault::enabled())
      if (guard_ && util::fault::poll_alloc())
        throw std::bad_alloc{};  // exercises the governed() GC-retry ladder
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});  // bad_alloc unwinds to governed()'s recovery
  }
  nodes_[idx] = Node{v, lo_e, hi_e, 0};
  unique_[slot] = idx;
  ++unique_occupied_;
  ++live_nodes_;
  ++stats_.nodes_allocated;
  if (live_nodes_ > peak_nodes_) peak_nodes_ = live_nodes_;
  if (guard_) {
    guard_->charge_nodes(1);
    ++guard_charged_;
    // Budget enforcement is per manager — per work unit — so whether a
    // decomposition trips depends only on its own allocation sequence, never
    // on what other threads' managers are doing (DESIGN.md §12.3). The node
    // is fully inserted before the unwind, so the tables stay consistent and
    // the orphan is reclaimed by the recovery GC.
    const std::size_t budget = guard_->node_budget();
    bool trip = budget != 0 && live_nodes_ > budget;
    if constexpr (util::fault::enabled())
      trip = trip || util::fault::poll_budget();
    if (trip) throw NodeBudgetHit{};
  }
  if ((unique_occupied_ + 1) * 4 > unique_.size() * 3)
    unique_rehash(unique_.size() * 2);
  return (idx << 1) | comp;
}

void Manager::unique_insert_slot(std::uint32_t i) {
  const std::size_t mask = unique_.size() - 1;
  const Node& n = nodes_[i];
  std::size_t slot = hash_triple(n.var, n.lo, n.hi) & mask;
  while (unique_[slot] != 0) slot = (slot + 1) & mask;
  unique_[slot] = i;
  ++unique_occupied_;
}

void Manager::unique_rehash(std::size_t new_size) {
  if (new_size != unique_.size())
    obs::flight(obs::FlightKind::cache, "unique_rehash", unique_.size(),
                new_size);
  unique_.assign(new_size, 0);
  unique_occupied_ = 0;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].var != kFreeVar_) unique_insert_slot(i);
  cache_resize_for_table();
}

void Manager::cache_resize_for_table() {
  const std::size_t target =
      std::min(std::max(kMinCache, unique_.size() / 2), kMaxCache);
  if (cache_.size() != target) {
    obs::flight(obs::FlightKind::cache, "cache_resize", cache_.size(), target);
    cache_.assign(target, CacheEntry{});
  }
}

// --- Computed table ----------------------------------------------------------

NodeId Manager::cached(Op op, NodeId a, NodeId b, NodeId c) {
  ++stats_.cache_lookups;
  ++stats_.op_lookups[static_cast<std::uint32_t>(op) - 1];
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(a) << 32 | b) * 0x9e3779b97f4a7c15ull ^
            (static_cast<std::uint64_t>(c) |
             static_cast<std::uint64_t>(op) << 56));
  const CacheEntry& e = cache_[h & (cache_.size() - 1)];
  if (e.op == op && e.a == a && e.b == b && e.c == c) {
    ++stats_.cache_hits;
    ++stats_.op_hits[static_cast<std::uint32_t>(op) - 1];
    return e.result;
  }
  return kNotFound;
}

void Manager::cache_insert(Op op, NodeId a, NodeId b, NodeId c, NodeId r) {
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(a) << 32 | b) * 0x9e3779b97f4a7c15ull ^
            (static_cast<std::uint64_t>(c) |
             static_cast<std::uint64_t>(op) << 56));
  cache_[h & (cache_.size() - 1)] = CacheEntry{a, b, c, op, r};
}

// --- Garbage collection ------------------------------------------------------

void Manager::maybe_gc() {
  if (live_nodes_ < gc_threshold_) return;
  garbage_collect();
  // Still mostly live after collecting: raise the bar so we don't thrash.
  if (live_nodes_ * 2 > gc_threshold_) gc_threshold_ *= 2;
}

void Manager::garbage_collect() {
  ++stats_.gc_runs;
  // Pause measurement rides on either sink: the histogram needs obs, and
  // governed runs keep a flight ring even when obs is off.
  const bool measure = obs::enabled() || obs::FlightRecorder::current();
  std::chrono::steady_clock::time_point gc_start;
  if (measure) gc_start = std::chrono::steady_clock::now();
  const std::size_t nodes_before = live_nodes_;
  std::vector<bool> mark(nodes_.size(), false);
  mark[0] = true;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].var != kFreeVar_ && nodes_[i].ref > 0) stack.push_back(i);
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    if (mark[i]) continue;
    mark[i] = true;
    const Node& n = nodes_[i];
    if (!mark[n.lo >> 1]) stack.push_back(n.lo >> 1);
    if (!mark[n.hi >> 1]) stack.push_back(n.hi >> 1);
  }
  // Sweep descending so the free list pops low indices first (locality).
  live_nodes_ = 1;
  free_head_ = 0;
  for (std::uint32_t i = static_cast<std::uint32_t>(nodes_.size()) - 1; i >= 1;
       --i) {
    if (mark[i]) {
      ++live_nodes_;
    } else {
      nodes_[i].var = kFreeVar_;
      nodes_[i].lo = free_head_;
      nodes_[i].ref = 0;
      free_head_ = i;
    }
  }
  // Node ids get recycled, so every cached result is now suspect.
  for (CacheEntry& e : cache_) e = CacheEntry{};
  unique_rehash(unique_.size());
  sync_guard_charge();
  if (measure) {
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - gc_start)
            .count());
    obs::observe("bdd.gc_pause_us", us);
    obs::flight(obs::FlightKind::gc, "gc", nodes_before, live_nodes_, us);
  }
}

// --- ITE core ----------------------------------------------------------------

NodeId Manager::ite_rec(NodeId f, NodeId g, NodeId h) {
  DepthScope depth(&ite_depth_, &ite_depth_max_);
  // Terminal selectors and trivially equal branches.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (is_terminal(g) && is_terminal(h)) return g == kTrue ? f : f ^ 1u;
  // Regular selector: ite(!f, g, h) == ite(f, h, g).
  if (f & 1u) {
    f ^= 1u;
    const NodeId t = g;
    g = h;
    h = t;
  }
  // Branches that repeat the selector collapse to constants.
  if (g == f)
    g = kTrue;
  else if (g == (f ^ 1u))
    g = kFalse;
  if (h == f)
    h = kFalse;
  else if (h == (f ^ 1u))
    h = kTrue;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return f ^ 1u;

  // Commutative forms (AND/OR/XOR shapes) pick the (variable, edge)-smaller
  // operand as the selector so both argument orders share one cache entry.
  const auto precedes = [this](NodeId x_regular, NodeId y_regular) {
    const unsigned vx = var_of(x_regular);
    const unsigned vy = var_of(y_regular);
    return vx < vy || (vx == vy && x_regular < y_regular);
  };
  if (g == kTrue) {  // f OR h
    if (!is_terminal(h) && precedes(h & ~1u, f)) {
      const NodeId t = f;
      f = h;
      h = t;
    }
  } else if (h == kFalse) {  // f AND g
    if (!is_terminal(g) && precedes(g & ~1u, f)) {
      const NodeId t = f;
      f = g;
      g = t;
    }
  } else if (g == kFalse) {  // !f AND h == ite(!h, 0, !f)
    if (!is_terminal(h) && precedes(h & ~1u, f)) {
      const NodeId t = f;
      f = h ^ 1u;
      h = t ^ 1u;
    }
  } else if (h == kTrue) {  // !f OR g == ite(!g, !f, 1)
    if (!is_terminal(g) && precedes(g & ~1u, f)) {
      const NodeId t = f;
      f = g ^ 1u;
      g = t ^ 1u;
    }
  } else if (g == (h ^ 1u)) {  // f XNOR g == ite(g, f, !f)
    if (precedes(g & ~1u, f)) {
      const NodeId t = f;
      f = g;
      g = t;
      h = t ^ 1u;
    }
  }
  // The rewrites may have complemented the selector; restore regularity,
  // then pull a complement out of g so the cached triple has a regular g.
  if (f & 1u) {
    f ^= 1u;
    const NodeId t = g;
    g = h;
    h = t;
  }
  NodeId comp = 0;
  if (g & 1u) {
    g ^= 1u;
    h ^= 1u;
    comp = 1u;
  }

  NodeId r = cached(Op::Ite, f, g, h);
  if (r != kNotFound) return r ^ comp;

  // Split on the top variable of the triple (terminals carry kTerminalVar,
  // which no variable index reaches).
  const unsigned v = std::min({var_of(f), var_of(g), var_of(h)});

  NodeId f0 = f, f1 = f, g0 = g, g1 = g, h0 = h, h1 = h;
  if (nodes_[f >> 1].var == v) {
    f0 = lo(f);
    f1 = hi(f);
  }
  if (var_of(g) == v) {
    g0 = lo(g);
    g1 = hi(g);
  }
  if (var_of(h) == v) {
    h0 = lo(h);
    h1 = hi(h);
  }
  const NodeId t = ite_rec(f1, g1, h1);
  const NodeId e = ite_rec(f0, g0, h0);
  r = make_node(v, e, t);
  cache_insert(Op::Ite, f, g, h, r);
  return r ^ comp;
}

NodeId Manager::ite(NodeId f, NodeId g, NodeId h) {
  assert_live(f);
  assert_live(g);
  assert_live(h);
  if (live_nodes_ >= gc_threshold_) {
    ++nodes_[f >> 1].ref;
    ++nodes_[g >> 1].ref;
    ++nodes_[h >> 1].ref;
    maybe_gc();
    --nodes_[f >> 1].ref;
    --nodes_[g >> 1].ref;
    --nodes_[h >> 1].ref;
  }
  const bool measure = obs::enabled();
  if (measure) ite_depth_max_ = ite_depth_;
  const NodeId r = governed({f, g, h}, [&] { return ite_rec(f, g, h); });
  if (measure) {
    // Hoist the locked name lookup per thread and registry: a pooled
    // manager outlives its run's registry, but serials are never reused.
    thread_local std::uint64_t serial = 0;
    thread_local obs::Histogram* hist = nullptr;
    obs::Registry& reg = obs::Registry::current();
    if (reg.serial() != serial) {
      hist = &reg.histogram("bdd.ite_depth");
      serial = reg.serial();
    }
    hist->record(ite_depth_max_);
  }
  return r;
}

NodeId Manager::apply_and(NodeId f, NodeId g) { return ite(f, g, kFalse); }
NodeId Manager::apply_or(NodeId f, NodeId g) { return ite(f, kTrue, g); }
NodeId Manager::apply_xor(NodeId f, NodeId g) { return ite(f, g ^ 1u, g); }

// --- Construction helpers ----------------------------------------------------

NodeId Manager::var(unsigned v) {
  assert(v < num_vars_);
  return governed({}, [&] { return make_node(v, kFalse, kTrue); });
}

NodeId Manager::cube(const std::vector<unsigned>& vars,
                     const std::vector<bool>& phases) {
  assert(vars.size() == phases.size());
  // Build bottom-up (largest variable first); make_node wants ordered
  // children.
  std::vector<std::size_t> idx(vars.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return vars[a] > vars[b]; });
  return governed({}, [&] {
    NodeId acc = kTrue;
    for (std::size_t k : idx) {
      acc = phases[k] ? make_node(vars[k], kFalse, acc)
                      : make_node(vars[k], acc, kFalse);
    }
    return acc;
  });
}

// --- Cofactor / composition --------------------------------------------------

NodeId Manager::cofactor_rec(NodeId f, unsigned v, bool value) {
  if (is_terminal(f)) return f;
  // Cofactoring commutes with complement, so cache on the regular edge.
  const NodeId c = f & 1u;
  const NodeId fr = f ^ c;
  // Copy the fields out: the recursive calls below can grow the arena, so no
  // reference into nodes_ may live across them.
  const unsigned nvar = nodes_[fr >> 1].var;
  const NodeId nlo = nodes_[fr >> 1].lo;
  const NodeId nhi = nodes_[fr >> 1].hi;
  if (nvar > v) return f;
  if (nvar == v) return (value ? nhi : nlo) ^ c;
  // The operand slot b carries the cofactor literal (v, value).
  const NodeId lit = (static_cast<NodeId>(v) << 1) | value;
  NodeId r = cached(Op::Cofactor, fr, lit, 0);
  if (r == kNotFound) {
    const NodeId l = cofactor_rec(nlo, v, value);
    const NodeId h = cofactor_rec(nhi, v, value);
    r = make_node(nvar, l, h);
    cache_insert(Op::Cofactor, fr, lit, 0, r);
  }
  return r ^ c;
}

NodeId Manager::cofactor(NodeId f, unsigned v, bool value) {
  assert_live(f);
  assert(v < num_vars_);
  return governed({f}, [&] { return cofactor_rec(f, v, value); });
}

NodeId Manager::vector_compose_rec(NodeId f, const std::vector<NodeId>& map,
                                   std::unordered_map<NodeId, NodeId>& memo) {
  if (is_terminal(f)) return f;
  // Substitution commutes with complement: memoize on the regular edge.
  const NodeId c = f & 1u;
  const NodeId fr = f ^ c;
  const auto it = memo.find(fr);
  if (it != memo.end()) return it->second ^ c;
  const NodeId l = vector_compose_rec(nodes_[fr >> 1].lo, map, memo);
  const NodeId h = vector_compose_rec(nodes_[fr >> 1].hi, map, memo);
  const unsigned v = nodes_[fr >> 1].var;
  const NodeId sel =
      (v < map.size() && map[v] != kNoReplacement) ? map[v] : var(v);
  const NodeId r = ite_rec(sel, h, l);
  memo.emplace(fr, r);
  return r ^ c;
}

NodeId Manager::vector_compose(NodeId f, const std::vector<NodeId>& map) {
  assert_live(f);
  if (live_nodes_ >= gc_threshold_) {
    ++nodes_[f >> 1].ref;
    for (NodeId m : map)
      if (m != kNoReplacement) {
        assert_live(m);
        ++nodes_[m >> 1].ref;
      }
    maybe_gc();
    --nodes_[f >> 1].ref;
    for (NodeId m : map)
      if (m != kNoReplacement) --nodes_[m >> 1].ref;
  }
  std::vector<NodeId> roots{f};
  for (NodeId m : map)
    if (m != kNoReplacement) roots.push_back(m);
  // The memo lives inside the frame: a retry must not see pre-GC node ids.
  return governed(roots, [&] {
    std::unordered_map<NodeId, NodeId> memo;
    return vector_compose_rec(f, map, memo);
  });
}

// --- Queries -----------------------------------------------------------------

double Manager::prob_rec(NodeId f, std::unordered_map<NodeId, double>& memo) {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  const NodeId c = f & 1u;
  const NodeId fr = f ^ c;
  double p;
  const auto it = memo.find(fr);
  if (it != memo.end()) {
    p = it->second;
  } else {
    // Skipped levels average out of the recurrence, so no gap scaling.
    p = 0.5 * (prob_rec(nodes_[fr >> 1].lo, memo) +
               prob_rec(nodes_[fr >> 1].hi, memo));
    memo.emplace(fr, p);
  }
  return c ? 1.0 - p : p;
}

double Manager::sat_count(NodeId f) {
  assert_live(f);
  std::unordered_map<NodeId, double> memo;
  return prob_rec(f, memo) * std::ldexp(1.0, static_cast<int>(num_vars_));
}

std::vector<unsigned> Manager::support(NodeId f) {
  assert_live(f);
  std::vector<bool> in(num_vars_, false);
  std::unordered_set<std::uint32_t> seen;
  std::vector<std::uint32_t> stack;
  if (!is_terminal(f)) stack.push_back(f >> 1);
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || !seen.insert(i).second) continue;
    in[nodes_[i].var] = true;
    stack.push_back(nodes_[i].lo >> 1);
    stack.push_back(nodes_[i].hi >> 1);
  }
  std::vector<unsigned> vars;
  for (unsigned v = 0; v < num_vars_; ++v)
    if (in[v]) vars.push_back(v);
  return vars;
}

bool Manager::eval(NodeId f, const std::vector<bool>& assignment) const {
  assert_live(f);
  while (!is_terminal(f)) f = assignment[var_of(f)] ? hi(f) : lo(f);
  return f == kTrue;
}

std::size_t Manager::dag_size(NodeId f) {
  assert_live(f);
  if (is_terminal(f)) return 0;
  std::unordered_set<std::uint32_t> seen;
  std::vector<std::uint32_t> stack{f >> 1};
  std::size_t count = 0;
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || !seen.insert(i).second) continue;
    ++count;
    stack.push_back(nodes_[i].lo >> 1);
    stack.push_back(nodes_[i].hi >> 1);
  }
  return count;
}

bool Manager::pick_minterm(NodeId f, std::vector<bool>& assignment) {
  assert_live(f);
  assignment.assign(num_vars_, false);
  if (f == kFalse) return false;
  // Any edge other than kFalse is satisfiable, so a greedy walk suffices.
  while (!is_terminal(f)) {
    const unsigned v = var_of(f);
    const NodeId l = lo(f);
    if (l != kFalse) {
      f = l;
    } else {
      assignment[v] = true;
      f = hi(f);
    }
  }
  assert(f == kTrue);
  return true;
}

void Manager::foreach_minterm(
    NodeId f, const std::vector<unsigned>& vars,
    const std::function<bool(const std::vector<bool>&)>& cb) {
  assert_live(f);
  // Walk positions in variable order so the cube expansion descends the DAG.
  std::vector<std::size_t> order(vars.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return vars[a] < vars[b]; });
  std::vector<bool> assignment(vars.size(), false);
  std::function<bool(NodeId, std::size_t)> rec = [&](NodeId g,
                                                     std::size_t k) -> bool {
    if (g == kFalse) return true;
    if (k == order.size()) {
      assert(g == kTrue && "f depends on variables outside vars");
      return cb(assignment);
    }
    const std::size_t pos = order[k];
    NodeId g0 = g, g1 = g;
    if (!is_terminal(g) && var_of(g) == vars[pos]) {
      g0 = lo(g);
      g1 = hi(g);
    }
    assignment[pos] = false;
    if (!rec(g0, k + 1)) return false;
    assignment[pos] = true;
    if (!rec(g1, k + 1)) return false;
    assignment[pos] = false;
    return true;
  };
  rec(f, 0);
}

// --- Introspection -----------------------------------------------------------

const char* Manager::op_class_name(unsigned cls) {
  static const char* const kNames[Stats::kOpClasses] = {"ite", "cofactor"};
  return cls < Stats::kOpClasses ? kNames[cls] : "?";
}

void Manager::publish_stats(const char* prefix) const {
  if (!obs::enabled()) return;
  const std::string p = prefix;
  obs::Registry& reg = obs::Registry::current();
  reg.counter(p + ".nodes_allocated").add(stats_.nodes_allocated);
  reg.counter(p + ".unique_hits").add(stats_.unique_hits);
  reg.counter(p + ".cache_lookups").add(stats_.cache_lookups);
  reg.counter(p + ".cache_hits").add(stats_.cache_hits);
  reg.counter(p + ".gc_runs").add(stats_.gc_runs);
  for (unsigned cls = 0; cls < Stats::kOpClasses; ++cls) {
    const std::string op = op_class_name(cls);
    reg.counter(p + ".cache_lookups." + op).add(stats_.op_lookups[cls]);
    reg.counter(p + ".cache_hits." + op).add(stats_.op_hits[cls]);
  }
  reg.gauge(p + ".peak_live_nodes")
      .set(static_cast<std::int64_t>(peak_nodes_));
  // Kernel health for the run report: unique-table fill in parts-per-million
  // (gauges are integers) and the arena's resident footprint.
  reg.gauge(p + ".unique_load_ppm")
      .set(static_cast<std::int64_t>(unique_occupied_ * 1000000 /
                                     std::max<std::size_t>(unique_.size(), 1)));
  reg.gauge(p + ".peak_arena_bytes")
      .set(static_cast<std::int64_t>(nodes_.capacity() * sizeof(Node)));
}

bool Manager::check_invariants() const {
  if (nodes_.empty() || nodes_[0].var != kTerminalVar) return false;
  if (nodes_[0].ref == 0) return false;
  std::size_t live = 1;
  std::set<std::tuple<std::uint32_t, NodeId, NodeId>> triples;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kFreeVar_) continue;
    ++live;
    if (n.var >= num_vars_) return false;
    if (n.lo == n.hi) return false;
    if (n.hi & 1u) return false;  // canonical form: regular hi child
    for (const NodeId child : {n.lo, n.hi}) {
      const std::uint32_t ci = child >> 1;
      if (ci >= nodes_.size()) return false;
      if (nodes_[ci].var == kFreeVar_) return false;
      if (nodes_[ci].var <= n.var) return false;
    }
    if (!triples.insert({n.var, n.lo, n.hi}).second) return false;
  }
  if (live != live_nodes_) return false;
  // Every live internal node must be findable through the unique table.
  const std::size_t mask = unique_.size() - 1;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kFreeVar_) continue;
    std::size_t slot = hash_triple(n.var, n.lo, n.hi) & mask;
    bool found = false;
    while (unique_[slot] != 0) {
      if (unique_[slot] == i) {
        found = true;
        break;
      }
      slot = (slot + 1) & mask;
    }
    if (!found) return false;
  }
  // Occupied slots must reference live nodes.
  for (const std::uint32_t idx : unique_) {
    if (idx == 0) continue;
    if (idx >= nodes_.size() || nodes_[idx].var == kFreeVar_) return false;
  }
  return true;
}

}  // namespace imodec::bdd
