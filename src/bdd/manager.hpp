#pragma once
// From-scratch ROBDD package (the paper's CUDD substitute).
//
// Reduced ordered BDDs *with complement edges*: a NodeId is an edge — the
// arena index of a node shifted left one, with the complement flag in bit 0.
// Negation is therefore O(1) (flip bit 0), and a function and its complement
// share one DAG. Canonical form: the hi child of every stored node is a
// regular (uncomplemented) edge; complement bits live only on lo children and
// on external edges. The single terminal node occupies arena index 0 and
// denotes FALSE when referenced regular, so the classic constants keep their
// values: kFalse == 0, kTrue == 1.
//
// All operations lower onto one ITE core with the standard triple
// normalization (Brace/Rudell/Bryant). The unique table is an open-addressed
// power-of-two array over the node arena, and the computed table is a lossy
// direct-mapped cache; both grow adaptively with the arena. External
// references are counted per node; users hold nodes through the RAII `Bdd`
// handle (bdd/bdd.hpp) — ref/deref are private to enforce that. In debug
// builds every public operation asserts its operand edges are live, so a raw
// NodeId held across a garbage collection (instead of through a handle)
// fails fast instead of silently denoting a recycled node.
//
// The variable order is fixed: variable v sits at level v, so every node's
// children branch on strictly larger variable indices. The IMODEC flow builds
// χ over z1…zp in index order and never needs another order, so there is no
// dynamic reordering and no level map to consult.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace imodec::util {
class ResourceGuard;
}

namespace imodec::bdd {

/// An edge: (arena index << 1) | complement bit.
using NodeId = std::uint32_t;
inline constexpr NodeId kFalse = 0;  // regular edge to the terminal
inline constexpr NodeId kTrue = 1;   // complemented edge to the terminal
inline constexpr std::uint32_t kTerminalVar = 0xffffffffu;

class Bdd;

class Manager {
 public:
  explicit Manager(unsigned num_vars);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // --- Resource governance (DESIGN.md §12) -----------------------------------
  /// Attach a guard (not owned; must outlive the attachment; nullptr
  /// detaches). A governed manager checkpoints the guard in make_node — i.e.
  /// in every operation's recursion — so deadline expiry and cancellation
  /// surface as util::Timeout / util::ResourceExhausted from whichever public
  /// operation is running. The guard's node budget caps this manager's live
  /// nodes: on a trip (or a std::bad_alloc from arena/table growth) the
  /// running operation unwinds, the manager collects garbage with the
  /// operation's operands protected, and the operation is retried once;
  /// if the limit still binds, util::ResourceExhausted escapes. Either way
  /// the manager stays valid and consistent.
  void set_resource_guard(util::ResourceGuard* guard);
  util::ResourceGuard* resource_guard() const { return guard_; }

  unsigned num_vars() const { return num_vars_; }
  /// Grow the variable count (new variables order below existing ones).
  void add_vars(unsigned extra);

  /// Recycle the manager for a fresh run over `num_vars` variables: the
  /// arena shrinks to the terminal, the unique and computed tables are
  /// cleared, stats/depth watermarks restart, and any guard detaches —
  /// but every allocation (arena capacity, table sizes) is kept, so a warm
  /// manager never pays cold growth again. This is the serving-layer
  /// primitive behind bdd::ManagerPool (manager_pool.hpp): a reset manager
  /// is observationally a freshly constructed one with pre-grown tables.
  /// Pre: no live Bdd handles into this manager.
  void reset(unsigned num_vars);

  NodeId zero() const { return kFalse; }
  NodeId one() const { return kTrue; }
  /// Projection function of variable `v`.
  NodeId var(unsigned v);
  /// Complement of the projection function of variable `v`.
  NodeId nvar(unsigned v) { return var(v) ^ 1u; }
  /// Literal: variable `v` with the given phase (true = positive).
  NodeId literal(unsigned v, bool phase) { return phase ? var(v) : nvar(v); }

  bool is_terminal(NodeId f) const { return f <= kTrue; }
  unsigned var_of(NodeId f) const { return nodes_[f >> 1].var; }
  /// Children with the parent edge's complement bit pushed through, so
  /// lo/hi always denote the actual cofactors of `f`.
  NodeId lo(NodeId f) const { return nodes_[f >> 1].lo ^ (f & 1u); }
  NodeId hi(NodeId f) const { return nodes_[f >> 1].hi ^ (f & 1u); }

  // --- Core operations ------------------------------------------------------
  NodeId apply_and(NodeId f, NodeId g);
  NodeId apply_or(NodeId f, NodeId g);
  NodeId apply_xor(NodeId f, NodeId g);
  /// O(1): complement edges make negation a bit flip.
  NodeId apply_not(NodeId f) const { return f ^ 1u; }
  NodeId ite(NodeId f, NodeId g, NodeId h);

  /// Shannon cofactor of f with variable v fixed to `value`.
  NodeId cofactor(NodeId f, unsigned v, bool value);
  /// Simultaneous substitution; map[v] == kNoReplacement keeps v.
  static constexpr NodeId kNoReplacement = 0xffffffffu;
  NodeId vector_compose(NodeId f, const std::vector<NodeId>& map);

  /// Conjunction of literals: vars[i] with phase phases[i].
  NodeId cube(const std::vector<unsigned>& vars,
              const std::vector<bool>& phases);

  // --- Queries ---------------------------------------------------------------
  /// Number of satisfying assignments over all num_vars() variables.
  double sat_count(NodeId f);
  /// Variables that f structurally depends on, ascending.
  std::vector<unsigned> support(NodeId f);
  /// Evaluate under a complete assignment (indexed by variable).
  bool eval(NodeId f, const std::vector<bool>& assignment) const;
  /// Number of internal DAG nodes of f (terminals excluded; a node shared by
  /// f and its complement counts once).
  std::size_t dag_size(NodeId f);

  /// One satisfying assignment (values for all variables; unconstrained
  /// variables are set to false). Returns false iff f == 0.
  bool pick_minterm(NodeId f, std::vector<bool>& assignment);

  /// Enumerate all satisfying assignments over the given variables. The
  /// callback receives the assignment indexed by position in `vars`.
  /// f must not depend on variables outside `vars`. Stops if cb returns false.
  void foreach_minterm(NodeId f, const std::vector<unsigned>& vars,
                       const std::function<bool(const std::vector<bool>&)>& cb);

  // --- Introspection / maintenance -------------------------------------------
  /// Hot-path event counts, updated unconditionally (plain increments next to
  /// hash probes — noise-level cost). Consumers fold them into the
  /// observability registry; see publish_stats().
  struct Stats {
    std::uint64_t nodes_allocated = 0;  // fresh nodes created
    std::uint64_t unique_hits = 0;      // make_node found an existing node
    std::uint64_t cache_lookups = 0;    // computed-table probes
    std::uint64_t cache_hits = 0;
    std::uint64_t gc_runs = 0;
    // Computed-table probes/hits split by operation class, indexed by
    // static_cast<uint32_t>(Op) - 1; see op_class_name().
    static constexpr unsigned kOpClasses = 2;
    std::uint64_t op_lookups[kOpClasses] = {};
    std::uint64_t op_hits[kOpClasses] = {};
    double cache_hit_rate() const {
      return cache_lookups ? static_cast<double>(cache_hits) /
                                 static_cast<double>(cache_lookups)
                           : 0.0;
    }
    double op_hit_rate(unsigned cls) const {
      return op_lookups[cls] ? static_cast<double>(op_hits[cls]) /
                                   static_cast<double>(op_lookups[cls])
                             : 0.0;
    }
  };
  /// "ite" / "cofactor" for cls in [0, kOpClasses).
  static const char* op_class_name(unsigned cls);
  const Stats& stats() const { return stats_; }
  /// Fold this manager's stats into the process-wide obs registry under
  /// `<prefix>.*` (plus a `<prefix>.peak_live_nodes` gauge). No-op when
  /// observability is disabled.
  void publish_stats(const char* prefix = "bdd") const;

  std::size_t live_node_count() const { return live_nodes_; }
  std::size_t peak_node_count() const { return peak_nodes_; }
  /// Current capacities of the flat tables (tests pin resize invariants).
  std::size_t unique_table_size() const { return unique_.size(); }
  std::size_t computed_cache_size() const { return cache_.size(); }
  /// Reclaim dead nodes now; invoked automatically during growth.
  void garbage_collect();

  /// Internal consistency check (unique-table sanity, orderedness, canonical
  /// regular-hi form); used by tests and debug assertions. Returns true iff
  /// all invariants hold.
  bool check_invariants() const;

 private:
  // The RAII handle is the only way to hold an external reference; everything
  // else must not survive a GC point (enforced by assert_live in debug).
  friend class Bdd;
  void ref(NodeId f);
  void deref(NodeId f);

  struct Node {
    std::uint32_t var;  // kTerminalVar terminal, kFreeVar on the free list
    NodeId lo;          // edge, may be complemented; free-list next when free
    NodeId hi;          // edge, always regular (canonical form)
    std::uint32_t ref;  // external reference count
  };

  enum class Op : std::uint32_t {
    None = 0,  // empty cache slot
    Ite,
    Cofactor,
  };
  struct CacheEntry {
    NodeId a = 0, b = 0, c = 0;
    Op op = Op::None;
    NodeId result = 0;
  };

  static std::uint32_t index_of(NodeId f) { return f >> 1; }
  bool edge_live(NodeId f) const {
    const std::uint32_t i = index_of(f);
    return i < nodes_.size() && nodes_[i].var != kFreeVar_;
  }
  void assert_live(NodeId f) const;

  NodeId make_node(unsigned v, NodeId lo, NodeId hi);
  /// Run `fn` (one public operation) under the GC-retry ladder described at
  /// set_resource_guard(); `roots` are the operand edges to protect across
  /// the recovery collection. Defined in manager.cpp (only used there).
  template <typename Fn>
  NodeId governed(const std::vector<NodeId>& roots, Fn&& fn);
  /// Reconcile guard_charged_ with live_nodes_ after bulk changes (GC).
  void sync_guard_charge();
  void unique_insert_slot(std::uint32_t i);
  void unique_rehash(std::size_t new_size);
  void cache_resize_for_table();
  void maybe_gc();

  NodeId cached(Op op, NodeId a, NodeId b, NodeId c);
  void cache_insert(Op op, NodeId a, NodeId b, NodeId c, NodeId r);

  NodeId ite_rec(NodeId f, NodeId g, NodeId h);
  NodeId cofactor_rec(NodeId f, unsigned v, bool value);
  NodeId vector_compose_rec(NodeId f, const std::vector<NodeId>& map,
                            std::unordered_map<NodeId, NodeId>& memo);
  double prob_rec(NodeId f, std::unordered_map<NodeId, double>& memo);

  static constexpr std::uint32_t kFreeVar_ = 0xfffffffeu;

  unsigned num_vars_;
  std::vector<Node> nodes_;       // arena; index 0 is the terminal
  std::vector<NodeId> unique_;    // open-addressed node indices; 0 = empty
  std::size_t unique_occupied_ = 0;  // filled slots (stale entries included)
  std::vector<CacheEntry> cache_;    // direct-mapped, lossy
  std::uint32_t free_head_ = 0;      // arena free list; 0 = empty
  std::size_t live_nodes_ = 0;
  std::size_t peak_nodes_ = 0;
  std::size_t gc_threshold_ = 1u << 14;
  util::ResourceGuard* guard_ = nullptr;  // not owned
  std::size_t guard_charged_ = 0;  // live nodes reported to guard_ so far
  // True while the outermost governed() frame runs; nested public calls
  // (var from inside vector_compose's recursion) must not start their own
  // recovery.
  bool in_governed_ = false;
  // ITE recursion depth watermark, maintained unconditionally (two plain
  // increments per frame); reset and folded into the obs histogram at the
  // public entry point when observability is on.
  std::uint32_t ite_depth_ = 0;
  std::uint32_t ite_depth_max_ = 0;
  mutable Stats stats_;
};

}  // namespace imodec::bdd
