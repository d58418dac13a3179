#pragma once
// LUT decomposition flow: turn a network into a k-feasible one by repeated
// functional decomposition, in either multiple-output (IMODEC) or
// single-output mode, including the paper's greedy output-partitioning
// heuristic (§7).
//
// The flow walks all wide logic nodes, groups them into function vectors
// over shared inputs, decomposes each vector with the implicit engine, and
// replaces the nodes by d-nodes (bound-set functions, shared across outputs
// of the vector and structurally hashed across vectors) and g-nodes;
// g-nodes wider than k re-enter the worklist. A Shannon-expansion fallback
// guarantees progress on undecomposable functions.

#include <array>
#include <cstdint>
#include <string>

#include "decomp/varpart.hpp"
#include "imodec/engine.hpp"
#include "logic/network.hpp"

namespace imodec::util {
class ResourceGuard;
class ThreadPool;
}  // namespace imodec::util

namespace imodec {

class NpnCache;

/// Cap on the input union of a vector: grouping does not combine candidates
/// pushing past it (keeps the truth-table work per trial bounded), and wider
/// vectors bypass the result cache.
inline constexpr unsigned kMaxVectorInputs = 18;
/// Cap on candidate combinations tried per group before giving up.
inline constexpr unsigned kMaxGroupTrials = 6;

struct FlowOptions {
  unsigned k = 5;  // LUT size (XC3000: 5)
  /// false = "Single" column: every node decomposed on its own.
  bool multi_output = true;
  /// Greedy output partitioning (§7). Ignored when multi_output is false.
  bool output_partitioning = true;
  /// Cap on the number of outputs per vector (the paper limits m when the
  /// global class count explodes, e.g. alu4).
  unsigned max_vector_outputs = 8;
  ImodecOptions imodec;
  VarPartOptions varpart;
  /// Record the function vectors handed to the engine (Table-1 style
  /// analysis); capped at 64 records.
  bool record_vectors = false;
  /// Execution pool of the parallel runtime (not owned; nullptr = serial).
  /// Independent group decompositions of one worklist round run
  /// concurrently; d-node structural hashing happens in the serial merge
  /// step afterwards, so results are identical for every thread count.
  util::ThreadPool* pool = nullptr;
  /// Groups selected per worklist round (the unit of concurrency). Part of
  /// the deterministic contract: results depend on this value — like on a
  /// seed — but never on the thread count or on whether a pool is set.
  unsigned batch_groups = 8;
  /// Resource governance (not owned; nullptr = ungoverned). Checkpointed by
  /// every engine run, bound-set search and BDD operation of the flow.
  util::ResourceGuard* guard = nullptr;
  /// Session result cache (not owned; nullptr = off). Wired by the driver
  /// from the run's RunResources when SynthesisConfig::result_cache is set.
  /// Keys are exact and include these options, so results do not depend on
  /// it (DESIGN.md §14.3).
  NpnCache* npn_cache = nullptr;
  /// Cross-check every cache-served decomposition by recompose() against
  /// the requested function (set by the exact/auto verify modes).
  bool cache_verify_hits = false;
  /// Exhaustion policy. When false (fail), a guard trip propagates out of
  /// decompose_to_luts as util::Timeout / util::ResourceExhausted. When true
  /// (degrade), the flow walks the degradation ladder instead: engine
  /// exhausted -> per-output single decomposition -> Shannon cofactoring on
  /// the most binate variable; once the deadline has expired it drains the
  /// worklist Shannon-only. Either way the returned network is complete and
  /// k-feasible — never a silent partial netlist (DESIGN.md §12).
  bool degrade = false;
};

/// What the degradation ladder had to do during a governed flow run. All
/// counters are zero on an ungoverned or untripped run; `degraded()` is the
/// one-bit summary surfaced as the bench `degraded` field.
struct DegradationReport {
  bool deadline_expired = false;   // guard deadline observed expired
  unsigned engine_exhausted = 0;   // vector decompositions that tripped
  unsigned single_fallbacks = 0;   // ladder step 2: per-output single decomp
  unsigned shannon_degrades = 0;   // ladder step 3: most-binate Shannon split
  unsigned drained = 0;            // nodes processed in Shannon-only drain mode
  bool restructure_stopped_early = false;  // set by the driver (see driver.cpp)
  bool collapse_skipped = false;           // set by the driver
  bool verify_downgraded = false;          // miter -> sampled simulation
  /// First few human-readable ladder events, capped (diagnostics only; the
  /// counters above are the machine-readable record).
  std::vector<std::string> events;
  static constexpr std::size_t kMaxEvents = 32;
  void note(std::string msg) {
    if (events.size() < kMaxEvents) events.push_back(std::move(msg));
  }
  bool degraded() const {
    return deadline_expired || engine_exhausted || single_fallbacks ||
           shannon_degrades || drained || restructure_stopped_early ||
           collapse_skipped || verify_downgraded;
  }
  /// Merge a sub-phase report into an aggregate one (driver-level).
  void merge(const DegradationReport& o) {
    deadline_expired |= o.deadline_expired;
    engine_exhausted += o.engine_exhausted;
    single_fallbacks += o.single_fallbacks;
    shannon_degrades += o.shannon_degrades;
    drained += o.drained;
    restructure_stopped_early |= o.restructure_stopped_early;
    collapse_skipped |= o.collapse_skipped;
    verify_downgraded |= o.verify_downgraded;
    for (const std::string& e : o.events) note(e);
  }
};

/// One decomposed function vector as it occurred during a flow run.
struct RecordedVector {
  std::vector<TruthTable> outputs;
  VarPartition vp;
  ImodecStats stats;
};

struct FlowStats {
  unsigned luts = 0;            // k-feasible logic nodes after the flow
  unsigned max_m = 0;           // largest vector decomposed
  std::uint32_t max_p = 0;      // largest global class count observed
  unsigned vectors = 0;         // decompositions performed
  unsigned shared_functions = 0;  // Σ(Σc_k - q) over vectors: functions saved
  unsigned shannon_fallbacks = 0;
  unsigned lmax_rounds = 0;     // Σ over committed engine runs
  /// Why selected vectors could not be decomposed as chosen, indexed by
  /// DecomposeError; the driver surfaces these instead of the old silent
  /// fallback.
  std::array<unsigned, kNumDecomposeErrors> errors{};
  unsigned error_count(DecomposeError e) const {
    return errors[static_cast<std::size_t>(e)];
  }
  unsigned total_errors() const {
    unsigned sum = 0;
    for (unsigned c : errors) sum += c;
    return sum;
  }
  /// Derived from the flow's `flow.decompose_to_luts` span (one timing
  /// source; see obs/trace.hpp).
  double seconds = 0.0;
  // BDD manager totals summed over every engine run of the flow, trial
  // decompositions included (they cost the same CPU as committed ones).
  std::uint64_t bdd_nodes = 0;
  std::uint64_t bdd_cache_lookups = 0;
  std::uint64_t bdd_cache_hits = 0;
  double cache_hit_rate() const {
    return bdd_cache_lookups ? static_cast<double>(bdd_cache_hits) /
                                   static_cast<double>(bdd_cache_lookups)
                             : 0.0;
  }
};

struct FlowResult {
  Network network;  // k-feasible
  FlowStats stats;
  DegradationReport degrade;  // empty unless a governed run tripped
  std::vector<RecordedVector> recorded;  // when FlowOptions::record_vectors
};

FlowResult decompose_to_luts(const Network& src, const FlowOptions& opts);

/// Collapse every output to a single node over its cone inputs (the paper's
/// starting point for Table 2's IMODEC/Single columns). Fails (nullopt) when
/// any cone support exceeds TruthTable::kMaxVars — the circuits the paper
/// marks with '*' behave the same way. A guard (optional, not owned) is
/// checkpointed once per output cone; an expired deadline throws
/// util::Timeout, which the degrade-mode driver turns into the restructure
/// path (DegradationReport::collapse_skipped).
std::optional<Network> collapse_network(const Network& src,
                                        util::ResourceGuard* guard = nullptr);

}  // namespace imodec
