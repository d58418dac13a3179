#pragma once
// SynthesisConfig: the one validated knob surface of the pipeline.
//
// The library internally still layers FlowOptions -> ImodecOptions /
// VarPartOptions, but embedders and the CLI should not have to know which
// struct a knob lives in, and none of the nested structs can check
// cross-cutting invariants (e.g. max_vector_inputs >= k). This struct
// flattens every user-facing knob, validates the whole set with
// human-readable diagnostics, and lowers to the nested structs in one place
// (flow_options() / restructure_options(), called by the driver).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "map/lutflow.hpp"
#include "map/restructure.hpp"

namespace imodec {

/// How the driver checks the mapped network against its input.
enum class VerifyMode : std::uint8_t {
  off,    ///< skip the check entirely
  sim,    ///< simulation: exhaustive up to 16 inputs, sampled beyond
  exact,  ///< BDD miter proof, no node budget (exact at any input count)
  auto_,  ///< miter within SynthesisConfig::verify_node_budget, else sim
};

constexpr std::string_view to_string(VerifyMode m) {
  switch (m) {
    case VerifyMode::off: return "off";
    case VerifyMode::sim: return "sim";
    case VerifyMode::exact: return "exact";
    case VerifyMode::auto_: return "auto";
  }
  return "?";
}

/// Parse "off" / "sim" / "exact" / "auto"; nullopt otherwise.
std::optional<VerifyMode> parse_verify_mode(std::string_view s);

/// What a governed run does when it hits its deadline or node budget
/// (DESIGN.md §12).
enum class OnExhaustion : std::uint8_t {
  fail,     ///< throw util::Timeout / util::ResourceExhausted out of the run
  degrade,  ///< walk the degradation ladder; always return a verified network
};

constexpr std::string_view to_string(OnExhaustion e) {
  switch (e) {
    case OnExhaustion::fail: return "fail";
    case OnExhaustion::degrade: return "degrade";
  }
  return "?";
}

/// Parse "fail" / "degrade"; nullopt otherwise.
std::optional<OnExhaustion> parse_on_exhaustion(std::string_view s);

struct SynthesisConfig {
  // --- LUT flow ------------------------------------------------------------
  unsigned k = 5;                    ///< LUT input count (XC3000: 5)
  bool multi_output = true;          ///< false = "Single" baseline
  bool output_partitioning = true;   ///< greedy §7 grouping
  unsigned max_vector_outputs = 8;   ///< m cap per vector
  unsigned max_vector_inputs = 18;   ///< input-union cap per vector
  unsigned max_group_trials = 6;     ///< grouping attempts per vector

  // --- Engine --------------------------------------------------------------
  std::uint32_t max_p = 64;          ///< global class cap (64-bit z masks)
  bool strict = false;               ///< one code per local class
  bool via_v_substitution = false;   ///< paper-faithful ψ construction

  // --- Bound-set search ----------------------------------------------------
  unsigned bound_size = 5;           ///< b; clamped to n-1 at run time
  std::size_t max_exhaustive = 4096;
  std::size_t samples = 64;
  std::size_t climb_iters = 48;
  std::uint64_t eval_budget = std::uint64_t{1} << 24;
  std::uint64_t seed = 0xB0D5ull;

  // --- Driver --------------------------------------------------------------
  /// Collapse the network first (the paper's default). Falls back to
  /// restructuring when a cone exceeds the truth-table limit (the paper's
  /// '*' circuits). When false, restructure unconditionally.
  bool collapse = true;
  /// Classical two-step flow (paper §1): technology-independent kernel
  /// extraction first, then per-output decomposition. Implies no collapsing
  /// and single-output mode — the baseline IMODEC's combined approach is
  /// pitched against.
  bool classical = false;
  /// Equivalence check of the result: off / sim / exact / auto. `auto_` (the
  /// default) proves equivalence with the BDD miter (src/verify/miter)
  /// whenever the build fits `verify_node_budget` live nodes and falls back
  /// to simulation otherwise.
  VerifyMode verify = VerifyMode::auto_;
  /// Live BDD-node cap for the miter when verify == auto (~16 B/node).
  std::size_t verify_node_budget = std::size_t{1} << 21;

  // --- Resource governance (DESIGN.md §12) ----------------------------------
  /// Wall-clock deadline for the whole run in milliseconds; 0 = none.
  std::uint64_t timeout_ms = 0;
  /// Live BDD-node budget per governed manager (~16 bytes/node); 0 = none.
  /// Enforced inside the kernel with a GC retry before tripping.
  std::size_t node_budget = 0;
  /// fail: a trip escapes run_synthesis as util::Timeout /
  /// util::ResourceExhausted. degrade: the flow falls back (engine -> single
  /// -> Shannon, drain mode past the deadline) and the DriverReport's
  /// DegradationReport records what happened.
  OnExhaustion on_exhaustion = OnExhaustion::fail;

  // --- Result cache (DESIGN.md §14.3) ---------------------------------------
  /// Serve repeated decomposition work from the session's result cache
  /// (map/npn_cache.hpp): group decompositions, grouping trials and own-cost
  /// baselines, each keyed by its exact function tuple and the options it
  /// depends on. A hit equals the computation it replaces, so results are
  /// the same with the cache on or off, warm or cold. Vectors wider than
  /// max_vector_inputs bypass it.
  bool result_cache = false;
  /// Bounded LRU capacity of the result cache (entries).
  std::size_t result_cache_entries = 4096;

  // --- Observability (DESIGN.md §13) ----------------------------------------
  /// When non-empty, write the unified run report (schema-versioned JSON:
  /// config echo, phase rollup, counters, histogram summaries, kernel
  /// health, degradation, verify outcome, flight events) here after each
  /// run. Implies observability is enabled for the session.
  std::string report_path;
  /// Emit a stderr heartbeat every `progress_ms` milliseconds while a run is
  /// in flight (phase, elapsed, live BDD nodes, budget/deadline fractions).
  /// 0 (default) = off.
  std::uint64_t progress_ms = 0;

  // --- Restructuring (used when collapsing is off or falls back) -----------
  unsigned restructure_max_support = 10;  ///< fanin cap after elimination
  unsigned restructure_max_fanout = 1;    ///< 1 = never duplicate logic
  unsigned restructure_passes = 4;

  // --- Parallel runtime ----------------------------------------------------
  /// Execution width (threads incl. the caller); 0 = hardware concurrency,
  /// 1 = serial. Results are identical for every value.
  unsigned threads = 0;
  /// Groups decomposed concurrently per worklist round; affects results the
  /// way a seed does (deterministically), never per thread count.
  unsigned batch_groups = 8;

  /// Validate the whole configuration. Returns one human-readable line per
  /// violation ("k must be in [2, 16] (got 1)"); empty means valid. The CLI
  /// prints these instead of asserting deep inside the pipeline.
  std::vector<std::string> validate() const;

  /// Lower to the nested option structs (pre: validate().empty()).
  FlowOptions flow_options() const;
  RestructureOptions restructure_options() const;
};

}  // namespace imodec
