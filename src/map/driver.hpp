#pragma once
// High-level synthesis driver — the library behind the `imodec` command-line
// tool (the paper's IMODEC program embedded in TOS, §7).
//
// Pipeline: (optional) collapse or restructure -> decompose to k-input LUTs
// (multiple-output IMODEC or single-output baseline) -> XC3000 CLB packing ->
// equivalence verification against the input.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "map/config.hpp"
#include "map/xc3000.hpp"
#include "obs/trace.hpp"
#include "opt/extract.hpp"

namespace imodec::util {
class ThreadPool;
}  // namespace imodec::util

namespace imodec::bdd {
class ManagerPool;
}  // namespace imodec::bdd

namespace imodec {

class NpnCache;

struct DriverReport {
  bool collapsed = false;   // did the collapsed path run?
  FlowStats flow;
  /// What the degradation ladder had to do (on_exhaustion=degrade with a
  /// deadline/budget only; all-zero otherwise). Aggregated over every
  /// governed phase: collapse, restructure, LUT flow, verification.
  DegradationReport degrade;
  ClbPacking clbs;
  unsigned depth = 0;       // logic levels of the mapped network
  bool verified = true;     // equivalence result (true when verify == off)
  /// The verdict covers the whole input space: exhaustive simulation or a
  /// miter proof (see verify_proven for which).
  bool verified_exhaustive = false;
  /// Check that actually ran: `exact` when the miter produced a verdict,
  /// `sim` when simulation did (requested, or auto fell back on budget),
  /// `off` when no check ran.
  VerifyMode verify_mode = VerifyMode::off;
  /// The verdict is a BDD miter proof (not sampled, not enumerated).
  bool verify_proven = false;
  /// Input assignment (indexed like input.inputs()) where the mapped
  /// network differs, when !verified and the check found one.
  std::optional<std::vector<bool>> counterexample;
  /// Observability section, populated only when obs::enabled(): the spans
  /// recorded during this run (re-rooted at `driver.run_synthesis`) and a
  /// snapshot of the process-wide counter registry taken at the end.
  std::vector<obs::Span> spans;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Run the full synthesis pipeline; returns the report and stores the mapped
/// network in `mapped`. Creates a thread pool per call when opts.threads
/// resolves to > 1; SynthesisSession (map/session.hpp) amortizes the pool
/// across runs. Pre: opts.validate().empty().
///
/// Resource governance: with timeout_ms / node_budget set and
/// on_exhaustion=fail, throws util::Timeout or util::ResourceExhausted when
/// the limit trips; with on_exhaustion=degrade it always returns a complete,
/// verified network plus rep.degrade describing the fallbacks taken — never
/// a crash or a silent partial netlist (DESIGN.md §12).
DriverReport run_synthesis(const Network& input, const SynthesisConfig& opts,
                           Network& mapped);

/// Long-lived resources a run may borrow (none owned; every field may be
/// null). SynthesisSession keeps one of these warm across runs so a served
/// request never pays cold allocation (DESIGN.md §14):
///  - pool:      the execution pool (nullptr = serial)
///  - npn_cache: the session result cache; consulted only when
///               opts.result_cache is set
///  - managers:  recycled BDD managers for the engine's per-vector runs
struct RunResources {
  util::ThreadPool* pool = nullptr;
  NpnCache* npn_cache = nullptr;
  bdd::ManagerPool* managers = nullptr;
};

/// As above, but on borrowed resources instead of a per-call pool.
DriverReport run_synthesis(const Network& input, const SynthesisConfig& opts,
                           Network& mapped, const RunResources& res);

/// Render a human-readable report block (used by the CLI).
std::string format_report(const std::string& name, const DriverReport& rep);

}  // namespace imodec
