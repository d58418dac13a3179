#pragma once
// Differential fuzzing of the whole synthesis pipeline.
//
// Each random case (verify/gen) is pushed through the full flow under a set
// of configurations and cross-checked three ways:
//   1. correctness — the mapped network is proved equivalent to the input
//      with the BDD miter (exhaustive simulation as a backstop);
//   2. determinism — the serial (threads=1, result cache off) and parallel
//      (threads=8, result cache on and warm across cases) runs must produce
//      bit-identical LUT networks (DESIGN.md §9 and §14.3);
//   3. error paths — configs chosen to trigger DecomposeError fallbacks
//      (tiny max_p, tiny k) must still yield equivalent networks.
// Any failure is shrunk (verify/shrink) to a locally minimal case and
// optionally written to disk as a .pla repro plus the failing config.

#include <cstdint>
#include <string>
#include <vector>

#include "map/config.hpp"
#include "verify/gen.hpp"

namespace imodec::verify {

/// One synthesis configuration the fuzzer cross-checks. `threads` and
/// `result_cache` inside the config are ignored: the fuzzer always runs
/// serial without the cache and 8-wide with it itself.
struct FuzzConfig {
  std::string label;
  SynthesisConfig cfg;
};

/// The default matrix: baseline k=5, a strict k=4 variant, a max_p=2 config
/// that forces p_overflow error paths, and the single-output flow.
std::vector<FuzzConfig> default_fuzz_configs();

struct FuzzOptions {
  std::uint64_t seed = 0xF0CC5ull;
  std::size_t cases = 100;
  GenOptions gen;
  /// Shrink failures before reporting.
  bool shrink = true;
  /// When non-empty, write each failure as <out_dir>/<case>-<label>.pla
  /// plus a .txt with the failing config (directory is created).
  std::string out_dir;
  /// Stop after this many failures.
  std::size_t max_failures = 8;
  /// Node budget of the correctness miter.
  std::size_t miter_node_budget = std::size_t{1} << 21;
  /// Configurations to cross-check; default_fuzz_configs() when empty.
  std::vector<FuzzConfig> configs;
};

struct FuzzFailure {
  std::size_t case_index = 0;
  std::uint64_t case_seed = 0;
  std::string config_label;
  /// "miter" (mapped != input) or "determinism" (serial != cached 8-wide).
  std::string kind;
  FuzzCase original;
  FuzzCase shrunk;  // == original when shrinking is off
  std::string repro_path;  // empty unless out_dir was set
};

struct FuzzReport {
  std::size_t cases = 0;
  std::size_t checks = 0;           // individual cross-checks executed
  std::size_t decompose_errors = 0; // DecomposeError fallbacks exercised
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

FuzzReport run_fuzz(const FuzzOptions& opts = {});

/// Human-readable summary (one line per failure + totals).
std::string format_fuzz_report(const FuzzReport& rep);

}  // namespace imodec::verify
