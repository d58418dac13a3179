#include "map/config.hpp"

#include "util/strings.hpp"

namespace imodec {

std::optional<VerifyMode> parse_verify_mode(std::string_view s) {
  if (s == "off") return VerifyMode::off;
  if (s == "sim") return VerifyMode::sim;
  if (s == "exact") return VerifyMode::exact;
  if (s == "auto") return VerifyMode::auto_;
  return std::nullopt;
}

std::optional<OnExhaustion> parse_on_exhaustion(std::string_view s) {
  if (s == "fail") return OnExhaustion::fail;
  if (s == "degrade") return OnExhaustion::degrade;
  return std::nullopt;
}

std::vector<std::string> SynthesisConfig::validate() const {
  std::vector<std::string> diags;
  const auto bad = [&](const char* fmt, auto... args) {
    diags.push_back(strprintf(fmt, args...));
  };

  if (k < 2 || k > 16) bad("k must be in [2, 16] (got %u)", k);
  if (max_vector_outputs == 0)
    bad("max_vector_outputs must be >= 1 (got 0)");
  if (max_vector_outputs > 64)
    bad("max_vector_outputs must be <= 64 (z-vertex masks are 64-bit; got %u)",
        max_vector_outputs);
  if (max_vector_inputs < k)
    bad("max_vector_inputs (%u) must be >= k (%u): a vector narrower than "
        "one LUT cannot occur",
        max_vector_inputs, k);
  if (max_vector_inputs > TruthTable::kMaxVars)
    bad("max_vector_inputs must be <= %u (TruthTable limit; got %u)",
        TruthTable::kMaxVars, max_vector_inputs);
  if (max_p == 0) bad("max_p must be >= 1 (got 0)");
  if (max_p > 64)
    bad("max_p must be <= 64 (global classes live in 64-bit masks; got %u)",
        max_p);
  if (bound_size == 0) bad("bound_size must be >= 1 (got 0)");
  if (bound_size > k)
    bad("bound_size (%u) must be <= k (%u): a d-node wider than one LUT "
        "could never be mapped",
        bound_size, k);
  if (eval_budget == 0) bad("eval_budget must be positive (got 0)");
  if (samples == 0) bad("samples must be >= 1 (got 0)");
  if (batch_groups == 0) bad("batch_groups must be >= 1 (got 0)");
  if (verify_node_budget == 0)
    bad("verify_node_budget must be positive (got 0)");
  if (restructure_max_support < 2)
    bad("restructure_max_support must be >= 2 (got %u)",
        restructure_max_support);
  if (restructure_passes == 0) bad("restructure_passes must be >= 1 (got 0)");
  if (result_cache && result_cache_entries == 0)
    bad("result_cache_entries must be >= 1 when result_cache is on (got 0)");
  return diags;
}

FlowOptions SynthesisConfig::flow_options() const {
  FlowOptions flow;
  flow.k = k;
  flow.multi_output = multi_output && !classical;
  flow.output_partitioning = output_partitioning;
  flow.max_vector_outputs = max_vector_outputs;
  flow.max_vector_inputs = max_vector_inputs;
  flow.max_group_trials = max_group_trials;
  flow.imodec.max_p = max_p;
  flow.imodec.strict = strict;
  flow.imodec.via_v_substitution = via_v_substitution;
  flow.varpart.bound_size = bound_size;
  flow.varpart.max_exhaustive = max_exhaustive;
  flow.varpart.samples = samples;
  flow.varpart.climb_iters = climb_iters;
  flow.varpart.eval_budget = eval_budget;
  flow.varpart.seed = seed;
  flow.batch_groups = batch_groups;
  flow.degrade = on_exhaustion == OnExhaustion::degrade;
  // Cache-served decompositions are cross-checked by recompose() whenever
  // the run itself is verified exactly (exact, or auto's miter-first path).
  flow.cache_verify_hits =
      verify == VerifyMode::exact || verify == VerifyMode::auto_;
  // flow.guard and flow.npn_cache are runtime objects, wired by the driver
  // (driver.cpp) from the run's RunResources, not config values.
  return flow;
}

RestructureOptions SynthesisConfig::restructure_options() const {
  RestructureOptions r;
  r.max_support = restructure_max_support;
  r.max_fanout = restructure_max_fanout;
  r.passes = restructure_passes;
  return r;
}

}  // namespace imodec
