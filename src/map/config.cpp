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
  // Every valid k fits the flow's widest vector, which fits a TruthTable.
  static_assert(kMaxVectorInputs >= 16 &&
                kMaxVectorInputs <= TruthTable::kMaxVars);
  if (max_p == 0) bad("max_p must be >= 1 (got 0)");
  if (max_p > 64)
    bad("max_p must be <= 64 (global classes live in 64-bit masks; got %u)",
        max_p);
  if (bound_size == 0) bad("bound_size must be >= 1 (got 0)");
  if (bound_size > k)
    bad("bound_size (%u) must be <= k (%u): a d-node wider than one LUT "
        "could never be mapped",
        bound_size, k);
  if (batch_groups == 0) bad("batch_groups must be >= 1 (got 0)");
  if (verify_node_budget == 0)
    bad("verify_node_budget must be positive (got 0)");
  if (result_cache && result_cache_entries == 0)
    bad("result_cache_entries must be >= 1 when result_cache is on (got 0)");
  return diags;
}

FlowOptions SynthesisConfig::flow_options() const {
  FlowOptions flow;
  flow.k = k;
  flow.multi_output = multi_output && !classical;
  flow.imodec.max_p = max_p;
  flow.imodec.strict = strict;
  flow.varpart.bound_size = bound_size;
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
  return RestructureOptions{};
}

}  // namespace imodec
