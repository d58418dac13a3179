#include "map/report.hpp"

#include <algorithm>
#include <optional>

#include "bdd/manager.hpp"

namespace imodec {

namespace {

/// The config echo: every knob the flow ran with, read from the config and,
/// for internals it does not set, from its lowering and the flow's constants.
obs::Json config_json(const SynthesisConfig& c) {
  const FlowOptions flow = c.flow_options();
  obs::Json j = obs::Json::object();
  j["k"] = c.k;
  j["multi_output"] = c.multi_output;
  j["output_partitioning"] = flow.output_partitioning;
  j["max_vector_outputs"] = flow.max_vector_outputs;
  j["max_vector_inputs"] = kMaxVectorInputs;
  j["max_group_trials"] = kMaxGroupTrials;
  j["max_p"] = c.max_p;
  j["strict"] = c.strict;
  j["via_v_substitution"] = flow.imodec.via_v_substitution;
  j["bound_size"] = c.bound_size;
  j["max_exhaustive"] = flow.varpart.max_exhaustive;
  j["samples"] = flow.varpart.samples;
  j["climb_iters"] = flow.varpart.climb_iters;
  j["eval_budget"] = flow.varpart.eval_budget;
  j["seed"] = c.seed;
  j["collapse"] = c.collapse;
  j["classical"] = c.classical;
  j["verify"] = to_string(c.verify);
  j["verify_node_budget"] = c.verify_node_budget;
  j["timeout_ms"] = c.timeout_ms;
  j["node_budget"] = c.node_budget;
  j["on_exhaustion"] = to_string(c.on_exhaustion);
  j["threads"] = c.threads;
  j["batch_groups"] = c.batch_groups;
  j["result_cache"] = c.result_cache;
  j["result_cache_entries"] = c.result_cache_entries;
  return j;
}

obs::Json result_json(const DriverReport& r) {
  obs::Json j = obs::Json::object();
  j["collapsed"] = r.collapsed;
  j["luts"] = r.flow.luts;
  j["clbs"] = r.clbs.clbs;
  j["clb_paired_blocks"] = r.clbs.paired_blocks;
  j["clb_single_blocks"] = r.clbs.single_function_blocks;
  j["depth"] = r.depth;
  j["vectors"] = r.flow.vectors;
  j["max_m"] = r.flow.max_m;
  j["max_p"] = r.flow.max_p;
  j["shared_functions"] = r.flow.shared_functions;
  j["shannon_fallbacks"] = r.flow.shannon_fallbacks;
  j["lmax_rounds"] = r.flow.lmax_rounds;
  j["flow_seconds"] = r.flow.seconds;
  j["bdd_nodes"] = r.flow.bdd_nodes;
  j["bdd_cache_hit_rate"] = r.flow.cache_hit_rate();
  j["verify_mode"] = to_string(r.verify_mode);
  j["verified"] = r.verified;
  j["verified_exhaustive"] = r.verified_exhaustive;
  j["verify_proven"] = r.verify_proven;
  return j;
}

obs::Json degrade_json(const DegradationReport& d) {
  obs::Json j = obs::Json::object();
  j["degraded"] = d.degraded();
  j["deadline_expired"] = d.deadline_expired;
  j["engine_exhausted"] = d.engine_exhausted;
  j["single_fallbacks"] = d.single_fallbacks;
  j["shannon_degrades"] = d.shannon_degrades;
  j["drained"] = d.drained;
  j["restructure_stopped_early"] = d.restructure_stopped_early;
  j["collapse_skipped"] = d.collapse_skipped;
  j["verify_downgraded"] = d.verify_downgraded;
  obs::Json events = obs::Json::array();
  for (const std::string& e : d.events) events.push_back(e);
  j["events"] = std::move(events);
  return j;
}

/// Kernel health for one manager prefix ("bdd" = engine runs, "miter.bdd" =
/// the verification miter), assembled from what publish_stats() put in the
/// registry. Returns nullopt when that prefix never published (e.g. verify
/// was off, or every vector was narrow enough to skip the engine).
std::optional<obs::Json> kernel_json(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::vector<std::pair<std::string, obs::Registry::GaugeValue>>&
        gauges,
    const std::string& prefix) {
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const std::string full = prefix + "." + name;
    const auto it = std::lower_bound(
        counters.begin(), counters.end(), full,
        [](const auto& kv, const std::string& k) { return kv.first < k; });
    return it != counters.end() && it->first == full ? it->second : 0;
  };
  const auto gauge = [&](const std::string& name) -> std::int64_t {
    const std::string full = prefix + "." + name;
    const auto it = std::lower_bound(
        gauges.begin(), gauges.end(), full,
        [](const auto& kv, const std::string& k) { return kv.first < k; });
    return it != gauges.end() && it->first == full ? it->second.max : 0;
  };
  if (counter("nodes_allocated") == 0 && counter("cache_lookups") == 0)
    return std::nullopt;

  obs::Json j = obs::Json::object();
  j["nodes_allocated"] = counter("nodes_allocated");
  j["peak_live_nodes"] = gauge("peak_live_nodes");
  j["unique_load_factor"] =
      static_cast<double>(gauge("unique_load_ppm")) / 1e6;
  j["peak_arena_bytes"] = gauge("peak_arena_bytes");
  j["gc_runs"] = counter("gc_runs");
  obs::Json rates = obs::Json::object();
  for (unsigned cls = 0; cls < bdd::Manager::Stats::kOpClasses; ++cls) {
    const char* op = bdd::Manager::op_class_name(cls);
    const std::uint64_t lookups = counter(std::string("cache_lookups.") + op);
    const std::uint64_t hits = counter(std::string("cache_hits.") + op);
    obs::Json r = obs::Json::object();
    r["lookups"] = lookups;
    r["hits"] = hits;
    r["hit_rate"] = lookups ? static_cast<double>(hits) /
                                  static_cast<double>(lookups)
                            : 0.0;
    rates[op] = std::move(r);
  }
  j["cache"] = std::move(rates);
  return j;
}

}  // namespace

obs::Json build_run_report(const std::string& circuit,
                           const SynthesisConfig& cfg,
                           const DriverReport& rep) {
  static const obs::Registry kNoMetrics;  // a run with observability off
  const obs::Registry& reg = rep.metrics ? *rep.metrics : kNoMetrics;
  const auto counters = reg.counters();
  const auto gauges = reg.gauges();

  obs::Json doc = obs::Json::object();
  doc["report"] = "imodec_run";
  doc["schema_version"] = kRunReportSchemaVersion;
  doc["circuit"] = circuit;
  doc["config"] = config_json(cfg);
  doc["result"] = result_json(rep);
  doc["degrade"] = degrade_json(rep.degrade);
  doc["phases"] = obs::trace_rollup_json(rep.spans);

  obs::Json cj = obs::Json::object();
  for (const auto& [name, value] : counters) cj[name] = value;
  doc["counters"] = std::move(cj);

  obs::Json gj = obs::Json::object();
  for (const auto& [name, gv] : gauges) {
    obs::Json g = obs::Json::object();
    g["value"] = gv.value;
    g["max"] = gv.max;
    gj[name] = std::move(g);
  }
  doc["gauges"] = std::move(gj);

  obs::Json hj = obs::Json::object();
  for (const auto& [name, s] : reg.histograms()) {
    obs::Json h = obs::Json::object();
    h["count"] = s.count;
    h["sum"] = s.sum;
    h["max"] = s.max;
    h["p50"] = s.p50;
    h["p90"] = s.p90;
    h["p99"] = s.p99;
    hj[name] = std::move(h);
  }
  doc["histograms"] = std::move(hj);

  obs::Json kernel = obs::Json::object();
  for (const char* prefix : {"bdd", "miter.bdd"})
    if (auto k = kernel_json(counters, gauges, prefix))
      kernel[prefix] = std::move(*k);
  doc["kernel"] = std::move(kernel);

  doc["flight"] = obs::flight_json(rep.flight, rep.flight_recorded);
  return doc;
}

bool write_run_report(const std::string& path, const std::string& circuit,
                      const SynthesisConfig& cfg, const DriverReport& rep) {
  return obs::write_json_file(path, build_run_report(circuit, cfg, rep));
}

}  // namespace imodec
