// Ablation studies for the design choices the paper calls out:
//
//  A. Non-strict vs strict decomposition (paper §1/§3: strict decompositions
//     "cannot detect all common decomposition functions").
//  B. Output partitioning heuristic on/off (paper §7).
//  C. Preferable-function restriction: size of the implicit search space per
//     output vs. the assignable-function space (the point of Theorem 1).
//  D. Bound-set size sweep (variable partitioning strongly affects p and q).

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "imodec/counting.hpp"
#include "imodec/engine.hpp"
#include "map/driver.hpp"
#include "map/lutflow.hpp"
#include "map/xc3000.hpp"
#include "obs/bench_json.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace imodec;

namespace {

const std::vector<std::string> kCircuits{"rd73", "rd84", "f51m", "z4ml",
                                         "5xp1", "clip", "misex1", "sao2"};

obs::BenchJson* g_sink = nullptr;
util::ThreadPool* g_pool = nullptr;  // set by --threads; results identical
unsigned g_threads = 1;

/// All ablations share the pooled flow entry point so `--threads` speeds up
/// every section the same way.
FlowResult run_flow(const Network& net, FlowOptions opts) {
  opts.pool = g_pool;
  return decompose_to_luts(net, opts);
}

void ablation_strict() {
  std::printf("--- A. non-strict vs strict codes (CLBs, collapsed flow) ---\n");
  std::printf("%-8s %10s %8s\n", "net", "non-strict", "strict");
  long ns = 0, st = 0;
  for (const auto& name : kCircuits) {
    const auto flat = collapse_network(*circuits::make_benchmark(name));
    if (!flat) continue;
    FlowOptions a;
    FlowOptions b;
    b.imodec.strict = true;
    const FlowResult ra = run_flow(*flat, a);
    const FlowResult rb = run_flow(*flat, b);
    const unsigned ca = pack_xc3000(ra.network).clbs;
    const unsigned cb = pack_xc3000(rb.network).clbs;
    std::printf("%-8s %10u %8u\n", name.c_str(), ca, cb);
    ns += ca;
    st += cb;
    if (g_sink) {
      obs::Json& rec = g_sink->add_record(name, ra.stats.seconds);
      rec["ablation"] = "strict";
      rec["clbs"] = ca;
      rec["clbs_strict"] = cb;
      rec["luts"] = ra.stats.luts;
      rec["lmax_rounds"] = ra.stats.lmax_rounds;
      rec["bdd_nodes"] = ra.stats.bdd_nodes;
      rec["cache_hit_rate"] = ra.stats.cache_hit_rate();
      rec["threads"] = g_threads;
    }
  }
  std::printf("%-8s %10ld %8ld  (non-strict should win or tie)\n\n", "sum", ns,
              st);
}

void ablation_output_partitioning() {
  std::printf("--- B. output partitioning heuristic (LUTs) ---\n");
  std::printf("%-8s %8s %8s\n", "net", "grouped", "solo");
  long g = 0, s = 0;
  for (const auto& name : kCircuits) {
    const auto flat = collapse_network(*circuits::make_benchmark(name));
    if (!flat) continue;
    FlowOptions a;
    FlowOptions b;
    b.output_partitioning = false;
    const unsigned la = run_flow(*flat, a).stats.luts;
    const unsigned lb = run_flow(*flat, b).stats.luts;
    std::printf("%-8s %8u %8u\n", name.c_str(), la, lb);
    g += la;
    s += lb;
  }
  std::printf("%-8s %8ld %8ld\n\n", "sum", g, s);
}

void ablation_preferable() {
  std::printf("--- C. search-space reduction by preferability ---\n");
  std::printf("(per-output counts on the widest recorded vector)\n");
  std::printf("%-8s %4s %4s %14s %14s %10s\n", "net", "b", "p", "# assign.",
              "# prefer.", "reduction");
  for (const auto& name : {"f51m", "rd84", "5xp1", "clip"}) {
    const auto flat = collapse_network(*circuits::make_benchmark(name));
    if (!flat) continue;
    FlowOptions opts;
    opts.record_vectors = true;
    const FlowResult r = run_flow(*flat, opts);
    if (r.recorded.empty()) continue;
    const RecordedVector* best = &r.recorded.front();
    for (const auto& rec : r.recorded)
      if (rec.outputs.size() > best->outputs.size()) best = &rec;
    const auto ch = characterize_vector(best->outputs, best->vp);
    for (std::size_t k = 0; k < ch.l_k.size(); ++k) {
      const double logdrop =
          ch.assignable[k].log10() - ch.preferable[k].log10();
      std::printf("%-8s %4u %4u %14s %14s %9.1fx\n", name, ch.b, ch.p,
                  ch.assignable[k].to_string().c_str(),
                  ch.preferable[k].to_string().c_str(),
                  std::pow(10.0, logdrop));
    }
  }
  std::printf("\n");
}

void ablation_bound_size() {
  std::printf("--- D. bound-set size sweep (LUTs, multi-output flow) ---\n");
  std::printf("%-8s", "net");
  for (unsigned b = 3; b <= 5; ++b) std::printf("    b=%u", b);
  std::printf("\n");
  for (const auto& name : {"rd84", "f51m", "clip"}) {
    std::printf("%-8s", name);
    for (unsigned b = 3; b <= 5; ++b) {
      const auto flat = collapse_network(*circuits::make_benchmark(name));
      FlowOptions opts;
      opts.varpart.bound_size = b;
      const FlowResult r = run_flow(*flat, opts);
      std::printf(" %6u", r.stats.luts);
    }
    std::printf("\n");
  }
  std::printf("(bound size is capped at k; the flow clamps b to the node "
              "support minus one)\n");
}

void ablation_classical() {
  std::printf("\n--- G. combined (IMODEC) vs classical extract-then-map "
              "(paper §1) ---\n");
  std::printf("%-8s %10s %12s\n", "net", "IMODEC", "classical");
  long im = 0, cl = 0;
  for (const auto& name : kCircuits) {
    const auto net = circuits::make_benchmark(name);
    Network mapped;
    const RunResources res{g_pool};
    SynthesisConfig a;
    const DriverReport ra = run_synthesis(*net, a, mapped, res);
    SynthesisConfig b;
    b.classical = true;
    const DriverReport rb = run_synthesis(*net, b, mapped, res);
    std::printf("%-8s %10u %12u%s\n", name.c_str(), ra.clbs.clbs,
                rb.clbs.clbs,
                (ra.verified && rb.verified) ? "" : "  VERIFY-FAIL");
    im += ra.clbs.clbs;
    cl += rb.clbs.clbs;
  }
  std::printf("%-8s %10ld %12ld  (combined should win: the paper's thesis)\n",
              "sum", im, cl);
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = obs::strip_json_flag(argc, argv);
  const auto threads = obs::strip_threads_flag(argc, argv);
  const bool obs_on = obs::strip_obs_flag(argc, argv);
  const auto report_dir = obs::strip_report_dir_flag(argc, argv);
  if (obs_on || report_dir) obs::set_enabled(true);
  obs::BenchJson sink("ablation");
  if (json_path) g_sink = &sink;

  g_threads = threads.value_or(1);
  if (g_threads == 0) g_threads = std::thread::hardware_concurrency();
  std::optional<util::ThreadPool> pool;
  if (g_threads > 1) {
    pool.emplace(g_threads);
    g_pool = &*pool;
  }

  std::printf("=== Ablations (design choices of DESIGN.md §3) ===\n\n");
  ablation_strict();
  ablation_output_partitioning();
  ablation_preferable();
  ablation_bound_size();
  ablation_classical();
  if (json_path) {
    if (!sink.write(*json_path)) {
      std::fprintf(stderr, "bench_ablation: cannot write %s\n",
                   json_path->c_str());
      return 1;
    }
    std::printf("wrote %s (%zu records)\n", json_path->c_str(),
                sink.num_records());
  }
  if (report_dir && !obs::write_obs_report(*report_dir, "ablation")) {
    std::fprintf(stderr, "bench_ablation: cannot write obs report under %s\n",
                 report_dir->c_str());
    return 1;
  }
  return 0;
}
