// compile_t1: `imodec --threads 1 @circuit` over every Table 2 circuit.
//
// Untraced: round-robin passes over the 25-circuit corpus, one fresh
// SynthesisSession per compile (default SynthesisConfig, so result cache off
// and verify auto), the seed permuting circuit order within each pass. Per-
// circuit medians over passes spread host drift evenly over all circuits.
//
// Traced: one more pass in pass-0 order that calls the pipeline's layers
// one by one, in the driver's order, timing each from here (collapse or the
// restructure fallback, decompose_to_luts with recorded vectors, pack_xc3000,
// check_miter), then replays the recorded vectors through the explicit
// column-relation layer (choose_bound_set, local_partition_tt) and the
// implicit engine (decompose_multi_output).
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "circuits/registry.hpp"
#include "decomp/classes.hpp"
#include "decomp/varpart.hpp"
#include "imodec/engine.hpp"
#include "map/lutflow.hpp"
#include "map/restructure.hpp"
#include "map/session.hpp"
#include "map/xc3000.hpp"
#include "obs/metrics.hpp"
#include "verify/miter.hpp"

namespace perfbench {
namespace {

using namespace imodec;

struct Circuit {
  std::string name;
  Network net;
};

std::vector<Circuit> make_corpus() {
  std::vector<Circuit> corpus;
  for (const std::string& name : circuits::benchmark_names())
    corpus.push_back({name, *circuits::make_benchmark(name)});
  return corpus;
}

/// Passes per run: a fixed function of the run length, never of measured
/// speed; 3 at 20 s, so each circuit's median is robust to one disturbed
/// pass. At least 2, so every circuit has a repeat.
unsigned passes_for(unsigned seconds) {
  return std::max(2u, seconds * 3u / 20u);
}

struct Quality {
  unsigned luts = 0;
  unsigned clbs = 0;
};

struct TracedLayers {
  double collapse_s = 0, lutflow_s = 0, lutflow_cpu_s = 0, xc3000_s = 0,
         miter_s = 0, wall_s = 0;
  double collapse_nodes = 0, vectors = 0, lmax_rounds = 0, shannon = 0,
         errors = 0, bdd_nodes = 0, bdd_lookups = 0, bdd_hits = 0,
         miter_peak = 0, candidates = 0;
  std::vector<std::vector<RecordedVector>> recorded;  // per circuit
};

/// The traced pass: the driver's layers called one at a time.
TracedLayers traced_pass(const std::vector<Circuit>& corpus,
                         const std::vector<std::size_t>& order,
                         const std::vector<Quality>& untraced,
                         const SynthesisConfig& cfg, Result& out) {
  TracedLayers t;
  t.recorded.resize(corpus.size());
  for (std::size_t i : order) {
    const Circuit& c = corpus[i];
    reset_rss_hwm();  // same starting heap as an untraced compile
    const auto t_circ = Clock::now();
    SynthesisSession session(cfg);  // pool + recycled managers, as imodec

    auto t0 = Clock::now();
    std::optional<Network> flat = collapse_network(c.net);
    const Network start =
        flat ? std::move(*flat) : restructure(c.net, cfg.restructure_options());
    t.collapse_s += seconds_since(t0);
    t.collapse_nodes += static_cast<double>(start.logic_count());

    FlowOptions fo = cfg.flow_options();
    fo.pool = session.pool();
    fo.imodec.manager_pool = &session.managers();
    fo.record_vectors = true;
    const double cpu0 = process_cpu_seconds();
    t0 = Clock::now();
    FlowResult flow = decompose_to_luts(start, fo);
    t.lutflow_s += seconds_since(t0);
    t.lutflow_cpu_s += process_cpu_seconds() - cpu0;
    const FlowStats& fs = flow.stats;
    t.vectors += fs.vectors;
    t.lmax_rounds += fs.lmax_rounds;
    t.shannon += fs.shannon_fallbacks;
    t.errors += fs.total_errors();
    t.bdd_nodes += static_cast<double>(fs.bdd_nodes);
    t.bdd_lookups += static_cast<double>(fs.bdd_cache_lookups);
    t.bdd_hits += static_cast<double>(fs.bdd_cache_hits);

    t0 = Clock::now();
    const ClbPacking pack = pack_xc3000(flow.network);
    t.xc3000_s += seconds_since(t0);

    verify::MiterOptions mo;
    mo.node_budget = cfg.verify_node_budget;  // the `auto` budget
    t0 = Clock::now();
    const verify::MiterResult mr = verify::check_miter(c.net, flow.network, mo);
    t.miter_s += seconds_since(t0);
    t.miter_peak = std::max(t.miter_peak, static_cast<double>(mr.peak_nodes));
    t.wall_s += seconds_since(t_circ);

    if (!mr.proven || !mr.equivalent)
      out.fail("traced " + c.name + ": miter did not prove equivalence");
    if (fs.luts != untraced[i].luts || pack.clbs != untraced[i].clbs)
      out.fail("traced " + c.name + ": " + std::to_string(fs.luts) +
               " LUTs / " + std::to_string(pack.clbs) + " CLBs, untraced " +
               std::to_string(untraced[i].luts) + " / " +
               std::to_string(untraced[i].clbs));
    t.recorded[i] = std::move(flow.recorded);
  }
  t.candidates = static_cast<double>(
      obs::Registry::instance().histogram("varpart.candidate_us").count());
  return t;
}

}  // namespace

void run_compile(const Args& args, Result& out) {
  SynthesisConfig cfg;
  cfg.threads = 1;

  // --- set-up: corpus generation + session construction -----------------
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::vector<Circuit> c = make_corpus();
    { SynthesisSession warm(cfg); }
    setup_s.push_back(seconds_since(t0));
    return c;
  };
  const std::vector<Circuit> corpus = set_up();

  // --- untraced round-robin passes ----------------------------------------
  const std::size_t n = corpus.size();
  const unsigned passes = passes_for(args.seconds);
  const std::size_t setup_every = passes * n / (kSetupReps - 1);
  Rng rng(args.seed);
  std::vector<std::size_t> first_order;
  std::vector<std::vector<double>> times(n);
  std::vector<double> all_s, first_s, later_s, pass_wall_s;
  std::vector<std::vector<double>> rss_mb(n);  // per-compile peak RSS
  std::vector<Quality> quality(n);
  std::uint64_t ok = 0, proven = 0;
  for (unsigned p = 0; p < passes; ++p) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    shuffle(order, rng);
    if (p == 0) first_order = order;
    double pass_wall = 0.0;
    for (std::size_t i : order) {
      const Circuit& c = corpus[i];
      Network mapped;
      SynthesisSession::Outcome o;
      reset_rss_hwm();
      const auto t0 = Clock::now();
      {
        SynthesisSession session(cfg);
        o = session.run_checked(c.net, cfg, mapped);
      }
      const double dt = seconds_since(t0);
      rss_mb[i].push_back(rss_hwm_mb());
      if (++out.attempted % setup_every == 0) set_up();
      if (o.code != ErrorCode::ok || !o.report) {
        ++out.failed;
        out.fail(c.name + ": " + std::string(to_string(o.code)) + " " +
                 o.message);
        continue;
      }
      ++ok;
      if (o.report->verify_proven)
        ++proven;
      else
        out.fail(c.name + ": result not miter-proven");
      const Quality q{o.report->flow.luts, o.report->clbs.clbs};
      if (p == 0)
        quality[i] = q;
      else if (q.luts != quality[i].luts || q.clbs != quality[i].clbs)
        out.fail(c.name + ": pass " + std::to_string(p) + " gave " +
                 std::to_string(q.luts) + " LUTs / " + std::to_string(q.clbs) +
                 " CLBs, pass 0 gave " + std::to_string(quality[i].luts) +
                 " / " + std::to_string(quality[i].clbs));
      pass_wall += dt;
      times[i].push_back(dt);
      all_s.push_back(dt);
      (p == 0 ? first_s : later_s).push_back(dt);
    }
    pass_wall_s.push_back(pass_wall);
  }

  Quality total;
  std::vector<double> medians(n);
  double peak_mb = 0.0;  // largest per-circuit median of per-compile peaks
  for (std::size_t i = 0; i < n; ++i) {
    total.luts += quality[i].luts;
    total.clbs += quality[i].clbs;
    medians[i] = median(times[i]);
    peak_mb = std::max(peak_mb, median(rss_mb[i]));
  }
  const double pass_s = std::accumulate(medians.begin(), medians.end(), 0.0);

  if (!args.trace) {
    const double attempted = static_cast<double>(out.attempted);
    out.add("setup_s", median(setup_s), "s");
    out.add("pass_s", pass_s, "s");
    out.add("circuit_geomean_ms", 1e3 * geomean(medians), "ms");
    out.add("luts", total.luts, "count");
    out.add("clbs", total.clbs, "count");
    out.add("ok_frac", static_cast<double>(ok) / attempted, "frac");
    out.add("proven_frac", static_cast<double>(proven) / attempted, "frac");
    out.add("peak_rss_mb", peak_mb, "MB");
    out.add("req_per_s",
            attempted / std::accumulate(all_s.begin(), all_s.end(), 0.0),
            "1/s");
    out.add("lat_p50_ms", 1e3 * median(all_s), "ms");
    out.add("lat_p99_ms", 1e3 * quantile(all_s, 0.99), "ms");
    out.add("novel_p50_ms", 1e3 * median(first_s), "ms");
    out.add("repeat_p50_ms", 1e3 * median(later_s), "ms");
    return;
  }

  // --- traced pass + replay -------------------------------------------------
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  const TracedLayers t = traced_pass(corpus, first_order, quality, cfg, out);
  out.attempted += n;

  SynthesisSession replay(cfg);
  VarPartOptions vo = cfg.flow_options().varpart;
  vo.pool = replay.pool();
  ImodecOptions io = cfg.flow_options().imodec;
  io.manager_pool = &replay.managers();
  double choose_s = 0, partition_s = 0, engine_s = 0;
  double replayed = 0, found = 0, rows = 0, engine_lmax = 0, engine_p_max = 0;
  for (const auto& recs : t.recorded)
    for (const RecordedVector& rv : recs) {
      ++replayed;
      auto t0 = Clock::now();
      const auto choice =
          choose_bound_set(rv.outputs, rv.outputs.front().num_vars(), vo);
      choose_s += seconds_since(t0);
      if (choice) ++found;

      t0 = Clock::now();
      for (const TruthTable& f : rv.outputs) {
        const VertexPartition lp = local_partition_tt(f, rv.vp);
        rows += static_cast<double>(f.num_rows());
        if (lp.num_classes == 0) out.fail("empty local partition in replay");
      }
      partition_s += seconds_since(t0);

      ImodecStats st;
      t0 = Clock::now();
      (void)decompose_multi_output(rv.outputs, rv.vp, io, &st);
      engine_s += seconds_since(t0);
      engine_lmax += st.lmax_rounds;
      engine_p_max = std::max(engine_p_max, static_cast<double>(st.p));
    }

  out.add("collapse.ms", 1e3 * t.collapse_s, "ms");
  out.add("collapse.nodes", t.collapse_nodes, "count");
  out.add("lutflow.ms", 1e3 * t.lutflow_s, "ms");
  out.add("lutflow.cpu_util", t.lutflow_cpu_s / t.lutflow_s, "ratio");
  out.add("lutflow.vectors", t.vectors, "count");
  out.add("lutflow.lmax_rounds", t.lmax_rounds, "count");
  out.add("lutflow.shannon_fallbacks", t.shannon, "count");
  out.add("lutflow.errors", t.errors, "count");
  out.add("lutflow.bdd_nodes", t.bdd_nodes, "count");
  out.add("lutflow.bdd_hit_rate",
          t.bdd_lookups ? t.bdd_hits / t.bdd_lookups : 0.0, "frac");
  out.add("varpart.candidates", t.candidates, "count");
  out.add("varpart.choose_ms", 1e3 * choose_s, "ms");
  out.add("varpart.found_frac", replayed ? found / replayed : 0.0, "frac");
  out.add("classes.partition_ms", 1e3 * partition_s, "ms");
  out.add("classes.rows_per_us",
          partition_s > 0 ? rows / (1e6 * partition_s) : 0.0, "rows/us");
  out.add("engine.decompose_ms", 1e3 * engine_s, "ms");
  out.add("engine.lmax_rounds", engine_lmax, "count");
  out.add("engine.p_max", engine_p_max, "count");
  out.add("xc3000.ms", 1e3 * t.xc3000_s, "ms");
  out.add("miter.ms", 1e3 * t.miter_s, "ms");
  out.add("miter.peak_nodes", t.miter_peak, "count");
  out.add("trace.overhead_ratio", t.wall_s / median(pass_wall_s), "ratio");
  out.add("trace.coverage",
          (t.collapse_s + t.lutflow_s + t.xc3000_s + t.miter_s) / t.wall_s,
          "frac");
  for (std::size_t i = 0; i < n; ++i)
    out.add("circuit." + corpus[i].name + "_ms", 1e3 * medians[i], "ms");
}

}  // namespace perfbench
