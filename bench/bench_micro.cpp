// Microbenchmarks (google-benchmark) for the kernels the paper's CPU-time
// discussion hinges on: BDD operations, the subset threshold, characteristic
// function construction, Lmax, local/global class extraction, and a full
// engine run on the worked example.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <thread>

#include "bdd/bdd.hpp"
#include "obs/bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "decomp/classes.hpp"
#include "imodec/chi.hpp"
#include "imodec/engine.hpp"
#include "imodec/lmax.hpp"
#include "imodec/subset.hpp"
#include "circuits/registry.hpp"
#include "logic/minimize.hpp"
#include "map/lutflow.hpp"
#include "opt/extract.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace imodec;
using bdd::Bdd;
using bdd::Manager;

unsigned g_threads = 1;  // set by --threads; width of BM_FlowPooled's pool

TruthTable random_table(unsigned n, std::uint64_t seed) {
  Rng rng(seed);
  TruthTable t(n);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row)
    t.set(row, rng.coin());
  return t;
}

void BM_BddIte(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    Manager mgr(n);
    Bdd acc = Bdd::zero(mgr);
    for (unsigned v = 0; v + 1 < n; ++v)
      acc = acc | (Bdd::var(mgr, v) & Bdd::var(mgr, v + 1));
    benchmark::DoNotOptimize(acc.dag_size());
  }
}
BENCHMARK(BM_BddIte)->Arg(16)->Arg(32)->Arg(64);

// --- BDD-op throughput suite -------------------------------------------------
// Each iteration builds seeded random functions (unions of random cubes) in a
// fresh manager, then runs a fixed batch of kernel operations on them;
// SetItemsProcessed counts the batch so google-benchmark reports ops/sec
// (surfaced as "ops_per_sec" in the bench JSON). Fresh managers keep the
// computed table cold across iterations, so the numbers track real
// construction work, not just cache lookups.

constexpr unsigned kBddOpFuncs = 12;
constexpr unsigned kBddOpCubes = 16;

std::vector<Bdd> random_bdds(Manager& mgr, unsigned n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bdd> fs;
  fs.reserve(kBddOpFuncs);
  for (unsigned i = 0; i < kBddOpFuncs; ++i) {
    Bdd f = Bdd::zero(mgr);
    for (unsigned c = 0; c < kBddOpCubes; ++c) {
      std::vector<unsigned> vars;
      std::vector<bool> phases;
      for (unsigned v = 0; v < n; ++v) {
        if (rng.chance(1, 3)) {
          vars.push_back(v);
          phases.push_back(rng.coin());
        }
      }
      f = f | Bdd::cube(mgr, vars, phases);
    }
    fs.push_back(f);
  }
  return fs;
}

void BM_BddOpAnd(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  std::int64_t ops = 0;
  for (auto _ : state) {
    Manager mgr(n);
    const std::vector<Bdd> fs = random_bdds(mgr, n, 0xB00A + n);
    for (unsigned i = 0; i < kBddOpFuncs; ++i)
      for (unsigned j = i + 1; j < kBddOpFuncs; ++j) {
        benchmark::DoNotOptimize((fs[i] & fs[j]).node());
        ++ops;
      }
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_BddOpAnd)->Arg(12)->Arg(18)->Arg(24);

void BM_BddOpXor(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  std::int64_t ops = 0;
  for (auto _ : state) {
    Manager mgr(n);
    const std::vector<Bdd> fs = random_bdds(mgr, n, 0xB00B + n);
    for (unsigned i = 0; i < kBddOpFuncs; ++i)
      for (unsigned j = i + 1; j < kBddOpFuncs; ++j) {
        benchmark::DoNotOptimize((fs[i] ^ fs[j]).node());
        ++ops;
      }
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_BddOpXor)->Arg(12)->Arg(18)->Arg(24);

void BM_BddOpIte(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  std::int64_t ops = 0;
  for (auto _ : state) {
    Manager mgr(n);
    const std::vector<Bdd> fs = random_bdds(mgr, n, 0xB00C + n);
    for (unsigned i = 0; i < kBddOpFuncs; ++i)
      for (unsigned j = i + 1; j < kBddOpFuncs; ++j) {
        benchmark::DoNotOptimize(
            fs[i].ite(fs[j], fs[(i + j) % kBddOpFuncs]).node());
        ++ops;
      }
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_BddOpIte)->Arg(12)->Arg(18)->Arg(24);

void BM_SubsetThreshold(benchmark::State& state) {
  const unsigned ell = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    Manager mgr(ell);
    benchmark::DoNotOptimize(
        subset_threshold(mgr, ell / 2, ell, 0).dag_size());
  }
}
BENCHMARK(BM_SubsetThreshold)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_LocalClasses(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const TruthTable f = random_table(n, 42);
  VarPartition vp;
  for (unsigned v = 0; v < n; ++v)
    (v < 5 ? vp.bound : vp.free_set).push_back(v);
  for (auto _ : state)
    benchmark::DoNotOptimize(local_partition_tt(f, vp).num_classes);
}
BENCHMARK(BM_LocalClasses)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_GlobalPartition(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  std::vector<TruthTable> fs;
  for (unsigned k = 0; k < m; ++k) fs.push_back(random_table(10, 100 + k));
  VarPartition vp;
  for (unsigned v = 0; v < 10; ++v)
    (v < 5 ? vp.bound : vp.free_set).push_back(v);
  std::vector<VertexPartition> locals;
  for (const auto& f : fs) locals.push_back(local_partition_tt(f, vp));
  for (auto _ : state)
    benchmark::DoNotOptimize(global_partition(locals).num_classes);
}
BENCHMARK(BM_GlobalPartition)->Arg(2)->Arg(4)->Arg(8);

void BM_BuildChi(benchmark::State& state) {
  // A p-class, ℓ-local-class synthetic state (p = 2ℓ: each local class two
  // globals — the regular structure typical of arithmetic circuits).
  const std::uint32_t ell = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t p = 2 * ell;
  OutputState st;
  st.codewidth = codewidth(ell);
  st.blocks.resize(1);
  st.local_of_global.resize(p);
  for (std::uint32_t g = 0; g < p; ++g) {
    st.blocks[0].push_back(g);
    st.local_of_global[g] = g / 2;
  }
  for (auto _ : state) {
    Manager mgr(p);
    benchmark::DoNotOptimize(build_chi(mgr, p, st).dag_size());
  }
}
BENCHMARK(BM_BuildChi)->Arg(4)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void BM_Lmax(benchmark::State& state) {
  const std::uint32_t p = static_cast<std::uint32_t>(state.range(0));
  Manager mgr(p);
  Rng rng(7);
  std::vector<Bdd> chis;
  for (int k = 0; k < 6; ++k) {
    Bdd f = Bdd::zero(mgr);
    for (int c = 0; c < 4; ++c) {
      std::vector<unsigned> vars;
      std::vector<bool> phases;
      for (std::uint32_t v = 0; v < p; ++v) {
        if (rng.chance(1, 3)) {
          vars.push_back(v);
          phases.push_back(rng.coin());
        }
      }
      f = f | Bdd::cube(mgr, vars, phases);
    }
    chis.push_back(f);
  }
  for (auto _ : state) benchmark::DoNotOptimize(lmax(mgr, p, chis).coverage);
}
BENCHMARK(BM_Lmax)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EngineWorkedExample(benchmark::State& state) {
  // The paper's (f1, f2) vector end to end.
  TruthTable f1(5), f2(5);
  const char* c1[4] = {"00010111", "11111110", "11111110", "00010110"};
  const char* c2[4] = {"00010101", "01111110", "01111110", "11101010"};
  for (unsigned y = 0; y < 4; ++y)
    for (unsigned col = 0; col < 8; ++col) {
      const unsigned x1 = (col >> 2) & 1, x2 = (col >> 1) & 1, x3 = col & 1;
      const std::uint64_t idx = x1 | (x2 << 1) | (x3 << 2) | ((y & 1) << 3) |
                                (static_cast<std::uint64_t>(y >> 1) << 4);
      f1.set(idx, c1[y][col] == '1');
      f2.set(idx, c2[y][col] == '1');
    }
  VarPartition vp;
  vp.bound = {0, 1, 2};
  vp.free_set = {3, 4};
  for (auto _ : state) {
    const auto dec = decompose_multi_output({f1, f2}, vp);
    benchmark::DoNotOptimize(dec->q());
  }
}
BENCHMARK(BM_EngineWorkedExample);

void BM_EngineRandomVector(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  std::vector<TruthTable> fs;
  for (unsigned k = 0; k < m; ++k) fs.push_back(random_table(8, 900 + k));
  VarPartition vp;
  for (unsigned v = 0; v < 8; ++v)
    (v < 5 ? vp.bound : vp.free_set).push_back(v);
  for (auto _ : state) {
    ImodecOptions opts;
    opts.max_p = 64;
    const auto dec = decompose_multi_output(fs, vp, opts);
    benchmark::DoNotOptimize(dec ? dec->q() : 0u);
  }
}
BENCHMARK(BM_EngineRandomVector)->Arg(1)->Arg(2)->Arg(4);

void BM_MinimizeCover(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const TruthTable f = random_table(n, 77);
  for (auto _ : state)
    benchmark::DoNotOptimize(imodec::minimize_cover(f).size());
}
BENCHMARK(BM_MinimizeCover)->Arg(4)->Arg(6)->Arg(8);

void BM_KernelExtraction(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Network net = *circuits::make_benchmark("count");
    state.ResumeTiming();
    benchmark::DoNotOptimize(opt::extract_kernels(net).divisors_added);
  }
}
BENCHMARK(BM_KernelExtraction);

void BM_FlowPooled(benchmark::State& state) {
  // The full decomposition flow at the width requested with --threads
  // (default 1): the macro-benchmark for the parallel runtime. Results are
  // identical at every width, so times are directly comparable.
  const Network flat = *collapse_network(*circuits::make_benchmark("rd84"));
  std::optional<util::ThreadPool> pool;
  if (g_threads > 1) pool.emplace(g_threads);
  FlowOptions opts;
  opts.pool = pool ? &*pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose_to_luts(flat, opts).stats.luts);
  }
}
BENCHMARK(BM_FlowPooled);

/// Console reporter that additionally collects one bench-JSON record per
/// benchmark run ("circuit" carries the benchmark name, e.g. "BM_BddIte/32").
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(obs::BenchJson* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const double to_sec =
          1.0 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      obs::Json& rec = sink_->add_record(run.benchmark_name(),
                                         run.GetAdjustedRealTime() * to_sec);
      rec["iterations"] = static_cast<long long>(run.iterations);
      rec["cpu_seconds"] = run.GetAdjustedCPUTime() * to_sec;
      rec["threads"] = g_threads;
      // SetItemsProcessed surfaces as an items_per_second rate counter; the
      // BDD-op suite uses it for ops/sec (the perf-smoke regression metric).
      const auto ips = run.counters.find("items_per_second");
      if (ips != run.counters.end())
        rec["ops_per_sec"] = static_cast<double>(ips->second);
    }
  }

 private:
  obs::BenchJson* sink_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = obs::strip_json_flag(argc, argv);
  const auto threads = obs::strip_threads_flag(argc, argv);
  const bool obs_on = obs::strip_obs_flag(argc, argv);
  const auto report_dir = obs::strip_report_dir_flag(argc, argv);
  // --obs measures the instrumented configuration (tools/obs_overhead.py
  // diffs it against the default run); --report-dir wants the registry
  // populated, so it implies the same.
  if (obs_on || report_dir) obs::set_enabled(true);
  // The benchmarks call the layers directly, outside any run, so the
  // instrumented configuration needs a sink of its own for spans to record:
  // one trace for the whole process, never read.
  std::optional<obs::Trace> trace;
  if (obs::enabled()) trace.emplace();
  const obs::TraceScope trace_scope({trace ? &*trace : nullptr});
  g_threads = threads.value_or(1);
  if (g_threads == 0) g_threads = std::thread::hardware_concurrency();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  obs::BenchJson sink("micro");
  if (json_path) {
    JsonCollectingReporter reporter(&sink);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    // Distribution tail: histogram p50/p99 and per-op cache hit rates on one
    // synthetic record, so BENCH files can regress the shape, not just means.
    if (obs::enabled())
      obs::add_obs_summary(sink.add_record("_obs_summary", 0.0));
    if (!sink.write(*json_path)) {
      std::fprintf(stderr, "bench_micro: cannot write %s\n",
                   json_path->c_str());
      return 1;
    }
    std::printf("wrote %s (%zu records)\n", json_path->c_str(),
                sink.num_records());
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  if (report_dir && !obs::write_obs_report(*report_dir, "micro")) {
    std::fprintf(stderr, "bench_micro: cannot write obs report under %s\n",
                 report_dir->c_str());
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
