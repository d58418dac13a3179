// Tests for the parallel synthesis runtime: the work-stealing thread pool
// itself, and the determinism contract — the pipeline's results are
// bit-identical at every thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "circuits/generators.hpp"
#include "circuits/registry.hpp"
#include "decomp/varpart.hpp"
#include "logic/simulate.hpp"
#include "map/config.hpp"
#include "map/driver.hpp"
#include "map/lutflow.hpp"
#include "map/report.hpp"
#include "map/session.hpp"
#include "paper_fixtures.hpp"
#include "util/resource.hpp"
#include "util/thread_pool.hpp"

namespace imodec {
namespace {

using util::ThreadPool;

// ---------------------------------------------------------------------------
// Thread pool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t n = 10000;
  std::vector<int> hits(n, 0);
  pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ParallelForByIndexMatchesSerial) {
  ThreadPool pool(8);
  constexpr std::size_t n = 512;
  std::vector<std::uint64_t> par(n), ser(n);
  const auto work = [](std::size_t i) {
    std::uint64_t h = i * 2654435761u;
    for (int r = 0; r < 50; ++r) h = h * 6364136223846793005ull + 1;
    return h;
  };
  pool.parallel_for(n, [&](std::size_t i) { par[i] = work(i); });
  for (std::size_t i = 0; i < n; ++i) ser[i] = work(i);
  EXPECT_EQ(par, ser);
}

TEST(ThreadPool, ParallelForHandlesEmptyAndSingle) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, WidthOneRunsInlineWithoutWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
  auto fut = pool.submit([] {});
  fut.get();  // inline execution still satisfies the future
}

TEST(ThreadPool, SubmitRunsTasks) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 10; ++i)
    futs.push_back(pool.submit([&sum, i] { sum += i; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed loop and keeps working.
  std::atomic<int> ok{0};
  pool.parallel_for(16, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPool, SubmitFutureCarriesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::logic_error("bad task"); });
  EXPECT_THROW(fut.get(), std::logic_error);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  constexpr std::size_t outer = 16, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.parallel_for(outer, [&](std::size_t o) {
    // From a worker thread this must not deadlock waiting on the same pool.
    pool.parallel_for(inner, [&](std::size_t i) { ++hits[o * inner + i]; });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, CancellationStopsParallelForPromptly) {
  // One guard shared by every worker (the governed-flow pattern,
  // DESIGN.md §12): the first iteration to cancel latches the token; every
  // other chunk's next checkpoint throws, and parallel_for's failure path
  // stops un-started chunks from being claimed at all.
  ThreadPool pool(4);
  util::ResourceGuard guard;
  constexpr std::size_t n = 100000;
  std::atomic<std::size_t> executed{0};
  try {
    pool.parallel_for(n, [&](std::size_t i) {
      guard.checkpoint();
      if (i == 5) guard.cancel();
      ++executed;
    });
    FAIL() << "cancelled parallel_for must rethrow";
  } catch (const util::ResourceExhausted& e) {
    EXPECT_EQ(e.kind(), util::ResourceKind::cancelled);
  }
  EXPECT_LT(executed.load(), n);
  // The guard is spent but the pool is not: later loops run normally.
  std::atomic<int> ok{0};
  pool.parallel_for(16, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPool, ExceptionThrownOnCallerThreadPropagates) {
  // The caller participates in parallel_for; an exception on the caller's
  // own chunk must take the same rethrow path as a worker's. Workers park on
  // their first item until the caller has thrown: on a 1-core scheduler the
  // workers can otherwise claim every chunk before the caller claims one,
  // and the caller never throws at all (the flake this gate removes). Each
  // parked worker pins exactly one chunk, and 10000 items split into far
  // more chunks than there are workers, so a chunk is always left for the
  // caller.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  bool caller_threw = false;
  try {
    pool.parallel_for(10000, [&](std::size_t) {
      if (ThreadPool::on_worker_thread()) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return caller_threw; });
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        caller_threw = true;
      }
      cv.notify_all();
      throw std::runtime_error("caller boom");
    });
    FAIL() << "caller exception must propagate";
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(caller_threw);
}

TEST(ThreadPool, ExceptionThrownOnWorkerThreadPropagates) {
  // Make each item slow enough that the workers demonstrably join in, then
  // throw from a worker chunk only; the caller must still see the exception.
  ThreadPool pool(4);
  bool worker_threw = false;
  for (int attempt = 0; attempt < 5 && !worker_threw; ++attempt) {
    try {
      pool.parallel_for(4000, [&](std::size_t) {
        if (ThreadPool::on_worker_thread())
          throw std::runtime_error("worker boom");
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      });
    } catch (const std::runtime_error&) {
      worker_threw = true;
    }
  }
  EXPECT_TRUE(worker_threw);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  // The destructor must complete every already-submitted task (workers exit
  // only once the queues are empty), never drop or deadlock on them.
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++done;
      });
    }
    // Futures discarded; destruction races the queue drain on purpose.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, DestructionWithFailingQueuedTasks) {
  // Queued tasks that throw after the destructor has begun must be absorbed
  // by their packaged futures, not terminate the process.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] {
        ++ran;
        throw std::runtime_error("late failure");
      });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

// ---------------------------------------------------------------------------
// Determinism: identical results at every thread count
// ---------------------------------------------------------------------------

void expect_same_network(const Network& a, const Network& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (SigId s = 0; s < a.node_count(); ++s) {
    ASSERT_EQ(a.node(s).kind, b.node(s).kind) << "node " << s;
    ASSERT_EQ(a.node(s).fanins, b.node(s).fanins) << "node " << s;
    if (a.node(s).kind == Network::Kind::Logic) {
      ASSERT_EQ(a.node(s).func, b.node(s).func) << "node " << s;
    }
  }
  ASSERT_EQ(a.outputs(), b.outputs());
}

void expect_thread_count_invariant(const Network& input,
                                   SynthesisConfig base = {}) {
  base.threads = 1;
  Network ref;
  const DriverReport ref_rep = run_synthesis(input, base, ref);
  EXPECT_TRUE(ref_rep.verified);
  EXPECT_GT(ref_rep.flow.luts, 0u);

  for (unsigned threads : {2u, 8u}) {
    SynthesisConfig opts = base;
    opts.threads = threads;
    Network mapped;
    const DriverReport rep = run_synthesis(input, opts, mapped);
    EXPECT_TRUE(rep.verified) << threads << " threads";
    EXPECT_EQ(rep.flow.luts, ref_rep.flow.luts) << threads << " threads";
    EXPECT_EQ(rep.clbs.clbs, ref_rep.clbs.clbs) << threads << " threads";
    EXPECT_EQ(rep.flow.vectors, ref_rep.flow.vectors) << threads << " threads";
    EXPECT_EQ(rep.flow.max_m, ref_rep.flow.max_m) << threads << " threads";
    EXPECT_EQ(rep.flow.max_p, ref_rep.flow.max_p) << threads << " threads";
    expect_same_network(ref, mapped);
  }
}

TEST(ParallelDeterminism, Fig1CircuitIdenticalAtAllThreadCounts) {
  // rd53 with k = 4 is the paper's Fig. 1 circuit.
  SynthesisConfig opts;
  opts.k = 4;
  expect_thread_count_invariant(circuits::make_rd(5, 3), opts);
}

TEST(ParallelDeterminism, PaperExampleIdenticalAtAllThreadCounts) {
  // The running example of the paper: f1 and f2 of Fig. 2 as one network.
  Network net("paper_example");
  std::vector<SigId> ins;
  for (const char* n : {"x1", "x2", "x3", "y1", "y2"})
    ins.push_back(net.add_input(n));
  net.add_output(net.add_node(ins, testfix::paper_f1()), "f1");
  net.add_output(net.add_node(ins, testfix::paper_f2()), "f2");
  expect_thread_count_invariant(net);
}

TEST(ParallelDeterminism, BenchmarkCircuitIdenticalAtAllThreadCounts) {
  const auto net = circuits::make_benchmark("rd73");
  ASSERT_TRUE(net.has_value());
  expect_thread_count_invariant(*net);
}

TEST(ParallelDeterminism, ChooseBoundSetMatchesSerial) {
  const std::vector<TruthTable> fs{testfix::paper_f1(), testfix::paper_f2()};
  VarPartOptions opts;
  opts.bound_size = 3;
  const auto serial = choose_bound_set(fs, 5, opts);
  ASSERT_TRUE(serial.has_value());

  ThreadPool pool(4);
  opts.pool = &pool;
  const auto parallel = choose_bound_set(fs, 5, opts);
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(parallel->vp.bound, serial->vp.bound);
  EXPECT_EQ(parallel->vp.free_set, serial->vp.free_set);
  EXPECT_EQ(parallel->p(), serial->p());
}

// ---------------------------------------------------------------------------
// SynthesisConfig / SynthesisSession
// ---------------------------------------------------------------------------

TEST(SynthesisConfig, DefaultIsValid) {
  EXPECT_TRUE(SynthesisConfig{}.validate().empty());
}

TEST(SynthesisConfig, ReportsEveryViolationReadably) {
  SynthesisConfig cfg;
  cfg.k = 1;
  cfg.bound_size = 0;
  cfg.max_p = 0;
  const auto diags = cfg.validate();
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_NE(diags[0].find("k must be in [2, 16]"), std::string::npos);
  EXPECT_NE(diags[0].find("got 1"), std::string::npos);
}

TEST(SynthesisConfig, CrossFieldChecks) {
  SynthesisConfig cfg;
  cfg.bound_size = cfg.k + 1;  // d-node wider than one LUT
  EXPECT_EQ(cfg.validate().size(), 1u);
}

TEST(SynthesisConfig, DefaultLowersToLibraryDefaults) {
  // Each default is stated once: the config's lowering carries the library
  // structs' own values on every knob the result cache keys on.
  const auto knobs = [](const FlowOptions& o) {
    return std::tuple(o.k, o.multi_output, o.imodec.max_p, o.imodec.strict,
                      o.imodec.via_v_substitution, o.varpart.bound_size,
                      o.varpart.max_exhaustive, o.varpart.samples,
                      o.varpart.climb_iters, o.varpart.eval_budget,
                      o.varpart.seed, o.varpart.require_nontrivial,
                      o.batch_groups);
  };
  EXPECT_EQ(knobs(SynthesisConfig{}.flow_options()), knobs(FlowOptions{}));

  // The run report (schema_version 2) echoes every knob the flow ran with,
  // including the internals the config no longer holds.
  const obs::Json report =
      build_run_report("default", SynthesisConfig{}, DriverReport{});
  EXPECT_EQ(report.find("schema_version")->as_number(), 2);
  EXPECT_EQ(report.find("config")->dump(),
            R"({"k":5,"multi_output":true,"output_partitioning":true,)"
            R"("max_vector_outputs":8,"max_vector_inputs":18,)"
            R"("max_group_trials":6,"max_p":64,"strict":false,)"
            R"("via_v_substitution":false,"bound_size":5,)"
            R"("max_exhaustive":4096,"samples":64,"climb_iters":48,)"
            R"("eval_budget":16777216,"seed":45269,"collapse":true,)"
            R"("classical":false,"verify":"auto",)"
            R"("verify_node_budget":2097152,"timeout_ms":0,"node_budget":0,)"
            R"("on_exhaustion":"fail","threads":0,"batch_groups":8,)"
            R"("result_cache":false,"result_cache_entries":4096})");
}

TEST(SynthesisConfig, LowersEveryKnob) {
  SynthesisConfig cfg;
  cfg.k = 4;
  cfg.max_p = 16;
  cfg.bound_size = 3;
  cfg.threads = 2;
  cfg.batch_groups = 3;
  cfg.seed = 42;
  const FlowOptions flow = cfg.flow_options();
  EXPECT_EQ(flow.k, 4u);
  EXPECT_EQ(flow.imodec.max_p, 16u);
  EXPECT_EQ(flow.varpart.bound_size, 3u);
  EXPECT_EQ(flow.varpart.seed, 42u);
  EXPECT_EQ(flow.batch_groups, 3u);
}

TEST(SynthesisSession, RunsRepeatedlyOnOnePool) {
  SynthesisConfig cfg;
  cfg.threads = 2;
  SynthesisSession session(cfg);
  EXPECT_EQ(session.threads(), 2u);
  ASSERT_NE(session.pool(), nullptr);

  const auto net = circuits::make_benchmark("rd53");
  ASSERT_TRUE(net.has_value());
  Network first, second;
  const DriverReport r1 = session.run(*net, first);
  const DriverReport r2 = session.run(*net, second);
  EXPECT_TRUE(r1.verified);
  EXPECT_TRUE(r2.verified);
  EXPECT_EQ(r1.flow.luts, r2.flow.luts);
  expect_same_network(first, second);
}

TEST(SynthesisSession, SerialConfigHasNoPool) {
  SynthesisConfig cfg;
  cfg.threads = 1;
  SynthesisSession session(cfg);
  EXPECT_EQ(session.threads(), 1u);
  EXPECT_EQ(session.pool(), nullptr);

  const auto net = circuits::make_benchmark("rd53");
  Network mapped;
  EXPECT_TRUE(session.run(*net, mapped).verified);
}

// ---------------------------------------------------------------------------
// Typed decomposition errors
// ---------------------------------------------------------------------------

TEST(DecomposeResult, ReportsPOverflow) {
  const std::vector<TruthTable> fs{testfix::paper_f1(), testfix::paper_f2()};
  ImodecOptions opts;
  opts.max_p = 4;  // p is 5
  ImodecStats stats;
  const auto res =
      decompose_multi_output(fs, testfix::paper_vp(), opts, &stats);
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.error(), DecomposeError::p_overflow);
  EXPECT_EQ(stats.p, 5u);  // stats still filled on failure
  EXPECT_EQ(to_string(res.error()), "p_overflow");
}

TEST(DecomposeResult, FlowCountsErrorReasons) {
  // max_p = 1 rejects essentially every group, forcing the flow through its
  // fallback ladder; the result must still be correct.
  const auto collapsed = collapse_network(circuits::make_rd(7, 3));
  ASSERT_TRUE(collapsed.has_value());
  FlowOptions opts;
  opts.imodec.max_p = 1;
  const FlowResult r = decompose_to_luts(*collapsed, opts);
  EXPECT_TRUE(check_equivalence(*collapsed, r.network).equivalent);
  EXPECT_GT(r.stats.total_errors(), 0u);
  EXPECT_GT(r.stats.error_count(DecomposeError::p_overflow), 0u);
}

}  // namespace
}  // namespace imodec
