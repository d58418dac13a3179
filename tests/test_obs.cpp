// Tests for the observability layer (src/obs/): span tree recording, the
// counter/gauge registry, the JSON model and exporters, and the contract the
// rest of the pipeline relies on — zero side effects while obs is disabled.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "imodec/engine.hpp"
#include "logic/truthtable.hpp"
#include "map/driver.hpp"
#include "map/lutflow.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace imodec::obs {
namespace {

/// Every test runs against the process-global registry/flag; isolate them:
/// start clean, restore the flag afterwards. Span tests record into a local
/// Trace of their own.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(false);
    Registry::instance().reset();
  }
  void TearDown() override {
    Registry::instance().reset();
    set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

/// The paper's worked-example vector (f1, f2) — a real engine workload.
std::vector<TruthTable> worked_example() {
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
  return {f1, f2};
}

VarPartition worked_example_vp() {
  VarPartition vp;
  vp.bound = {0, 1, 2};
  vp.free_set = {3, 4};
  return vp;
}

// ---------------------------------------------------------------------------
// Span recording

TEST_F(ObsTest, SpanNestingFormsATree) {
  Trace trace;
  {
    const TraceScope scope({&trace});
    ScopedSpan a("outer");
    {
      ScopedSpan b("inner1");
    }
    {
      ScopedSpan c("inner2");
      { ScopedSpan d("leaf"); }
    }
  }
  const auto spans = trace.take();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "inner1");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "inner2");
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].name, "leaf");
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_TRUE(trace.take().empty());  // take() empties the trace
}

TEST_F(ObsTest, DurationsAreClosedAndMonotonic) {
  Trace trace;
  {
    const TraceScope scope({&trace});
    ScopedSpan a("parent");
    { ScopedSpan b("child"); }
  }
  const auto spans = trace.take();
  ASSERT_EQ(spans.size(), 2u);
  // All closed, non-negative, and a parent covers its child.
  for (const auto& s : spans) EXPECT_GE(s.dur, 0.0) << s.name;
  EXPECT_GE(spans[1].start, spans[0].start);
  EXPECT_GE(spans[0].start + spans[0].dur, spans[1].start + spans[1].dur);
}

TEST_F(ObsTest, ScopedSpanIsAStopwatchEvenWhenDisabled) {
  EXPECT_EQ(TraceContext::current().trace, nullptr);  // no sink by default
  Trace trace;
  const TraceScope outer({&trace});
  {
    // No sink — what a run with observability off installs.
    const TraceScope none({});
    ScopedSpan s("untraced");
    EXPECT_GE(s.seconds(), 0.0);
  }
  EXPECT_TRUE(trace.take().empty());
}

TEST_F(ObsTest, ThreadsTraceIndependentStacks) {
  Trace trace;
  {
    const TraceScope scope({&trace});
    ScopedSpan root("main-root");
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
      workers.emplace_back([&trace] {
        const TraceScope worker_scope({&trace});
        ScopedSpan outer("worker");
        ScopedSpan inner("worker-child");
      });
    for (auto& w : workers) w.join();
  }
  const auto spans = trace.take();
  ASSERT_EQ(spans.size(), 9u);  // 1 root + 4 * (outer + inner)
  std::set<std::uint64_t> tids;
  int workers = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    EXPECT_GE(s.dur, 0.0);
    if (s.name == "worker") {
      ++workers;
      tids.insert(s.tid);
      // A worker's parent must not live on another thread: each thread has
      // its own open stack, so "worker" is a root, not a child of main-root.
      EXPECT_EQ(s.parent, -1);
    }
    if (s.name == "worker-child") {
      ASSERT_GE(s.parent, 0);
      EXPECT_EQ(spans[s.parent].name, "worker");
      EXPECT_EQ(spans[s.parent].tid, s.tid);
    }
  }
  EXPECT_EQ(workers, 4);
  EXPECT_EQ(tids.size(), 4u);
}

TEST_F(ObsTest, PoolTasksNestUnderTheSubmittingSpan) {
  // The flow's fan-outs reinstall the submitting thread's context in every
  // pool task, so a pooled flow records the same spans as a serial one, all
  // under one root. 5xp1 batches several groups per round.
  const auto flat = collapse_network(*circuits::make_benchmark("5xp1"));
  ASSERT_TRUE(flat.has_value());
  const auto span_names = [&](util::ThreadPool* pool) {
    FlowOptions opts;
    opts.pool = pool;
    Trace trace;
    {
      const TraceScope scope({&trace});
      decompose_to_luts(*flat, opts);
    }
    const auto spans = trace.take();
    std::multiset<std::string> names;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].dur, 0.0) << spans[i].name;
      EXPECT_EQ(spans[i].parent < 0, i == 0) << spans[i].name;
      names.insert(spans[i].name);
    }
    return names;
  };
  util::ThreadPool pool(4);
  const std::multiset<std::string> pooled = span_names(&pool);
  EXPECT_EQ(pooled, span_names(nullptr));
  EXPECT_GT(pooled.count("engine.decompose"), 2u);
  EXPECT_EQ(TraceContext::current().trace, nullptr);  // scope restored
}

// ---------------------------------------------------------------------------
// Registry

TEST_F(ObsTest, CounterAndGaugeBasics) {
  auto& c = Registry::instance().counter("t.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&c, &Registry::instance().counter("t.counter"));

  auto& g = Registry::instance().gauge("t.gauge");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);

  Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.max(), 0);
}

/// Registry entries persist once created (handles live as long as their
/// registry, and the process registry lives for the process; reset() only
/// zeroes them), so "untouched" means every value is still zero — not that
/// the maps are empty.
void expect_all_metrics_zero() {
  for (const auto& [name, value] : Registry::instance().counters())
    EXPECT_EQ(value, 0u) << "counter " << name;
  for (const auto& [name, gv] : Registry::instance().gauges()) {
    EXPECT_EQ(gv.value, 0) << "gauge " << name;
    EXPECT_EQ(gv.max, 0) << "gauge " << name;
  }
}

TEST_F(ObsTest, GatedHelpersAreNoOpsWhenDisabled) {
  ASSERT_FALSE(enabled());
  count("t.gated");
  gauge_set("t.gated.gauge", 9);
  expect_all_metrics_zero();
  // The gated helpers must not even register the names.
  for (const auto& [name, value] : Registry::instance().counters())
    EXPECT_NE(name, "t.gated");
}

TEST_F(ObsTest, EngineRunAggregatesIntoRegistry) {
  set_enabled(true);
  const auto fs = worked_example();
  ImodecStats stats;
  Trace trace;
  {
    const TraceScope scope({&trace});
    const auto dec =
        decompose_multi_output(fs, worked_example_vp(), {}, &stats);
    ASSERT_TRUE(dec.has_value());
  }

  auto& reg = Registry::instance();
  EXPECT_EQ(reg.counter("engine.runs").value(), 1u);
  EXPECT_EQ(reg.counter("engine.lmax_rounds").value(), stats.lmax_rounds);
  EXPECT_EQ(reg.counter("engine.chi_builds").value(), stats.chi_builds);
  EXPECT_EQ(reg.counter("engine.candidates").value(), stats.candidates);
  EXPECT_EQ(reg.counter("bdd.nodes_allocated").value(), stats.bdd_nodes);
  EXPECT_EQ(reg.counter("bdd.cache_lookups").value(),
            stats.bdd_cache_lookups);
  EXPECT_EQ(reg.counter("bdd.cache_hits").value(), stats.bdd_cache_hits);
  EXPECT_GT(stats.lmax_rounds, 0u);
  EXPECT_GT(stats.bdd_nodes, 0u);
  // seconds is span-derived and the engine really did work.
  EXPECT_GT(stats.seconds, 0.0);

  // The run left a span tree: engine.decompose with the phase children.
  const auto spans = trace.take();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "engine.decompose");
  std::set<std::string> children;
  for (const auto& s : spans)
    if (s.parent == 0) children.insert(s.name);
  EXPECT_TRUE(children.count("engine.partitions"));
  EXPECT_TRUE(children.count("engine.chi"));
  EXPECT_TRUE(children.count("engine.lmax"));

  // In a flow run on a multi-output circuit, grouping's trial
  // decompositions and own-cost baselines are named spans in flow.select.
  const auto flat = collapse_network(*circuits::make_benchmark("rd84"));
  ASSERT_TRUE(flat.has_value());
  {
    const TraceScope scope({&trace});
    decompose_to_luts(*flat, FlowOptions{});
  }
  const auto flow_spans = trace.take();
  std::set<std::string> in_select;
  for (const auto& s : flow_spans)
    if (s.parent >= 0 && flow_spans[s.parent].name == "flow.select")
      in_select.insert(s.name);
  EXPECT_TRUE(in_select.count("flow.trial"));
  EXPECT_TRUE(in_select.count("flow.own_cost"));
}

TEST_F(ObsTest, DisabledModeHasZeroSideEffects) {
  ASSERT_FALSE(enabled());
  const auto fs = worked_example();
  ImodecStats stats;
  const auto dec = decompose_multi_output(fs, worked_example_vp(), {}, &stats);
  ASSERT_TRUE(dec.has_value());
  // Stats still work (they are plain struct fields) ...
  EXPECT_GT(stats.lmax_rounds, 0u);
  EXPECT_GT(stats.seconds, 0.0);
  // ... but nothing leaked into the registry ...
  expect_all_metrics_zero();

  // ... and a run records no spans, not even into a caller's sink.
  Trace outer;
  {
    const TraceScope scope({&outer});
    SynthesisConfig cfg;
    cfg.threads = 1;
    Network mapped;
    const DriverReport rep =
        run_synthesis(*circuits::make_benchmark("rd53"), cfg, mapped);
    EXPECT_TRUE(rep.spans.empty());
    EXPECT_EQ(TraceContext::current().trace, &outer);  // scope restored
  }
  EXPECT_TRUE(outer.take().empty());
}

// ---------------------------------------------------------------------------
// JSON model

TEST(ObsJson, DumpParseRoundTrip) {
  Json doc = Json::object();
  doc["name"] = "rd53";
  doc["seconds"] = 0.125;
  doc["count"] = 42;
  doc["ok"] = true;
  doc["nothing"] = nullptr;
  doc["list"] = Json::array();
  doc["list"].push_back(1);
  doc["list"].push_back("two\n\"quoted\"");

  for (int indent : {-1, 2}) {
    const auto parsed = Json::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    ASSERT_TRUE(parsed->is_object());
    EXPECT_EQ(parsed->find("name")->as_string(), "rd53");
    EXPECT_DOUBLE_EQ(parsed->find("seconds")->as_number(), 0.125);
    EXPECT_EQ(parsed->find("count")->as_number(), 42);
    EXPECT_TRUE(parsed->find("ok")->as_bool());
    EXPECT_TRUE(parsed->find("nothing")->is_null());
    const Json* list = parsed->find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->size(), 2u);
    EXPECT_EQ(list->items()[1].as_string(), "two\n\"quoted\"");
  }
}

TEST(ObsJson, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("'single'").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_TRUE(Json::parse(" { \"a\" : [ 1 , -2.5e3 , null ] } ").has_value());
}

TEST(ObsJson, ObjectKeepsInsertionOrder) {
  Json doc = Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "zebra");
  EXPECT_EQ(doc.members()[1].first, "alpha");
  doc["zebra"] = 3;  // assign, not duplicate
  EXPECT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.find("zebra")->as_number(), 3);
}

// ---------------------------------------------------------------------------
// Exporters

TEST_F(ObsTest, TraceJsonRoundTrips) {
  Trace trace;
  {
    const TraceScope scope({&trace});
    ScopedSpan a("root");
    { ScopedSpan b("child"); }
  }
  const Json tree = trace_json(trace.take());
  const auto parsed = Json::parse(tree.dump(2));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->size(), 1u);
  const Json& root = parsed->items()[0];
  EXPECT_EQ(root.find("name")->as_string(), "root");
  ASSERT_NE(root.find("dur_s"), nullptr);
  EXPECT_GE(root.find("dur_s")->as_number(), 0.0);
  const Json* children = root.find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->size(), 1u);
  EXPECT_EQ(children->items()[0].find("name")->as_string(), "child");
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormed) {
  Trace trace;
  {
    const TraceScope scope({&trace});
    ScopedSpan a("root");
    { ScopedSpan b("child"); }
  }
  const Json doc = trace_chrome_json(trace.take());
  const auto parsed = Json::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  const Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);
  for (const Json& ev : events->items()) {
    EXPECT_EQ(ev.find("ph")->as_string(), "X");
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    EXPECT_GE(ev.find("dur")->as_number(), 0.0);
  }
}

TEST_F(ObsTest, TextExportersContainSpanNames) {
  Trace trace;
  {
    const TraceScope scope({&trace});
    ScopedSpan a("alpha");
    { ScopedSpan b("beta"); }
    { ScopedSpan c("beta"); }
  }
  const std::string summary = trace_summary(trace.take());
  EXPECT_NE(summary.find("alpha"), std::string::npos);
  // The two same-named siblings merge into one aggregated line.
  EXPECT_NE(summary.find("x2"), std::string::npos);
  EXPECT_EQ(summary.find("beta"), summary.rfind("beta"));
  // Every line carries its self time.
  EXPECT_NE(summary.find("self"), summary.rfind("self"));
}

TEST_F(ObsTest, RegistryJsonExport) {
  Registry::instance().counter("a.count").add(3);
  Registry::instance().gauge("a.gauge").set(5);
  const auto parsed = Json::parse(Registry::instance().to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  const Json* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("a.count")->as_number(), 3);
  const Json* gauges = parsed->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const Json* g = gauges->find("a.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->find("value")->as_number(), 5);
  EXPECT_EQ(g->find("max")->as_number(), 5);
}

// ---------------------------------------------------------------------------
// Bench sink

TEST(ObsBenchJson, RecordsAndFlagStripping) {
  BenchJson sink("unit");
  Json& rec = sink.add_record("rd53", 0.5);
  rec["clbs"] = 6;
  EXPECT_EQ(sink.num_records(), 1u);

  const char* argv_raw[] = {"bench", "--quick", "--json", "out.json", "-v"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(argv_raw[i]);
  int argc = 5;
  const auto path = strip_json_flag(argc, argv);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, "out.json");
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--quick");
  EXPECT_STREQ(argv[2], "-v");

  int argc2 = 3;
  EXPECT_FALSE(strip_json_flag(argc2, argv).has_value());
  EXPECT_EQ(argc2, 3);
}

}  // namespace
}  // namespace imodec::obs
