// Serving-layer tests (ctest -L serve): the exact-keyed result cache,
// warm-resource invariants (Manager::reset, ManagerPool), the per-request
// session boundary (cache-on = cache-off and warm-vs-fresh bit identity,
// run-owned report metrics and flight events), and the imodec_served wire
// schema (src/map/serve.hpp).
// DESIGN.md §14.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bdd/manager.hpp"
#include "bdd/manager_pool.hpp"
#include "circuits/registry.hpp"
#include "logic/network.hpp"
#include "map/errors.hpp"
#include "map/npn_cache.hpp"
#include "map/report.hpp"
#include "map/serve.hpp"
#include "map/session.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bounded_queue.hpp"
#include "util/signals.hpp"

namespace imodec {
namespace {

/// Deterministic pseudo-random truth table (splitmix64 over the rows).
TruthTable random_table(unsigned num_vars, std::uint64_t seed) {
  TruthTable t(num_vars);
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull;
  for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    t.set(row, ((z ^ (z >> 31)) & 1) != 0);
  }
  return t;
}

// --- Bounded LRU cache ------------------------------------------------------

NpnCache::Key key_of(std::vector<TruthTable> tables,
                     CacheFamily family = CacheFamily::decomposition,
                     std::vector<std::uint64_t> options = {7}) {
  return {family, std::move(options), std::move(tables)};
}

TEST(NpnCacheTest, HitMissAndEvictionCounters) {
  NpnCache cache(/*max_entries=*/2);

  const NpnCache::Key a = key_of({random_table(4, 1)});
  const NpnCache::Key b = key_of({random_table(4, 2)});
  const NpnCache::Key c = key_of({random_table(4, 3)});

  EXPECT_FALSE(cache.lookup(a));
  NpnCache::Entry e;
  e.cost = 5;
  cache.store(a, e);
  const auto hit = cache.lookup(a);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->cost, 5u);
  // Same tables under different options are a different entry.
  EXPECT_FALSE(cache.lookup(key_of(a.tables, a.family, {8})));

  cache.store(b, e);  // a refreshed by the hit above: lru order b, a
  cache.store(c, e);  // capacity 2: evicts the least recent (a)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(a)) << "evicted entry served";
  EXPECT_TRUE(cache.lookup(b));
  EXPECT_TRUE(cache.lookup(c));

  const NpnCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.evictions, 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NpnCacheTest, VectorKeysAndFamiliesDoNotCollide) {
  NpnCache cache;
  const TruthTable t = random_table(4, 9);
  NpnCache::Entry e;
  e.cost = 1;
  cache.store(key_of({t}), e);
  // Same table twice is a different (vector) key than once.
  EXPECT_FALSE(cache.lookup(key_of({t, t})));
  // The family keeps entry kinds apart on equal tables and options.
  EXPECT_FALSE(cache.lookup(key_of({t}, CacheFamily::trial)));
  EXPECT_FALSE(cache.lookup(key_of({t}, CacheFamily::own_cost)));
  // Keys are exact: an NPN variant of the table is a different entry.
  EXPECT_FALSE(cache.lookup(key_of({~t})));
  EXPECT_TRUE(cache.lookup(key_of({t})));
}

// --- Warm resources ---------------------------------------------------------

TEST(ManagerResetTest, ResetManagerIsObservationallyFresh) {
  bdd::Manager warm(4);
  // Grow some state worth forgetting.
  bdd::NodeId acc = warm.one();
  for (unsigned v = 0; v < 4; ++v) acc = warm.apply_and(acc, warm.var(v));
  const std::size_t grown = warm.live_node_count();
  EXPECT_GT(grown, 1u);

  warm.reset(5);
  bdd::Manager fresh(5);
  EXPECT_EQ(warm.num_vars(), 5u);
  EXPECT_EQ(warm.live_node_count(), fresh.live_node_count());
  // Same construction sequence yields the same node ids — a reset manager
  // is indistinguishable from a newly built one.
  const bdd::NodeId warm_node = warm.apply_and(warm.var(1), warm.var(3));
  const bdd::NodeId fresh_node = fresh.apply_and(fresh.var(1), fresh.var(3));
  EXPECT_EQ(warm_node, fresh_node);
}

TEST(ManagerPoolTest, RetiredManagersAreReused) {
  bdd::ManagerPool pool;
  EXPECT_EQ(pool.reuses(), 0u);
  { bdd::ManagerPool::Lease lease = pool.acquire(6); }
  EXPECT_EQ(pool.creates(), 1u);
  {
    bdd::ManagerPool::Lease lease = pool.acquire(8);  // recycled, re-sized
    EXPECT_EQ(lease->num_vars(), 8u);
  }
  EXPECT_EQ(pool.creates(), 1u);
  EXPECT_EQ(pool.reuses(), 1u);
}

// --- Session boundary -------------------------------------------------------

SynthesisConfig serving_config() {
  SynthesisConfig cfg;
  cfg.threads = 1;
  cfg.result_cache = true;
  return cfg;
}

Network run_fresh(const std::string& name, const SynthesisConfig& cfg) {
  SynthesisSession session(cfg);
  Network mapped;
  const Network input = *circuits::make_benchmark(name);
  session.run(input, mapped);
  return mapped;
}

TEST(SessionTest, WarmRunsAreBitIdenticalToFreshProcesses) {
  const SynthesisConfig cfg = serving_config();
  SynthesisSession warm(cfg);
  // A warm session with history (and a populated cache) must produce the
  // same network a fresh session produces on its very first request.
  const std::vector<std::string> sequence = {"rd53", "misex1", "9sym",
                                             "rd53", "9sym"};
  for (const std::string& name : sequence) {
    Network warm_mapped;
    warm.run(*circuits::make_benchmark(name), warm_mapped);
    EXPECT_TRUE(structurally_equal(warm_mapped, run_fresh(name, cfg)))
        << name << " diverged in the warm session";
  }
}

TEST(SessionTest, CacheOnRunsEqualCacheOffRuns) {
  SynthesisConfig off = serving_config();
  off.result_cache = false;
  SynthesisSession warm(serving_config());
  // Each circuit maps to one network whether the cache is off, cold, warm
  // from earlier circuits, or warm from the same circuit.
  for (const std::string name :
       {"rd84", "misex1", "9sym", "5xp1", "f51m", "alu2", "count", "term1",
        "alu4"}) {
    const Network expected = run_fresh(name, off);
    EXPECT_TRUE(structurally_equal(run_fresh(name, serving_config()),
                                   expected))
        << name << ": cold cache differs from cache off";
    for (int round = 0; round < 2; ++round) {
      Network mapped;
      warm.run(*circuits::make_benchmark(name), mapped);
      EXPECT_TRUE(structurally_equal(mapped, expected))
          << name << ": warm cache (round " << round
          << ") differs from cache off";
    }
  }
  EXPECT_GT(warm.result_cache()->stats().hits, 0u);
}

TEST(SessionTest, ClassicalRequestIsNotServedDefaultModeEntries) {
  // The classical flow runs in single-output mode. A session that has just
  // decomposed the same node in the default (multi-output) mode must not
  // hand that decomposition to the classical request.
  SynthesisConfig classical = serving_config();
  classical.classical = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Network net("single7_" + std::to_string(seed));
    std::vector<SigId> inputs;
    for (unsigned i = 0; i < 7; ++i)
      inputs.push_back(net.add_input("x" + std::to_string(i)));
    net.add_output(net.add_node(inputs, random_table(7, seed)), "f");

    SynthesisSession warm(serving_config());
    Network mapped, warm_classical, cold_classical;
    warm.run(net, mapped);
    warm.run(net, classical, warm_classical);
    SynthesisSession(classical).run(net, cold_classical);
    EXPECT_TRUE(structurally_equal(warm_classical, cold_classical))
        << "seed " << seed;
  }
}

TEST(SessionTest, DegradedRunsStayBitIdenticalToo) {
  SynthesisConfig cfg = serving_config();
  cfg.node_budget = 2000;
  cfg.on_exhaustion = OnExhaustion::degrade;
  SynthesisSession warm(cfg);
  for (int round = 0; round < 2; ++round) {
    Network warm_mapped;
    const DriverReport rep =
        warm.run(*circuits::make_benchmark("rd73"), warm_mapped);
    EXPECT_TRUE(rep.verified);
    EXPECT_TRUE(structurally_equal(warm_mapped, run_fresh("rd73", cfg)))
        << "round " << round;
  }
}

TEST(SessionTest, ResultCacheCountersAdvanceAcrossRequests) {
  SynthesisSession session(serving_config());
  ASSERT_NE(session.result_cache(), nullptr);
  Network mapped;
  session.run(*circuits::make_benchmark("misex1"), mapped);
  const NpnCache::Stats after_first = session.result_cache()->stats();
  EXPECT_GT(after_first.misses, 0u);
  session.run(*circuits::make_benchmark("misex1"), mapped);
  const NpnCache::Stats after_second = session.result_cache()->stats();
  EXPECT_GT(after_second.hits, after_first.hits)
      << "repeated request did not hit the warm cache";
  EXPECT_EQ(after_second.verify_failures, 0u);
}

TEST(SessionTest, RunCheckedSpeaksTheSharedErrorSurface) {
  SynthesisSession session(serving_config());
  Network mapped;
  const Network input = *circuits::make_benchmark("rd53");

  SynthesisConfig ok_cfg = serving_config();
  EXPECT_EQ(session.run_checked(input, ok_cfg, mapped).code, ErrorCode::ok);

  SynthesisConfig bad_cfg = serving_config();
  bad_cfg.k = 0;  // fails SynthesisConfig::validate()
  const SynthesisSession::Outcome bad =
      session.run_checked(input, bad_cfg, mapped);
  EXPECT_EQ(bad.code, ErrorCode::usage);
  EXPECT_FALSE(bad.message.empty());

  // result_cache off for this request: a cache hit would (correctly) skip
  // the engine and never charge the node budget. 5xp1 is multi-output, so
  // the flow reaches the BDD-backed engine and trips the budget.
  SynthesisConfig tight_cfg = serving_config();
  tight_cfg.result_cache = false;
  tight_cfg.node_budget = 64;
  tight_cfg.on_exhaustion = OnExhaustion::fail;
  const SynthesisSession::Outcome tight = session.run_checked(
      *circuits::make_benchmark("5xp1"), tight_cfg, mapped);
  EXPECT_EQ(tight.code, ErrorCode::resource);
}

// --- Run scope: a report describes its own run and nothing else ------------
// (also labelled `parallel`, so a TSan build runs them)

std::string code_of(const obs::Json& resp) {
  const obs::Json* code = resp.find("code");
  return code ? code->as_string() : "<none>";
}

/// A counter of a run report; -1 when the report does not have it.
double report_counter(const obs::Json& report, const char* name) {
  const obs::Json* c = report.find("counters")->find(name);
  return c ? c->as_number() : -1;
}

/// The ordinals (`a`) of a run report's flight phase events, in ring order.
std::vector<double> phase_ordinals(const obs::Json& report) {
  std::vector<double> out;
  for (const obs::Json& e : report.find("flight")->find("events")->items())
    if (e.find("kind")->as_string() == "phase")
      out.push_back(e.find("a")->as_number());
  return out;
}

/// True when `ords` is 1, 2, ..., k.
bool counts_up_from_one(const std::vector<double>& ords) {
  for (std::size_t i = 0; i < ords.size(); ++i)
    if (ords[i] != static_cast<double>(i + 1)) return false;
  return !ords.empty();
}

TEST(RunScopeTest, SequentialRequestsReportOnlyTheirOwnRun) {
  serve::Engine engine(serving_config());
  for (int i = 0; i < 4; ++i) {
    const obs::Json resp = engine.handle_line(
        R"({"schema_version":2,"id":"r","circuit":{"name":"rd84"}})");
    ASSERT_EQ(code_of(resp), "ok");
    const obs::Json& report = *resp.find("report");
    EXPECT_EQ(report_counter(report, "driver.runs"), 1) << "request " << i;
    EXPECT_EQ(report_counter(report, "flow.luts"),
              report.find("result")->find("luts")->as_number())
        << "request " << i;
    EXPECT_TRUE(counts_up_from_one(phase_ordinals(report))) << "request " << i;
  }
}

TEST(RunScopeTest, ConcurrentEnginesKeepTheirFlightEventsApart) {
  // Two engines on two threads, as `imodec_served --workers 2` runs them:
  // every report's flight ring holds its own run's phases, 1..k in order.
  const std::vector<std::string> names = {"rd53",   "rd73", "z4ml",
                                          "misex1", "rd84", "5xp1"};
  constexpr int kRequests = 40;
  std::vector<std::string> bad[2];
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&, w] {
      serve::Engine engine(serving_config());
      for (int i = 0; i < kRequests; ++i) {
        const std::string& name = names[(i + w) % names.size()];
        const obs::Json resp = engine.handle_line(
            R"({"schema_version":2,"id":"r","circuit":{"name":")" + name +
            R"("}})");
        const obs::Json* report = resp.find("report");
        const std::string what = name + " #" + std::to_string(i);
        if (code_of(resp) != "ok" || !report)
          bad[w].push_back(what + " failed");
        else if (!counts_up_from_one(phase_ordinals(*report)))
          bad[w].push_back(what + " carries another run's flight events");
        else if (report_counter(*report, "driver.runs") != 1)
          bad[w].push_back(what + " counts another run");
      }
    });
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < 2; ++w)
    EXPECT_TRUE(bad[w].empty()) << "engine " << w << ": " << bad[w].size()
                                << " of " << kRequests << " bad reports, first "
                                << bad[w].front();
}

TEST(RunScopeTest, GaugePeaksArePerRun) {
  // A small circuit served after a big one must not inherit its highs.
  obs::set_enabled(true);
  SynthesisSession session(serving_config());
  const auto peak = [&](const char* name) {
    Network mapped;
    const DriverReport rep =
        session.run(*circuits::make_benchmark(name), mapped);
    const obs::Json report = build_run_report(name, session.config(), rep);
    const obs::Json* g = report.find("gauges")->find("bdd.peak_live_nodes");
    return g ? g->find("max")->as_number() : 0.0;
  };
  const double big_peak = peak("5xp1");
  EXPECT_GT(big_peak, 0);
  EXPECT_LT(peak("rd53"), big_peak)
      << "previous request's watermark leaked into this one";
}

// --- Error codes ------------------------------------------------------------

TEST(ErrorCodeTest, SpellingAndExitCodeRoundTrip) {
  for (int i = 0; i < kNumErrorCodes; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    EXPECT_EQ(exit_code(code), i);
    const auto parsed = parse_error_code(to_string(code));
    ASSERT_TRUE(parsed) << to_string(code);
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(parse_error_code("no-such-code"));
  EXPECT_FALSE(parse_error_code(""));
}

// --- Wire schema ------------------------------------------------------------

TEST(ServeTest, WellFormedRequestSucceedsWithReport) {
  serve::Engine engine(serving_config());
  const obs::Json resp = engine.handle_line(
      R"({"schema_version":1,"id":"r1","circuit":{"name":"rd53"}})");
  EXPECT_EQ(code_of(resp), "ok");
  ASSERT_NE(resp.find("ok"), nullptr);
  EXPECT_TRUE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.find("id")->as_string(), "r1");
  EXPECT_EQ(resp.find("schema_version")->as_number(),
            serve::kWireSchemaVersion);
  const obs::Json* report = resp.find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_NE(report->find("result"), nullptr);
  EXPECT_GT(report->find("result")->find("luts")->as_number(), 0.0);
  EXPECT_EQ(engine.served(), 1u);
}

TEST(ServeTest, ClosedSchemaRejectsUnknownAndMalformedFields) {
  serve::Engine engine(serving_config());
  const std::vector<std::string> bad_requests = {
      // Unknown top-level field.
      R"({"schema_version":1,"id":"x","circuit":{"name":"rd53"},"mood":1})",
      // Unknown config key.
      R"({"schema_version":1,"id":"x","circuit":{"name":"rd53"},)"
      R"("config":{"threads":4}})",
      // Schema version above the ceiling (v1 and v2 are both accepted).
      R"({"schema_version":3,"id":"x","circuit":{"name":"rd53"}})",
      // Missing id.
      R"({"schema_version":1,"circuit":{"name":"rd53"}})",
      // No circuit source / two circuit sources.
      R"({"schema_version":1,"id":"x","circuit":{}})",
      R"({"schema_version":1,"id":"x",)"
      R"("circuit":{"name":"rd53","pla":".i 1\n.o 1\n.p 1\n1 1\n.e\n"}})",
      // Unknown registry circuit.
      R"({"schema_version":1,"id":"x","circuit":{"name":"nope"}})",
  };
  for (const std::string& line : bad_requests) {
    const obs::Json resp = engine.handle_line(line);
    EXPECT_EQ(code_of(resp), "usage") << line;
    const obs::Json* error = resp.find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->find("code")->as_string(), "usage");
    EXPECT_FALSE(error->find("message")->as_string().empty());
  }
  // Not JSON at all: still one well-formed usage response (empty id).
  const obs::Json garbage = engine.handle_line("not json at all");
  EXPECT_EQ(code_of(garbage), "usage");
  EXPECT_EQ(garbage.find("id")->as_string(), "");
}

TEST(ServeTest, MalformedInlineCircuitIsAParseError) {
  serve::Engine engine(serving_config());
  const obs::Json resp = engine.handle_line(
      R"({"schema_version":1,"id":"p1,",)"
      R"("circuit":{"pla":".i 2\n.o 1\n.p 1\n01 1 extra\n.e\n"}})");
  EXPECT_EQ(code_of(resp), "parse");
}

TEST(ServeTest, PerRequestConfigOverridesApply) {
  serve::Engine engine(serving_config());
  // An impossible node budget with fail policy must surface as `resource`,
  // proving the override reached the run.
  const obs::Json resp = engine.handle_line(
      R"({"schema_version":1,"id":"o1","circuit":{"name":"rd73"},)"
      R"("config":{"node_budget":1,"on_exhaustion":"fail"}})");
  EXPECT_EQ(code_of(resp), "resource");
  // The same request with degrade must complete and verify.
  const obs::Json degraded = engine.handle_line(
      R"({"schema_version":1,"id":"o2","circuit":{"name":"rd73"},)"
      R"("config":{"node_budget":2000,"on_exhaustion":"degrade"}})");
  EXPECT_EQ(code_of(degraded), "ok");
}

// --- Run-owned trace (DESIGN.md §14.2) ---------------------------------------

/// Why a response's phase tree is not the one-root tree of its own run
/// (`driver.run_synthesis`, called once); empty when it is.
std::string phases_fault(const obs::Json& resp) {
  if (code_of(resp) != "ok") return "code " + code_of(resp);
  const obs::Json* report = resp.find("report");
  const obs::Json* phases = report ? report->find("phases") : nullptr;
  if (!phases || !phases->is_array()) return "no phases";
  if (phases->size() != 1)
    return std::to_string(phases->size()) + " phase roots";
  const obs::Json& root = phases->items()[0];
  if (root.find("name")->as_string() != "driver.run_synthesis")
    return "root " + root.find("name")->as_string();
  if (root.find("calls")->as_number() != 1.0)
    return "root calls " + root.find("calls")->dump(-1);
  return "";
}

std::string name_request(const std::string& id, const std::string& name) {
  return R"({"schema_version":2,"id":")" + id + R"(","circuit":{"name":")" +
         name + R"("}})";
}

TEST(ServeTest, ConcurrentEnginesReportOnlyTheirOwnPhases) {
  // Two workers' engines serving at once: each response's phases hold its
  // own run and no span of the other engine's runs.
  const std::vector<std::string> names = {"rd53", "rd73", "z4ml", "misex1",
                                          "rd84"};
  constexpr int kPerEngine = 40;
  std::vector<std::vector<std::string>> faults(2);
  std::vector<std::thread> workers;
  for (int e = 0; e < 2; ++e)
    workers.emplace_back([&, e] {
      serve::Engine engine(serving_config());
      for (int i = 0; i < kPerEngine; ++i) {
        const std::string& name = names[(i + e) % names.size()];
        const std::string fault = phases_fault(engine.handle_line(
            name_request("e" + std::to_string(e) + "-" + std::to_string(i),
                         name)));
        if (!fault.empty()) faults[e].push_back(name + ": " + fault);
      }
    });
  for (std::thread& w : workers) w.join();
  for (int e = 0; e < 2; ++e)
    EXPECT_EQ(faults[e].size(), 0u)
        << "engine " << e << ", first: "
        << (faults[e].empty() ? "" : faults[e].front());
}

TEST(ServeTest, RequestBoundaryLeavesNoTraceSink) {
  // A run's spans live in a trace the run owns: once the response is built,
  // the serving thread holds no sink, so nothing accumulates across
  // requests.
  serve::Engine engine(serving_config());
  for (int i = 0; i < 400; ++i) {
    const obs::Json resp =
        engine.handle_line(name_request("s" + std::to_string(i), "rd84"));
    ASSERT_EQ(phases_fault(resp), "") << "request " << i;
    ASSERT_EQ(obs::TraceContext::current().trace, nullptr) << "request " << i;
  }
}

// --- Deadline propagation (DESIGN.md §15) -----------------------------------

TEST(ServeTest, QueueWaitIsChargedAgainstTheDeadline) {
  serve::Engine engine(serving_config());
  const std::string line =
      R"({"schema_version":2,"id":"d1","circuit":{"name":"rd53"},)"
      R"("config":{"timeout_ms":60000}})";

  // Wait already past the budget: typed timeout before any work runs.
  const obs::Json expired = engine.handle_line(line, /*queue_wait_ms=*/60000);
  EXPECT_EQ(code_of(expired), "timeout");
  const obs::Json* error = expired.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->find("message")->as_string().find("admission queue"),
            std::string::npos);

  // Wait inside the budget: the run proceeds with the *remaining* budget,
  // and the report's config echo proves the subtraction reached the run.
  const obs::Json ok = engine.handle_line(line, /*queue_wait_ms=*/10000);
  EXPECT_EQ(code_of(ok), "ok");
  const obs::Json* report = ok.find("report");
  ASSERT_NE(report, nullptr);
  const obs::Json* cfg = report->find("config");
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->find("timeout_ms")->as_number(), 50000.0);

  // No deadline configured: queue wait is irrelevant.
  const obs::Json no_deadline = engine.handle_line(
      R"({"schema_version":2,"id":"d2","circuit":{"name":"rd53"},)"
      R"("config":{"timeout_ms":0}})",
      /*queue_wait_ms=*/123456);
  EXPECT_EQ(code_of(no_deadline), "ok");
}

// --- serve::Server: admission control, shedding, drain ----------------------

obs::Json parse_resp(const std::string& text) {
  std::optional<obs::Json> doc = obs::Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc ? *doc : obs::Json::object();
}

TEST(ServerTest, ControlVerbsAnsweredInlineWithStatus) {
  serve::ServerOptions opts;
  opts.workers = 1;
  serve::Server server(serving_config(), opts);

  const obs::Json health = parse_resp(server.handle(
      R"({"schema_version":2,"id":"h1","control":"health"})"));
  EXPECT_EQ(code_of(health), "ok");
  EXPECT_EQ(health.find("control")->as_string(), "health");
  const obs::Json* status = health.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->find("state")->as_string(), "serving");

  const obs::Json stats = parse_resp(server.handle(
      R"({"schema_version":2,"id":"s1","control":"stats"})"));
  EXPECT_EQ(code_of(stats), "ok");
  ASSERT_NE(stats.find("status"), nullptr);
  EXPECT_GE(stats.find("status")->find("submitted")->as_number(), 1.0);

  // Malformed control requests: typed usage, closed schema.
  for (const char* bad : {
           // Unknown verb.
           R"({"schema_version":2,"id":"b1","control":"reboot"})",
           // Control verbs are v2-only.
           R"({"schema_version":1,"id":"b2","control":"health"})",
           // Unknown extra field.
           R"({"schema_version":2,"id":"b3","control":"health","x":1})",
       }) {
    EXPECT_EQ(code_of(parse_resp(server.handle(bad))), "usage") << bad;
  }

  // The drain verb flips the server into drain mode.
  const obs::Json drain = parse_resp(server.handle(
      R"({"schema_version":2,"id":"dr","control":"drain"})"));
  EXPECT_EQ(code_of(drain), "ok");
  EXPECT_TRUE(server.draining());
  // Circuit requests after drain shed with a typed overloaded response.
  const obs::Json late = parse_resp(server.handle(
      R"({"schema_version":2,"id":"l1","circuit":{"name":"rd53"}})"));
  EXPECT_EQ(code_of(late), "overloaded");
  // Control still answers while draining (health checks under drain).
  const obs::Json still = parse_resp(server.handle(
      R"({"schema_version":2,"id":"h2","control":"health"})"));
  EXPECT_EQ(code_of(still), "ok");
  EXPECT_EQ(still.find("status")->find("state")->as_string(), "draining");
  server.drain();
}

/// Pins the server's single worker: submit a request whose Done callback
/// blocks until release() — Done runs on the worker thread, so the lane
/// stays busy and subsequent submissions exercise the queue deterministically.
class WorkerPin {
 public:
  explicit WorkerPin(serve::Server& server) {
    server.submit(R"({"schema_version":2,"id":"pin",)"
                  R"("circuit":{"name":"rd53"}})",
                  [this](const std::string&) {
                    {
                      std::lock_guard<std::mutex> lock(mu_);
                      pinned_ = true;
                    }
                    cv_.notify_all();
                    std::unique_lock<std::mutex> lock(mu_);
                    cv_.wait(lock, [&] { return released_; });
                  });
    // Wait until the worker is provably inside the callback.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pinned_; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool pinned_ = false;
  bool released_ = false;
};

TEST(ServerTest, FullQueueShedsWithTypedOverloaded) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.retry_after_ms = 77;
  serve::Server server(serving_config(), opts);
  WorkerPin pin(server);

  // The lane is busy and the queue is empty: this one queues.
  std::mutex mu;
  std::condition_variable cv;
  std::string queued_resp;
  server.submit(R"({"schema_version":2,"id":"q1",)"
                R"("circuit":{"name":"rd53"}})",
                [&](const std::string& r) {
                  {
                    std::lock_guard<std::mutex> lock(mu);
                    queued_resp = r;
                  }
                  cv.notify_all();
                });
  // Queue full: this one sheds inline, with the configured backoff hint.
  std::string shed_resp;
  server.submit(R"({"schema_version":2,"id":"q2",)"
                R"("circuit":{"name":"rd53"}})",
                [&](const std::string& r) { shed_resp = r; });
  const obs::Json shed = parse_resp(shed_resp);
  EXPECT_EQ(code_of(shed), "overloaded");
  EXPECT_EQ(shed.find("id")->as_string(), "q2");
  const obs::Json* error = shed.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("retry_after_ms")->as_number(), 77.0);

  pin.release();
  // Wait for the worker to run q1 before draining — drain() itself is
  // allowed to answer still-queued work with `overloaded`, which is not
  // what this test is about.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !queued_resp.empty(); });
    EXPECT_EQ(code_of(parse_resp(queued_resp)), "ok");
  }
  server.drain();

  const obs::Json stats = server.stats_json();
  EXPECT_EQ(stats.find("shed")->as_number(), 1.0);
  EXPECT_EQ(stats.find("completed")->as_number(), 2.0);
}

TEST(ServerTest, DrainAnswersQueuedRequestsAndFinishesInFlight) {
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  serve::Server server(serving_config(), opts);
  WorkerPin pin(server);

  std::string queued_resp;
  server.submit(R"({"schema_version":2,"id":"q1",)"
                R"("circuit":{"name":"rd53"}})",
                [&](const std::string& r) { queued_resp = r; });

  // Non-blocking drain: the queued-but-unstarted request is answered
  // `overloaded` immediately, while the pinned in-flight request is not
  // disturbed.
  server.request_drain();
  EXPECT_TRUE(server.draining());
  const obs::Json queued = parse_resp(queued_resp);
  EXPECT_EQ(code_of(queued), "overloaded");
  EXPECT_EQ(queued.find("id")->as_string(), "q1");

  // New work after drain: shed inline.
  std::string late_resp;
  server.submit(R"({"schema_version":2,"id":"q2",)"
                R"("circuit":{"name":"rd53"}})",
                [&](const std::string& r) { late_resp = r; });
  EXPECT_EQ(code_of(parse_resp(late_resp)), "overloaded");

  pin.release();
  server.drain();  // joins workers; the pinned request completed normally
  const obs::Json stats = server.stats_json();
  EXPECT_EQ(stats.find("state")->as_string(), "draining");
  EXPECT_EQ(stats.find("completed")->as_number(), 1.0);
  EXPECT_EQ(stats.find("shed")->as_number(), 2.0);
}

TEST(ServerTest, ConcurrentSubmittersAllGetExactlyOneResponse) {
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 2;
  serve::Server server(serving_config(), opts);
  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string resp = server.handle(
            R"({"schema_version":2,"id":"c)" + std::to_string(c) + "-" +
            std::to_string(i) + R"(","circuit":{"name":"rd53"}})");
        const std::string code = code_of(parse_resp(resp));
        if (code == "ok")
          ++ok;
        else if (code == "overloaded")
          ++overloaded;
        else
          ++other;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // Every request answered, typed; under 4x-capacity closed-loop load some
  // may shed, none may vanish or come back untyped.
  EXPECT_EQ(ok + overloaded + other, kClients * kPerClient);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);
  server.drain();
}

// --- RestartPolicy (supervisor crash-loop state machine) --------------------

TEST(RestartPolicyTest, BackoffDoublesAndCaps) {
  serve::RestartPolicy::Options opts;
  opts.base_backoff_ms = 100;
  opts.max_backoff_ms = 500;
  opts.stable_uptime_ms = 10000;
  opts.give_up_after = 100;
  serve::RestartPolicy policy(opts);
  std::vector<std::uint64_t> backoffs;
  for (int i = 0; i < 5; ++i) {
    const auto d = policy.on_crash(/*uptime_ms=*/10);
    EXPECT_FALSE(d.give_up);
    backoffs.push_back(d.backoff_ms);
  }
  EXPECT_EQ(backoffs, (std::vector<std::uint64_t>{100, 200, 400, 500, 500}));
  EXPECT_EQ(policy.total_crashes(), 5u);
}

TEST(RestartPolicyTest, StableUptimeResetsTheLadder) {
  serve::RestartPolicy policy;
  const auto& opts = policy.options();
  for (int i = 0; i < 4; ++i) policy.on_crash(10);
  EXPECT_EQ(policy.consecutive_fast_crashes(), 4u);
  // A crash after a long, healthy run is news, not a loop: fresh ladder.
  const auto d = policy.on_crash(opts.stable_uptime_ms + 1);
  EXPECT_FALSE(d.give_up);
  EXPECT_EQ(d.backoff_ms, opts.base_backoff_ms);
  EXPECT_EQ(policy.consecutive_fast_crashes(), 1u);
}

TEST(RestartPolicyTest, CrashLoopGivesUp) {
  serve::RestartPolicy::Options opts;
  opts.give_up_after = 3;
  serve::RestartPolicy policy(opts);
  EXPECT_FALSE(policy.on_crash(10).give_up);
  EXPECT_FALSE(policy.on_crash(10).give_up);
  EXPECT_FALSE(policy.on_crash(10).give_up);
  EXPECT_TRUE(policy.on_crash(10).give_up);
}

// --- BoundedQueue (the admission primitive) ---------------------------------

TEST(BoundedQueueTest, ShedsWhenFullAndLeavesTheItemIntact) {
  util::BoundedQueue<std::string> q(2);
  std::string a = "a", b = "b", c = "c";
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_FALSE(q.try_push(std::move(c)));
  // Failed push must not have consumed the item (the serving layer answers
  // the shed request through the callback the item carries).
  EXPECT_EQ(c, "c");
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(*q.pop(), "a");
  EXPECT_TRUE(q.try_push(std::move(c)));
}

TEST(BoundedQueueTest, CloseAndDrainHandsBackQueuedItems) {
  util::BoundedQueue<int> q(4);
  int x = 1, y = 2;
  EXPECT_TRUE(q.try_push(std::move(x)));
  EXPECT_TRUE(q.try_push(std::move(y)));
  const std::vector<int> rest = q.close_and_drain();
  EXPECT_EQ(rest, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.pop().has_value());  // closed + empty: no block
  int z = 3;
  EXPECT_FALSE(q.try_push(std::move(z)));  // closed: sheds
}

// --- Crash containment: fatal-signal last gasp ------------------------------

#ifndef _WIN32
TEST(CrashContainmentTest, FatalSignalDumpsFlightRingAndCrashLine) {
  // Fork a victim, crash it with SIGSEGV, and read its last words from a
  // pipe wired to its stderr: the flight-recorder ring and the structured
  // crash line must both appear, and the process must die BY THE SIGNAL
  // (the handler re-raises with default disposition, so a supervisor sees
  // WIFSIGNALED, not a disguised clean exit).
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    util::install_fatal_handler(+[](int signo) {
      obs::flight_dump_fd(2);
      char buf[128];
      const int len = std::snprintf(
          buf, sizeof(buf), "{\"imodec_crash\":{\"signal\":%d,"
                            "\"signal_name\":\"%s\"}}\n",
          signo, util::signal_name(signo));
      if (len > 0) {
        const ssize_t w = ::write(2, buf, static_cast<std::size_t>(len));
        (void)w;
      }
    });
    obs::FlightRecorder ring;
    const obs::TraceScope scope({nullptr, -1, nullptr, &ring});
    obs::flight(obs::FlightKind::phase, "preCrash", 1, 2, 3);
    ::raise(SIGSEGV);
    std::_Exit(0);  // unreachable: the re-raise must kill us
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  EXPECT_NE(out.find("\"imodec_flight\""), std::string::npos) << out;
  EXPECT_NE(out.find("preCrash"), std::string::npos) << out;
  EXPECT_NE(out.find("\"imodec_crash\":{\"signal\":"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"signal_name\":\"SIGSEGV\""), std::string::npos)
      << out;
}

TEST(SignalUtilTest, SimulatedDrainSignalLatchesAndWakesTheFd) {
  ASSERT_TRUE(util::install_drain_handler());
  const std::uint64_t before = util::drain_signal_count();
  util::simulate_drain_signal(SIGTERM);
  EXPECT_TRUE(util::drain_requested());
  EXPECT_EQ(util::drain_signal_count(), before + 1);
  EXPECT_EQ(util::drain_signal(), SIGTERM);
  // The self-pipe is readable: a poll()ing accept loop wakes immediately.
  ASSERT_GE(util::drain_fd(), 0);
  pollfd pfd{util::drain_fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 1);
  EXPECT_NE(pfd.revents & POLLIN, 0);
}
#endif  // !_WIN32

}  // namespace
}  // namespace imodec
