#include "map/driver.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "logic/simulate.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/resource.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "verify/miter.hpp"

namespace imodec {

namespace {

/// Stderr heartbeat (SynthesisConfig::progress_ms): while a run is in
/// flight, one line every period with the current pipeline phase, elapsed
/// wall time and — on governed runs — the guard's live-node count against
/// its budget and the milliseconds left on the deadline. The thread is only
/// created when a period is set; destruction joins it, so a run that
/// finishes (or unwinds) between beats never leaves a stray writer.
class ProgressHeartbeat {
 public:
  ProgressHeartbeat(std::uint64_t period_ms, const util::ResourceGuard* guard)
      : guard_(guard), start_(std::chrono::steady_clock::now()) {
    if (period_ms > 0)
      thread_ = std::thread([this, period_ms] { loop(period_ms); });
  }
  ~ProgressHeartbeat() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ProgressHeartbeat(const ProgressHeartbeat&) = delete;
  ProgressHeartbeat& operator=(const ProgressHeartbeat&) = delete;

  /// `name` must be a string literal (stored, not copied).
  void set_phase(const char* name) {
    phase_.store(name, std::memory_order_relaxed);
  }

 private:
  void loop(std::uint64_t period_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                         [this] { return stop_; })) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      std::string line =
          strprintf("imodec: %8.2fs phase=%s", elapsed,
                    phase_.load(std::memory_order_relaxed));
      if (guard_) {
        const auto live = guard_->live_nodes();
        line += strprintf(" live_nodes=%lld", static_cast<long long>(live));
        if (const std::size_t budget = guard_->node_budget())
          line += strprintf(" budget_used=%.0f%%",
                            100.0 * static_cast<double>(live) /
                                static_cast<double>(budget));
        if (const auto ms = guard_->remaining_ms())
          line += strprintf(" deadline_left_ms=%llu",
                            static_cast<unsigned long long>(*ms));
      }
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  const util::ResourceGuard* guard_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<const char*> phase_{"setup"};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Run the configured equivalence check and fill the report's verify
/// fields. Counters: flow.verify.exact / .sim count which engine produced
/// the verdict, flow.verify.fallback counts auto-mode budget misses, and
/// flow.verify.fail counts failed verdicts.
///
/// Governance: an expired deadline downgrades the miter to (sampled)
/// simulation in degrade mode — recorded as DegradationReport::
/// verify_downgraded — and throws util::Timeout in fail mode. The miter
/// itself runs under the outer guard's remaining deadline (MiterOptions::
/// guard), so a mid-proof expiry also lands here instead of running long.
void run_verification(const Network& input, const Network& mapped,
                      const SynthesisConfig& opts, util::ResourceGuard* guard,
                      bool degrade, DriverReport& rep) {
  const auto downgrade_or_throw = [&]() {
    // Deadline hit around the miter: fail mode rethrows via checkpoint();
    // degrade mode falls back to simulation and records the downgrade.
    if (!degrade) guard->checkpoint();
    rep.degrade.verify_downgraded = true;
    rep.degrade.note("verification downgraded to simulation (deadline)");
    obs::count("flow.verify.downgraded");
  };
  bool done = false;
  bool want_miter =
      opts.verify == VerifyMode::exact || opts.verify == VerifyMode::auto_;
  if (want_miter && guard) {
    guard->poll_deadline();
    if (guard->should_stop()) {
      downgrade_or_throw();
      want_miter = false;
    }
  }
  if (want_miter) {
    verify::MiterOptions mopts;
    if (opts.verify == VerifyMode::auto_)
      mopts.node_budget = opts.verify_node_budget;
    mopts.guard = guard;
    const verify::MiterResult mr = verify::check_miter(input, mapped, mopts);
    if (mr.proven) {
      rep.verify_mode = VerifyMode::exact;
      rep.verify_proven = true;
      rep.verified = mr.equivalent;
      rep.verified_exhaustive = true;
      rep.counterexample = mr.counterexample;
      obs::count("flow.verify.exact");
      done = true;
    } else {
      obs::count("flow.verify.fallback");
      if (guard && (guard->poll_deadline(), guard->should_stop()))
        downgrade_or_throw();
    }
  }
  if (!done) {
    const auto eq = check_equivalence(input, mapped);
    rep.verify_mode = VerifyMode::sim;
    rep.verified = eq.equivalent;
    rep.verified_exhaustive = eq.exhaustive;
    rep.counterexample = eq.counterexample;
    obs::count("flow.verify.sim");
  }
  if (!rep.verified) obs::count("flow.verify.fail");
}

/// The pipeline proper, minus the envelope that the public run_synthesis
/// wraps around it: the run's observability sinks (trace, registry, flight
/// ring) and the ring's dump on unwind.
DriverReport run_synthesis_governed(const Network& input,
                                    const SynthesisConfig& opts,
                                    Network& mapped,
                                    const RunResources& res) {
  util::ThreadPool* const pool = res.pool;
  DriverReport rep;
  obs::ScopedSpan run_span("driver.run_synthesis");

  // One guard per run (shared by every worker of its pool); no knobs set
  // means no guard and zero per-operation overhead.
  std::optional<util::ResourceGuard> guard_store;
  if (opts.timeout_ms || opts.node_budget) {
    guard_store.emplace();
    if (opts.timeout_ms) guard_store->set_deadline_ms(opts.timeout_ms);
    if (opts.node_budget) guard_store->set_node_budget(opts.node_budget);
  }
  util::ResourceGuard* const guard = guard_store ? &*guard_store : nullptr;
  const bool degrade = opts.on_exhaustion == OnExhaustion::degrade;

  // Phase transitions go to both consumers at once: the heartbeat line and
  // the flight recorder (ordinal in `a`, so a dump shows how far a tripped
  // run got).
  ProgressHeartbeat heartbeat(opts.progress_ms, guard);
  std::uint64_t phase_ord = 0;
  const auto enter_phase = [&](const char* name) {
    heartbeat.set_phase(name);
    obs::flight(obs::FlightKind::phase, name, ++phase_ord);
  };

  RestructureOptions ropts = opts.restructure_options();
  ropts.guard = guard;
  ropts.degrade = degrade;
  ropts.stopped_early = &rep.degrade.restructure_stopped_early;

  Network start = input;
  if (opts.classical) {
    // Classical flow: extract common subfunctions algebraically, then map
    // each node on its own.
    obs::ScopedSpan span("driver.restructure+extract");
    enter_phase("restructure+extract");
    start = restructure(input, ropts);
    opt::extract_kernels(start);
  } else if (opts.collapse) {
    obs::ScopedSpan span("driver.collapse");
    enter_phase("collapse");
    std::optional<Network> flat;
    try {
      flat = collapse_network(input, guard);
    } catch (const util::ResourceExhausted&) {
      // Degrade: treat like the paper's '*' circuits — fall back to the
      // (cheaper, governed) restructuring path. Fail: unwind to the caller.
      if (!degrade) throw;
      rep.degrade.collapse_skipped = true;
      rep.degrade.note("collapse abandoned (deadline); restructuring instead");
      obs::flight(obs::FlightKind::rung, "collapse_skipped");
    }
    if (flat) {
      start = std::move(*flat);
      rep.collapsed = true;
    } else {
      enter_phase("restructure");
      start = restructure(input, ropts);
    }
  } else {
    obs::ScopedSpan span("driver.restructure");
    enter_phase("restructure");
    start = restructure(input, ropts);
  }

  FlowOptions flow_opts = opts.flow_options();
  flow_opts.pool = pool;
  flow_opts.guard = guard;
  if (opts.result_cache) flow_opts.npn_cache = res.npn_cache;
  flow_opts.imodec.manager_pool = res.managers;
  enter_phase("decompose");
  FlowResult flow = decompose_to_luts(start, flow_opts);
  rep.flow = flow.stats;
  rep.degrade.merge(flow.degrade);
  {
    obs::ScopedSpan span("driver.pack");
    enter_phase("pack");
    rep.clbs = pack_xc3000(flow.network);
    rep.depth = flow.network.depth();
  }

  if (opts.verify != VerifyMode::off) {
    obs::ScopedSpan span("driver.verify");
    enter_phase("verify");
    run_verification(input, flow.network, opts, guard, degrade, rep);
  }
  enter_phase("finish");
  mapped = std::move(flow.network);
  if (guard) {
    guard->poll_deadline();
    rep.degrade.deadline_expired = guard->deadline_expired();
    if (obs::enabled()) {
      obs::count("flow.resource.checkpoints", guard->checkpoints());
      if (guard->peak_live_nodes() > 0)
        obs::count("flow.resource.peak_live_nodes",
                   static_cast<std::uint64_t>(guard->peak_live_nodes()));
    }
  }

  obs::count("driver.runs");
  return rep;
}

}  // namespace

DriverReport run_synthesis(const Network& input, const SynthesisConfig& opts,
                           Network& mapped) {
  // Resolve the runtime width here so a width-1 run never pays for thread
  // creation; the overload below does the actual work.
  const unsigned resolved =
      opts.threads ? opts.threads : std::thread::hardware_concurrency();
  std::optional<util::ThreadPool> pool;
  if (resolved > 1) pool.emplace(resolved);
  return run_synthesis(input, opts, mapped,
                       RunResources{pool ? &*pool : nullptr});
}

DriverReport run_synthesis(const Network& input, const SynthesisConfig& opts,
                           Network& mapped, const RunResources& res) {
  // The run's own sinks: every span, metric and flight event of this run,
  // on this thread and on its pool workers, lands here and nowhere else. A
  // governed or progress-reporting run keeps a ring even with obs off, so a
  // Timeout/ResourceExhausted unwind still leaves a post-mortem trail.
  const bool governed = opts.timeout_ms || opts.node_budget;
  std::optional<obs::Trace> trace;
  std::shared_ptr<obs::Registry> metrics;
  if (obs::enabled()) {
    trace.emplace();
    metrics = std::make_shared<obs::Registry>();
  }
  std::unique_ptr<obs::FlightRecorder> ring;
  if (governed || opts.progress_ms > 0 || obs::enabled())
    ring = std::make_unique<obs::FlightRecorder>();
  const obs::TraceScope scope(
      {trace ? &*trace : nullptr, -1, metrics.get(), ring.get()});
  try {
    DriverReport rep = run_synthesis_governed(input, opts, mapped, res);
    if (trace) rep.spans = trace->take();  // root span closed on return
    rep.metrics = std::move(metrics);
    if (ring) {
      rep.flight = ring->snapshot();
      rep.flight_recorded = ring->total_recorded();
    }
    return rep;
  } catch (const util::ResourceExhausted& e) {
    // Record the trip itself, then dump the ring to stderr as one compact
    // JSON line before the exception escapes (DESIGN.md §13.2). Timeout
    // derives from ResourceExhausted, so exit codes 4 and 5 both land here,
    // as do fault-injection trips (they throw the same types).
    obs::flight(obs::FlightKind::trip, util::to_string(e.kind()));
    if (ring)
      std::fprintf(
          stderr, "imodec: resource trip (%s); flight recorder dump:\n%s\n",
          util::to_string(e.kind()),
          obs::flight_json(ring->snapshot(), ring->total_recorded())
              .dump(-1)
              .c_str());
    throw;
  }
}

std::string format_report(const std::string& name, const DriverReport& rep) {
  std::string s;
  s += strprintf("circuit        : %s\n", name.c_str());
  s += strprintf("starting point : %s\n",
                 rep.collapsed ? "collapsed" : "restructured");
  s += strprintf("LUTs           : %u\n", rep.flow.luts);
  s += strprintf("XC3000 CLBs    : %u (%u FG-paired, %u single)\n",
                 rep.clbs.clbs, rep.clbs.paired_blocks,
                 rep.clbs.single_function_blocks);
  s += strprintf("logic depth    : %u\n", rep.depth);
  s += strprintf("vectors        : %u (max m=%u, max p=%u, saved=%u)\n",
                 rep.flow.vectors, rep.flow.max_m, rep.flow.max_p,
                 rep.flow.shared_functions);
  if (rep.flow.total_errors() > 0 || rep.flow.shannon_fallbacks > 0) {
    s += strprintf("fallbacks      : %u shannon", rep.flow.shannon_fallbacks);
    for (unsigned i = 0; i < kNumDecomposeErrors; ++i) {
      const auto e = static_cast<DecomposeError>(i);
      if (rep.flow.error_count(e))
        s += strprintf(", %u %s", rep.flow.error_count(e),
                       std::string(to_string(e)).c_str());
    }
    s += "\n";
  }
  if (rep.degrade.degraded()) {
    const auto& d = rep.degrade;
    s += strprintf(
        "degraded       : %u engine-exhausted, %u single, %u shannon, "
        "%u drained%s%s%s%s\n",
        d.engine_exhausted, d.single_fallbacks, d.shannon_degrades, d.drained,
        d.deadline_expired ? ", deadline expired" : "",
        d.collapse_skipped ? ", collapse skipped" : "",
        d.restructure_stopped_early ? ", restructure stopped early" : "",
        d.verify_downgraded ? ", verify downgraded" : "");
    for (const std::string& e : d.events) s += strprintf("  - %s\n", e.c_str());
  }
  s += strprintf("flow time      : %.3f s\n", rep.flow.seconds);
  if (rep.flow.bdd_cache_lookups > 0)
    s += strprintf("BDD            : %llu nodes, %.1f%% cache hit rate, "
                   "%u Lmax rounds\n",
                   static_cast<unsigned long long>(rep.flow.bdd_nodes),
                   100.0 * rep.flow.cache_hit_rate(), rep.flow.lmax_rounds);
  if (rep.verify_mode == VerifyMode::off) {
    s += "equivalence    : skipped\n";
  } else {
    const char* strength = rep.verify_proven           ? "miter proof"
                           : rep.verified_exhaustive   ? "exhaustive simulation"
                                                       : "sampled simulation";
    s += strprintf("equivalence    : %s (%s)\n",
                   rep.verified ? "PASS" : "FAIL", strength);
  }
  if (!rep.spans.empty()) {
    s += "--- phases (total ms, self ms, x calls) ---\n";
    s += obs::trace_summary(rep.spans);
  }
  if (rep.metrics) {
    const auto counters = rep.metrics->counters();
    if (!counters.empty()) s += "--- counters ---\n";
    for (const auto& [name, value] : counters)
      s += strprintf("  %-36s %12llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  return s;
}

}  // namespace imodec
