#pragma once
// SynthesisSession: the session-scoped engine API.
//
// A session binds one validated base SynthesisConfig to the long-lived
// resources a stream of runs can share, and runs any number of circuits
// through the pipeline. Compared to the free run_synthesis(), the session
// amortizes across runs (a server mapping a stream of circuits pays once):
//  - the thread pool (pool startup),
//  - a pool of recycled BDD managers (engine runs lease instead of
//    constructing — unique table / computed cache / node arena stay grown),
//  - the exact-keyed result cache (map/npn_cache.hpp), kept only when the
//    base config sets result_cache.
// Every run still observes the per-request boundary: its report's metrics
// and flight events are its own (run_synthesis owns them), and results are
// bit-identical to a fresh process running the same request sequence
// (DESIGN.md §14).

#include <optional>
#include <string>

#include "bdd/manager_pool.hpp"
#include "map/config.hpp"
#include "map/driver.hpp"
#include "map/errors.hpp"
#include "map/npn_cache.hpp"
#include "util/thread_pool.hpp"

namespace imodec {

class SynthesisSession {
 public:
  /// Precondition: cfg.validate().empty() — callers surface the diagnostics
  /// themselves (the CLI prints them and exits). Creates the pool eagerly
  /// when the config resolves to a width > 1, and the result cache when
  /// cfg.result_cache is set (sized by cfg.result_cache_entries).
  explicit SynthesisSession(const SynthesisConfig& cfg);

  const SynthesisConfig& config() const { return cfg_; }
  /// Execution width the session resolved to (>= 1).
  unsigned threads() const { return pool_ ? pool_->size() : 1; }
  /// The session's pool; nullptr when running serially.
  util::ThreadPool* pool() { return pool_ ? &*pool_ : nullptr; }
  /// The session's result cache; nullptr unless the base config enabled
  /// it. Per-request configs with result_cache=false skip it for that run.
  NpnCache* result_cache() { return cache_ ? &*cache_ : nullptr; }
  /// The session's recycled-BDD-manager pool (always present).
  bdd::ManagerPool& managers() { return managers_; }

  /// Run the full pipeline on `input` with the session's base config; stores
  /// the mapped network in `mapped`. Safe to call repeatedly; each run's
  /// report is independent.
  DriverReport run(const Network& input, Network& mapped);

  /// As above with a per-request config (the serving layer's base +
  /// overrides). Pre: cfg.validate().empty(). Threading stays a session
  /// property: the run executes on the session's pool regardless of
  /// cfg.threads.
  DriverReport run(const Network& input, const SynthesisConfig& cfg,
                   Network& mapped);

  /// One run's outcome as a typed error surface instead of exceptions —
  /// exactly the CLI's exit-code mapping (map/errors.hpp), shared with the
  /// daemon's JSON error responses.
  struct Outcome {
    ErrorCode code = ErrorCode::ok;
    std::string message;                 ///< empty when code == ok
    std::optional<DriverReport> report;  ///< set when the pipeline finished
  };

  /// Exception-free run: validates `cfg` (usage), maps util::Timeout /
  /// util::ResourceExhausted / other failures to their ErrorCode, and turns
  /// a failed equivalence check into verify_failed (report still attached).
  Outcome run_checked(const Network& input, const SynthesisConfig& cfg,
                      Network& mapped);

 private:
  SynthesisConfig cfg_;
  std::optional<util::ThreadPool> pool_;
  std::optional<NpnCache> cache_;
  bdd::ManagerPool managers_;
};

}  // namespace imodec
