#pragma once
// Synthesis-as-a-service front end (DESIGN.md §14, §15).
//
// serve::Engine turns one warm SynthesisSession into a request/response
// service: each request is a line of JSON naming a circuit (benchmark
// registry name, inline BLIF, or inline PLA) plus per-request config
// overrides; each response is one line of JSON with the typed outcome
// (map/errors.hpp) and — on success — the unified run report
// (map/report.hpp) embedded verbatim.
//
// serve::Server stacks the overload-resilience layer on top (DESIGN.md §15):
// a bounded admission queue feeding a fixed pool of worker threads (one warm
// Engine each). Admission is never blocking — a full queue sheds with a typed
// `overloaded` response carrying `retry_after_ms`, queue wait is subtracted
// from the request's own `timeout_ms` before the run is armed (already-dead
// work is rejected at dequeue with a typed `timeout`), and request_drain()
// flips the server into drain mode: no new admissions, queued requests
// answered `overloaded`, in-flight requests finish. tools/imodec_served.cpp
// wraps all of this in a stdin/stdout or Unix-socket loop;
// bench/bench_serve.cpp drives both layers in-process.
//
// Wire schema (kWireSchemaVersion = 2, validated by
// tools/check_request_json.py; full field table in README "Serving"):
// unknown fields anywhere in a request are rejected with a typed `usage`
// error rather than ignored, so a client typo ("timeout" for "timeout_ms")
// can never silently change behavior. Version 1 circuit requests are still
// accepted (v2 is a superset); responses always stamp version 2. New in v2:
//   - control verbs: {"schema_version":2,"id":...,"control":"health|stats|
//     drain"} answered inline by the Server (never queued, so health checks
//     work under full-queue overload);
//   - the `overloaded` error code, whose error object carries
//     `retry_after_ms` — the client's backoff hint.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "map/session.hpp"
#include "obs/json.hpp"
#include "util/bounded_queue.hpp"

namespace imodec::serve {

/// Version stamped on every response; the ceiling for requests.
inline constexpr int kWireSchemaVersion = 2;
/// Oldest request version still accepted (v1 = PR 7 circuit requests).
inline constexpr int kWireSchemaVersionMin = 1;

/// One warm service instance: a SynthesisSession (thread pool, recycled BDD
/// managers, result cache when the base config enables it) plus the
/// request parser / response builder. Not thread-safe; one Engine serves one
/// request at a time (the Server gives each worker thread its own Engine).
class Engine {
 public:
  /// Pre: base.validate().empty(). The base config is what requests override
  /// per field; threads / result-cache sizing are session properties fixed
  /// here.
  explicit Engine(const SynthesisConfig& base);

  /// Parse one request line, run it, and return the response document.
  /// Never throws: every failure becomes an error response with a valid
  /// ErrorCode spelling.
  ///
  /// `queue_wait_ms` is the time the request spent queued before this call
  /// (0 when unqueued): it is subtracted from the request's effective
  /// `timeout_ms` so a deadline covers queue wait + run, and a request whose
  /// deadline already passed in the queue is rejected with a typed `timeout`
  /// before any cycles are spent on it.
  obs::Json handle_line(const std::string& line,
                        std::uint64_t queue_wait_ms = 0);

  /// handle_line + compact one-line serialization (no trailing newline).
  std::string handle_line_text(const std::string& line,
                               std::uint64_t queue_wait_ms = 0);

  /// Requests served so far (all outcomes).
  std::uint64_t served() const { return served_; }

  SynthesisSession& session() { return session_; }
  const SynthesisConfig& base_config() const { return base_; }

 private:
  SynthesisConfig base_;
  SynthesisSession session_;
  std::uint64_t served_ = 0;
};

struct ServerOptions {
  /// Worker threads, each owning one warm Engine (its own SynthesisSession:
  /// thread pool, manager pool, result cache). Capacity = workers concurrent
  /// runs + queue_capacity queued requests; everything beyond that sheds.
  unsigned workers = 1;
  /// Admission queue depth (0 = queue nothing: a request is either picked up
  /// immediately or shed).
  std::size_t queue_capacity = 16;
  /// Backoff hint stamped into `overloaded` responses.
  std::uint64_t retry_after_ms = 50;
};

/// The overload-resilient serving core: admission control + drain semantics
/// over a pool of warm Engines. Thread-safe: submit()/handle() may be called
/// from any number of transport threads concurrently.
class Server {
 public:
  /// Callback invoked exactly once per submitted line with the response
  /// text. Runs inline in submit() for shed/control/drain responses, on a
  /// worker thread otherwise — it must be thread-safe and should be cheap
  /// (it holds a worker lane while it runs).
  using Done = std::function<void(const std::string&)>;

  Server(const SynthesisConfig& base, const ServerOptions& opts);
  /// Drains (queued requests answered `overloaded`, in-flight finished).
  ~Server();

  /// Admit one request line. Control verbs and shed/drain rejections are
  /// answered inline; admitted circuit requests are answered from a worker
  /// thread. Never blocks on synthesis work.
  void submit(std::string line, Done done);

  /// Blocking convenience (transports that want one response per request in
  /// request order): submit + wait. With one outstanding request per caller
  /// thread, at most `callers` requests compete for the queue.
  std::string handle(const std::string& line);

  /// Enter drain mode (idempotent, non-blocking): stop admitting, answer
  /// everything still queued with `overloaded`, let in-flight requests
  /// finish. Workers exit once the queue is empty.
  void request_drain();

  /// request_drain() + wait for all in-flight work to finish and workers to
  /// exit. After drain() returns, every Done callback has been called.
  void drain();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Live serving stats (the `stats` control verb's status object):
  /// submitted/completed/shed/queue-expired totals, per-code tallies, queue
  /// depth/capacity, workers, drain state.
  obs::Json stats_json() const;

  unsigned workers() const { return static_cast<unsigned>(engines_.size()); }
  const ServerOptions& options() const { return opts_; }

 private:
  struct Job {
    std::string line;
    Done done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(std::size_t self);
  void finish(const Job& job, const obs::Json& resp);
  obs::Json overloaded_response(const std::string& id,
                                const std::string& why) const;
  /// nullptr when `line` is not a control request; otherwise the inline
  /// response (also handles malformed control requests as typed usage).
  std::unique_ptr<obs::Json> try_control(const obs::Json* parsed,
                                         const std::string& id);

  ServerOptions opts_;
  std::vector<std::unique_ptr<Engine>> engines_;
  util::BoundedQueue<Job> queue_;
  std::vector<std::thread> threads_;
  std::atomic<bool> draining_{false};
  std::once_flag drain_once_;
  std::once_flag join_once_;

  // Serving counters (relaxed: monotone tallies, read by stats_json).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_in_queue_{0};
  std::atomic<std::uint64_t> control_{0};
  std::atomic<std::uint64_t> by_code_[kNumErrorCodes] = {};
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

/// Supervisor restart policy (tools/imodec_served --supervise): exponential
/// backoff over consecutive fast crashes, ladder reset after a stable run,
/// give-up once a crash loop is evident. Pure state machine — unit-testable
/// without forking anything (tests/test_serve.cpp).
class RestartPolicy {
 public:
  struct Options {
    std::uint64_t base_backoff_ms = 100;
    std::uint64_t max_backoff_ms = 5000;
    /// A worker that survived this long gets a fresh ladder on its next
    /// crash (it was serving fine; the crash is news, not a loop).
    std::uint64_t stable_uptime_ms = 10000;
    /// Consecutive fast crashes (uptime < stable_uptime_ms) before the
    /// supervisor stops restarting.
    unsigned give_up_after = 8;
  };

  struct Decision {
    bool give_up = false;
    std::uint64_t backoff_ms = 0;
  };

  RestartPolicy() = default;
  explicit RestartPolicy(const Options& opts) : opts_(opts) {}

  /// Record one worker crash (call only for abnormal exits) and decide.
  Decision on_crash(std::uint64_t uptime_ms);

  unsigned consecutive_fast_crashes() const { return fast_crashes_; }
  std::uint64_t total_crashes() const { return total_crashes_; }
  const Options& options() const { return opts_; }

 private:
  Options opts_;
  unsigned fast_crashes_ = 0;
  std::uint64_t total_crashes_ = 0;
};

}  // namespace imodec::serve
