#pragma once
// Phase-scoped tracing: RAII spans forming a tree with durations.
//
// A Trace records spans into a flat vector; each span knows its parent index
// so exporters can rebuild the tree. A trace belongs to whoever creates it:
// run_synthesis makes one per run (when obs::enabled()) and hands its spans
// to the run's report, so nothing outlives the run. Spans go to the calling
// thread's sink, installed with a TraceScope together with the run's
// registry and flight ring (TraceContext); with no sink installed,
// ScopedSpan records nothing and costs a thread-local read plus a clock read
// — the clock read is kept because ScopedSpan::seconds() doubles as the
// pipeline's only timing primitive (ImodecStats/FlowStats derive their
// `seconds` from it, traced or not). Each thread's innermost open span is
// thread-local, so threads nest independently; appends go through the
// trace's mutex, so pool workers can record into the same trace.
//
// Exporters: a nested JSON tree, an aggregated rollup (JSON and text), and
// the Chrome trace-event format (load the file at chrome://tracing or
// https://ui.perfetto.dev).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace imodec::obs {

struct Span {
  std::string name;
  int parent = -1;     // index into the trace's span vector; -1 = root
  double start = 0.0;  // seconds since the trace epoch
  double dur = -1.0;   // -1 while still open
  std::uint64_t tid = 0;
};

class Trace {
 public:
  Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Move out every span recorded so far, leaving the trace empty. A span
  /// still open when taken keeps dur == -1; run_synthesis takes only after
  /// its root span has closed.
  std::vector<Span> take();

 private:
  friend class ScopedSpan;
  int begin(const char* name, int parent,
            std::chrono::steady_clock::time_point now);
  void end(int id);

  std::mutex mu_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

class Registry;
class FlightRecorder;

/// The run the calling thread records for: its span sink (nullptr = record
/// nothing), the open span new spans nest under (-1 = they become roots),
/// its registry (nullptr = the process one) and its flight ring (nullptr =
/// record nothing).
struct TraceContext {
  Trace* trace = nullptr;
  int parent = -1;
  Registry* metrics = nullptr;
  FlightRecorder* flight = nullptr;

  /// The calling thread's context. Pool fan-outs capture it before
  /// parallel_for and reinstall it in each task, so worker records land in
  /// the submitting run, under its open span (DESIGN.md §9).
  static TraceContext current();
};

namespace detail {
inline thread_local TraceContext t_context;  // inline: one TLS load per use
}  // namespace detail

inline TraceContext TraceContext::current() { return detail::t_context; }

/// RAII: install `ctx` as the calling thread's context; the previous one
/// comes back on destruction, so scopes nest.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext prev_;
};

/// RAII span in the calling thread's sink; also a stopwatch (see header
/// comment).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since construction; valid whether or not a sink is installed.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
  Trace* trace_;    // the sink this span records into (nullptr = none)
  int id_ = -1;
  int parent_ = -1;  // the thread's innermost open span before this one
};

/// Aggregated tree as text, one line per node of trace_rollup_json(): name,
/// total and self milliseconds (self = total minus the children's totals),
/// and the call count when above one ("engine.lmax  12.3 ms  self 2.1 ms
/// x41"). The right view for reports where a phase repeats per work item.
std::string trace_summary(const std::vector<Span>& spans);

/// Nested tree: [{"name":..,"start_s":..,"dur_s":..,"children":[...]}, ...]
Json trace_json(const std::vector<Span>& spans);

/// Aggregated tree for run reports: same-named siblings merge into one node
/// with summed duration and a call count:
/// [{"name":..,"total_ms":..,"calls":..,"children":[...]}, ...]
Json trace_rollup_json(const std::vector<Span>& spans);

/// Chrome trace-event JSON: {"traceEvents":[{"ph":"X",...}, ...]}. Times are
/// microseconds as the format requires; open spans are skipped.
Json trace_chrome_json(const std::vector<Span>& spans);

}  // namespace imodec::obs
