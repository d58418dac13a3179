#pragma once
// Named counters, gauges and histograms (the numeric half of the
// observability layer; spans live in obs/trace.hpp).
//
// Counters are monotonic uint64 accumulators; gauges are settable int64
// values that also remember their maximum (e.g. peak live BDD nodes).
// run_synthesis makes one Registry per run (when obs::enabled()) and hands
// it to the run's report. Records go to the calling thread's run registry;
// with no run installed, to the process registry, which direct layer calls
// (tests, bench harnesses) read. A handle lives as long as its registry, so
// a hot call site hoists a lookup for one call, or caches it keyed on the
// registry's serial(), never for the process. All
// instrumentation sites in the pipeline are gated on obs::enabled() — when
// observability is off (the default) no registry entry is created or
// touched, which is what the zero-overhead tests assert.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/hist.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace imodec::obs {

/// Global observability switch. Off by default; flipping it on makes spans
/// record and instrumentation sites publish counters.
bool enabled();
void set_enabled(bool on);

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    std::int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

class Registry {
 public:
  Registry();

  /// The process registry: where records go when no run is installed.
  static Registry& instance();
  /// The calling thread's run registry, or the process registry when the
  /// thread records for no run.
  static Registry& current();

  /// Unique per registry, never reused: a cached handle is good while its
  /// registry's serial is current()'s.
  std::uint64_t serial() const { return serial_; }

  /// Find-or-create; the returned reference lives as long as the registry.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Sorted-by-name snapshots.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  struct GaugeValue {
    std::int64_t value;
    std::int64_t max;
  };
  std::vector<std::pair<std::string, GaugeValue>> gauges() const;
  std::vector<std::pair<std::string, Histogram::Summary>> histograms() const;

  /// Zero every metric (entries stay registered). Tests and bench harnesses
  /// use this to isolate runs.
  void reset();

  /// Add `other`'s metrics in: counters and histograms sum, gauges take
  /// `other`'s value and the larger max (process totals over runs).
  void merge(const Registry& other);

  /// {"counters": {...}, "gauges": {name: {"value","max"}, ...},
  ///  "histograms": {name: {"count","sum","max","p50","p90","p99"}, ...}}
  Json to_json() const;

 private:
  const std::uint64_t serial_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

inline Registry& Registry::current() {
  Registry* run = detail::t_context.metrics;
  return run ? *run : instance();
}

/// `Registry::current().counter(name).add(delta)` gated on enabled().
inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (enabled()) Registry::current().counter(name).add(delta);
}

/// `Registry::current().gauge(name).set(v)` gated on enabled().
inline void gauge_set(std::string_view name, std::int64_t v) {
  if (enabled()) Registry::current().gauge(name).set(v);
}

/// `Registry::current().histogram(name).record(v)` gated on enabled().
/// Hot loops should instead hoist the Histogram* lookup outside the loop
/// (the lookup takes the registry mutex).
inline void observe(std::string_view name, std::uint64_t v) {
  if (enabled()) Registry::current().histogram(name).record(v);
}

/// Run `fn`, recording its wall time in µs into `hist` unless `hist` is null
/// (the hoisted handle of a hot path, null when observability is off).
template <class Fn>
void time_us(Histogram* hist, Fn&& fn) {
  if (!hist) return fn();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  hist->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

}  // namespace imodec::obs
