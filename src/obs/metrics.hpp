#pragma once
// Named counters and gauges in a process-wide registry (the numeric half of
// the observability layer; spans live in obs/trace.hpp).
//
// Counters are monotonic uint64 accumulators; gauges are settable int64
// values that also remember their maximum (e.g. peak live BDD nodes).
// Handles returned by the registry are stable for the process lifetime, so
// hot call sites can look a counter up once and increment a pointer
// thereafter. All instrumentation sites in the pipeline are gated on
// obs::enabled() — when observability is off (the default) no registry entry
// is created or touched, which is what the zero-overhead tests assert.

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
  /// Restart the max watermark from the current value (request boundary).
  void reset_watermark() {
    max_.store(value_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create; the returned reference stays valid forever.
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

  /// Restart every gauge's max watermark from its current value, so peaks
  /// are per-request when a SynthesisSession serves many runs.
  void reset_watermarks();

  /// {"counters": {...}, "gauges": {name: {"value","max"}, ...},
  ///  "histograms": {name: {"count","sum","max","p50","p90","p99"}, ...}}
  Json to_json() const;
  /// Aligned name/value table; empty string when nothing is registered.
  std::string to_text() const;

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// `Registry::instance().counter(name).add(delta)` gated on enabled().
inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (enabled()) Registry::instance().counter(name).add(delta);
}

/// `Registry::instance().gauge(name).set(v)` gated on enabled().
inline void gauge_set(std::string_view name, std::int64_t v) {
  if (enabled()) Registry::instance().gauge(name).set(v);
}

/// `Registry::instance().histogram(name).record(v)` gated on enabled().
/// Hot loops should instead hoist the Histogram* lookup outside the loop
/// (the lookup takes the registry mutex).
inline void observe(std::string_view name, std::uint64_t v) {
  if (enabled()) Registry::instance().histogram(name).record(v);
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
