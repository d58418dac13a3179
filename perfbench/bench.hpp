#pragma once
// Shared pieces of the perfbench driver: command-line arguments, the result
// record printed as the last stdout line, and the small statistics and
// clock helpers both workload families use.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
};

/// One run's outcome. `metrics` keeps insertion order: name, value, unit.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< integrity failures, printed to stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// setup_s is the median of kSetupReps set-ups: one before the measured
/// work and the rest spread evenly through it, so that set-up time is
/// sampled under the same host conditions as the work.
inline constexpr unsigned kSetupReps = 11;

void run_compile(const Args& args, Result& out);
void run_serve(const Args& args, Result& out);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by every thread of this process.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Hand freed heap pages back to the kernel, then restart the resident-set
/// high-water mark (VmHWM) from the current RSS, so that rss_hwm_mb() next
/// reads the peak of what ran in between, as a fresh process would see it.
/// Where /proc refuses the reset, VmHWM stays the process peak.
inline void reset_rss_hwm() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM of this process in MB; falls back to ru_maxrss.
inline double rss_hwm_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f))
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  return peak_rss_mb();
}

/// Regularized incomplete beta function I_x(a, b) (continued fraction,
/// modified Lentz).
inline double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const auto cf = [](double a, double b, double x) {
    constexpr double kTiny = 1e-300;
    double c = 1.0, d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
    double h = d;
    for (int m = 1; m <= 100000; ++m) {
      for (int half = 0; half < 2; ++half) {
        const double aa =
            half == 0
                ? m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
                : -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
        d = 1.0 + aa * d;
        d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
        c = 1.0 + aa / c;
        if (std::fabs(c) < kTiny) c = kTiny;
        h *= d * c;
        if (half == 1 && std::fabs(d * c - 1.0) < 1e-14) return h;
      }
    }
    return h;
  };
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * cf(a, b, x) / a;
  return 1.0 - front * cf(b, a, 1.0 - x) / b;
}

/// Harrell-Davis estimate of quantile q in (0,1): a Beta-weighted mean of
/// all order statistics. Unlike a single order statistic it does not jump
/// when two neighbouring samples swap places, which matters for the compile
/// workloads' sparse per-circuit times. 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double est = 0.0, lo = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double hi = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    est += (hi - lo) * v[i];
    lo = hi;
  }
  return est;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, imodec::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

}  // namespace perfbench
