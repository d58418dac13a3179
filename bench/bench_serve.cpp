// Serving throughput/latency bench: sustained requests/sec and p50/p99
// latency through one warm serve::Engine over a mixed 12-circuit corpus,
// result cache on vs off (DESIGN.md §14).
//
// Each request travels the full wire path (JSON parse -> per-request config
// -> pipeline -> embedded run report -> JSON serialize), exactly what
// imodec_served does per line, so the numbers are service numbers, not
// engine numbers. The corpus repeats for --rounds rounds; round 1 is the
// cache-warming round and is excluded from the sustained rate (both modes,
// same rule), mirroring a server's steady state on recurring traffic.
// Verification stays at the default `auto` (miter proof within budget), so
// cache-hit results are cross-checked end to end: recompose() inside the
// cache layer plus the run's own miter.
//
// --clients M adds the overload section (DESIGN.md §15): M closed-loop
// clients (one outstanding request each) hammer an in-process serve::Server
// — bounded admission queue over --workers warm engines — and the same
// measurement is repeated with exactly --workers clients as the matched-load
// baseline. A closed loop with 2x-capacity clients offers 2x-capacity load
// by construction; the point of the table is that sustained ok-req/s holds
// at the matched-load level while the excess is shed with typed `overloaded`
// responses, instead of collapsing into queue stalls or timeouts.
//
// Usage: bench_serve [--rounds n] [--threads n] [--clients m] [--workers n]
//                    [--queue n] [--json file]
//
// The --json document follows the bench-JSON schema
// (tools/check_bench_json.py): one record per circuit and mode with the
// mean request latency in "seconds", plus per-mode "corpus" summary records
// carrying sustained req/s and latency percentiles, and one "speedup"
// record with the cache-on/cache-off sustained-rate ratio. With --clients,
// two "concurrent" records (matched / overload) carry ok/shed tallies and
// ok-latency percentiles.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "map/serve.hpp"
#include "obs/bench_json.hpp"

using namespace imodec;

namespace {

const char* kCorpus[] = {"rd53", "rd73", "rd84", "z4ml", "misex1", "9sym",
                         "clip", "sao2", "5xp1", "f51m", "term1", "vg2"};
constexpr std::size_t kCorpusSize = sizeof(kCorpus) / sizeof(kCorpus[0]);

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct ModeResult {
  double sustained_rps = 0.0;  // rounds 2..N
  double p50_ms = 0.0, p99_ms = 0.0;
  std::vector<double> per_circuit_mean_s;  // indexed like kCorpus
  NpnCache::Stats cache;
};

ModeResult run_mode(bool cache_on, unsigned rounds, unsigned threads) {
  SynthesisConfig base;
  base.threads = threads;
  base.result_cache = cache_on;
  serve::Engine engine(base);

  std::vector<std::string> requests;
  for (std::size_t c = 0; c < kCorpusSize; ++c)
    requests.push_back(std::string("{\"schema_version\":1,\"id\":\"b") +
                       std::to_string(c) + "\",\"circuit\":{\"name\":\"" +
                       kCorpus[c] + "\"}}");

  ModeResult res;
  res.per_circuit_mean_s.assign(kCorpusSize, 0.0);
  std::vector<double> steady_lat_ms;
  double steady_seconds = 0.0;
  std::uint64_t steady_requests = 0;
  for (unsigned round = 1; round <= rounds; ++round) {
    for (std::size_t c = 0; c < kCorpusSize; ++c) {
      const auto t0 = std::chrono::steady_clock::now();
      const obs::Json resp = engine.handle_line(requests[c]);
      const double dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const obs::Json* code = resp.find("code");
      if (!code || code->as_string() != "ok") {
        std::fprintf(stderr, "bench_serve: %s failed: %s\n", kCorpus[c],
                     resp.dump(-1).c_str());
        std::exit(1);
      }
      if (round > 1) {
        steady_seconds += dt;
        ++steady_requests;
        steady_lat_ms.push_back(dt * 1e3);
        res.per_circuit_mean_s[c] += dt;
      }
    }
  }
  if (rounds > 1)
    for (double& s : res.per_circuit_mean_s) s /= (rounds - 1);
  res.sustained_rps = steady_seconds > 0.0
                          ? static_cast<double>(steady_requests) /
                                steady_seconds
                          : 0.0;
  res.p50_ms = percentile(steady_lat_ms, 0.50);
  res.p99_ms = percentile(steady_lat_ms, 0.99);
  if (NpnCache* cache = engine.session().result_cache())
    res.cache = cache->stats();
  return res;
}

struct ConcurrentResult {
  unsigned clients = 0;
  double wall_s = 0.0;
  std::uint64_t ok = 0, overloaded = 0, other = 0;
  double ok_rps = 0.0;     // completed-ok requests per second
  double total_rps = 0.0;  // every typed response per second (incl. sheds)
  double p50_ms = 0.0, p99_ms = 0.0;  // ok-request latency
};

/// Closed-loop concurrent clients against an in-process Server: each client
/// thread keeps exactly one request outstanding via the blocking handle()
/// path (the same path a socket connection thread takes in imodec_served).
/// Each client's first corpus round is warmup and excluded from the stats.
ConcurrentResult run_concurrent(unsigned clients, unsigned workers,
                                std::size_t queue_capacity, unsigned rounds,
                                unsigned threads) {
  SynthesisConfig base;
  base.threads = threads;
  base.result_cache = true;
  serve::ServerOptions so;
  so.workers = workers;
  so.queue_capacity = queue_capacity;
  serve::Server server(base, so);

  std::vector<std::string> requests;
  for (std::size_t c = 0; c < kCorpusSize; ++c)
    requests.push_back(std::string("{\"schema_version\":2,\"id\":\"b") +
                       std::to_string(c) + "\",\"circuit\":{\"name\":\"" +
                       kCorpus[c] + "\"}}");

  ConcurrentResult res;
  res.clients = clients;
  std::atomic<std::uint64_t> ok{0}, overloaded{0}, other{0};
  std::mutex lat_mu;
  std::vector<double> lat_ms;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads_v;
  threads_v.reserve(clients);
  for (unsigned cl = 0; cl < clients; ++cl) {
    threads_v.emplace_back([&, cl] {
      for (unsigned round = 1; round <= rounds; ++round) {
        for (std::size_t c = 0; c < kCorpusSize; ++c) {
          // Stagger the corpus per client so the result caches see a mixed
          // stream rather than kCorpusSize simultaneous copies of one run.
          const std::size_t idx = (c + cl) % kCorpusSize;
          const auto r0 = std::chrono::steady_clock::now();
          const std::string resp = server.handle(requests[idx]);
          const double dt_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - r0)
                  .count();
          const std::optional<obs::Json> doc = obs::Json::parse(resp);
          const obs::Json* code = doc ? doc->find("code") : nullptr;
          const std::string code_s = code ? code->as_string() : "?";
          if (round == 1) continue;  // warmup round
          if (code_s == "ok") {
            ok.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(lat_mu);
            lat_ms.push_back(dt_ms);
          } else if (code_s == "overloaded") {
            overloaded.fetch_add(1, std::memory_order_relaxed);
          } else {
            other.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads_v) t.join();
  res.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.drain();

  res.ok = ok.load();
  res.overloaded = overloaded.load();
  res.other = other.load();
  if (res.wall_s > 0.0) {
    res.ok_rps = static_cast<double>(res.ok) / res.wall_s;
    res.total_rps =
        static_cast<double>(res.ok + res.overloaded + res.other) / res.wall_s;
  }
  res.p50_ms = percentile(lat_ms, 0.50);
  res.p99_ms = percentile(lat_ms, 0.99);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned rounds = 8;
  unsigned threads = 1;
  unsigned clients = 0;
  unsigned workers = 2;
  std::size_t queue_capacity = 4;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rounds" && i + 1 < argc)
      rounds = static_cast<unsigned>(std::stoul(argv[++i]));
    else if (arg == "--threads" && i + 1 < argc)
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    else if (arg == "--clients" && i + 1 < argc)
      clients = static_cast<unsigned>(std::stoul(argv[++i]));
    else if (arg == "--workers" && i + 1 < argc)
      workers = static_cast<unsigned>(std::stoul(argv[++i]));
    else if (arg == "--queue" && i + 1 < argc)
      queue_capacity = static_cast<std::size_t>(std::stoull(argv[++i]));
    else if (arg == "--json" && i + 1 < argc)
      json_path = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: %s [--rounds n] [--threads n] [--clients m] "
                   "[--workers n] [--queue n] [--json file]\n",
                   argv[0]);
      return 2;
    }
  }
  if (workers == 0) workers = 1;
  if (rounds < 2) rounds = 2;  // need at least one steady-state round

  std::printf("serving bench: %zu circuits x %u rounds (round 1 = warmup)\n",
              kCorpusSize, rounds);
  const ModeResult off = run_mode(false, rounds, threads);
  const ModeResult on = run_mode(true, rounds, threads);
  const double speedup =
      off.sustained_rps > 0.0 ? on.sustained_rps / off.sustained_rps : 0.0;

  std::printf("%-10s %12s %10s %10s\n", "mode", "req/s", "p50 ms", "p99 ms");
  std::printf("%-10s %12.1f %10.3f %10.3f\n", "cache-off", off.sustained_rps,
              off.p50_ms, off.p99_ms);
  std::printf("%-10s %12.1f %10.3f %10.3f\n", "cache-on", on.sustained_rps,
              on.p50_ms, on.p99_ms);
  std::printf("cache-on speedup: %.2fx sustained req/s "
              "(cache: %llu hits / %llu misses / %llu evictions)\n",
              speedup, static_cast<unsigned long long>(on.cache.hits),
              static_cast<unsigned long long>(on.cache.misses),
              static_cast<unsigned long long>(on.cache.evictions));

  ConcurrentResult matched, overload;
  if (clients > 0) {
    std::printf("\nconcurrent serving: %u workers, queue %zu "
                "(closed-loop clients, round 1 = warmup)\n",
                workers, queue_capacity);
    matched = run_concurrent(workers, workers, queue_capacity, rounds,
                             threads);
    overload = run_concurrent(clients, workers, queue_capacity, rounds,
                              threads);
    std::printf("%-10s %8s %12s %12s %10s %10s %10s\n", "load", "clients",
                "ok req/s", "resp req/s", "shed", "p50 ms", "p99 ms");
    const auto print_row = [](const char* label, const ConcurrentResult& r) {
      std::printf("%-10s %8u %12.1f %12.1f %10llu %10.3f %10.3f\n", label,
                  r.clients, r.ok_rps, r.total_rps,
                  static_cast<unsigned long long>(r.overloaded), r.p50_ms,
                  r.p99_ms);
    };
    print_row("matched", matched);
    print_row("overload", overload);
    const double hold = matched.ok_rps > 0.0
                            ? overload.ok_rps / matched.ok_rps
                            : 0.0;
    std::printf("sustained ok-req/s at %.1fx-capacity offered load: %.2fx "
                "of matched (%llu requests shed with typed `overloaded`)\n",
                workers ? static_cast<double>(clients) / workers : 0.0, hold,
                static_cast<unsigned long long>(overload.overloaded));
    if (overload.other > 0)
      std::printf("note: %llu non-ok non-overloaded responses\n",
                  static_cast<unsigned long long>(overload.other));
  }

  if (!json_path.empty()) {
    obs::BenchJson sink("serve");
    for (std::size_t c = 0; c < kCorpusSize; ++c) {
      obs::Json& r_off =
          sink.add_record(kCorpus[c], off.per_circuit_mean_s[c]);
      r_off["mode"] = "cache_off";
      obs::Json& r_on = sink.add_record(kCorpus[c], on.per_circuit_mean_s[c]);
      r_on["mode"] = "cache_on";
    }
    const auto summary = [&](const char* mode, const ModeResult& m) {
      obs::Json& r = sink.add_record(
          "corpus", m.sustained_rps > 0.0 ? 1.0 / m.sustained_rps : 0.0);
      r["mode"] = mode;
      r["sustained_req_per_s"] = m.sustained_rps;
      r["p50_ms"] = m.p50_ms;
      r["p99_ms"] = m.p99_ms;
      r["rounds"] = rounds;
      r["corpus_size"] = static_cast<unsigned>(kCorpusSize);
    };
    summary("cache_off", off);
    summary("cache_on", on);
    obs::Json& sp = sink.add_record("speedup", 0.0);
    sp["mode"] = "summary";
    sp["cache_speedup"] = speedup;
    sp["cache_hits"] = on.cache.hits;
    sp["cache_misses"] = on.cache.misses;
    sp["cache_evictions"] = on.cache.evictions;
    if (clients > 0) {
      const auto concurrent = [&](const char* mode,
                                  const ConcurrentResult& r) {
        obs::Json& rec = sink.add_record(
            "concurrent", r.ok_rps > 0.0 ? 1.0 / r.ok_rps : 0.0);
        rec["mode"] = mode;
        rec["clients"] = r.clients;
        rec["workers"] = workers;
        rec["queue"] = static_cast<std::uint64_t>(queue_capacity);
        rec["ok_req_per_s"] = r.ok_rps;
        rec["resp_req_per_s"] = r.total_rps;
        rec["ok"] = r.ok;
        rec["overloaded"] = r.overloaded;
        rec["other"] = r.other;
        rec["p50_ms"] = r.p50_ms;
        rec["p99_ms"] = r.p99_ms;
      };
      concurrent("matched", matched);
      concurrent("overload", overload);
    }
    if (!sink.write(json_path)) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
