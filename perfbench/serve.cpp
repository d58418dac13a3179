// serve_mixed: the daemon path, `imodec_served --result-cache --threads 1`
// run in-process as a serve::Server with one worker, driven by one
// closed-loop client (next request sent when the previous answer is back).
//
// The request multiset is a fixed function of the run length: distinct
// bodies are inline BLIF of small seeded make_synthetic circuits, inline
// PLA of small verify::random_case cases and small registry names with a
// per-request bound-set seed, plus a fixed share of exact repeats of those
// bodies. --seed shuffles the multiset into the stream order; the first
// occurrence of a body is novel, later ones are repeats. Shapes are capped
// so the latency tail is many similar requests, not a few giants. Results
// do not depend on cache state, so LUT/CLB totals are the same for every
// seed.
//
// Traced: the identical stream is replayed on a second, identically
// configured SynthesisSession, timing each layer the Engine calls in turn:
// obs::Json::parse, read_blif / read_pla, SynthesisSession::run_checked and
// build_run_report + dump.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "circuits/registry.hpp"
#include "circuits/synthetic.hpp"
#include "logic/blif.hpp"
#include "logic/pla.hpp"
#include "map/npn_cache.hpp"
#include "map/report.hpp"
#include "map/serve.hpp"
#include "obs/json.hpp"
#include "verify/gen.hpp"

namespace perfbench {
namespace {

using namespace imodec;

/// Requests per run: a fixed function of the run length, at least 1000 so
/// lat_p99_ms has ten samples beyond it.
std::size_t requests_for(unsigned seconds) {
  return std::max<std::size_t>(1000, std::size_t{200} * seconds);
}

/// Share of the stream that repeats an earlier body exactly (percent).
constexpr std::size_t kRepeatPercent = 30;
/// Catalogue generator seed: the request multiset never depends on --seed.
constexpr std::uint64_t kCatalogueSeed = 0x5e57e1a7c0ffeeull;
/// Registry circuits small enough to sit among the inline requests.
const char* const kSmallNames[] = {"rd53", "rd73", "rd84", "z4ml", "misex1",
                                   "9sym", "clip", "sao2", "5xp1"};

/// The distinct request bodies: everything of a request line after the id,
/// i.e. the "circuit" and optional "config" members.
std::vector<std::string> make_catalogue(std::size_t novel) {
  Rng rng(kCatalogueSeed);
  std::vector<std::string> bodies;
  std::set<std::string> seen;
  while (bodies.size() < novel) {
    std::string body;
    switch (bodies.size() % 7) {
      case 0:
      case 1:
      case 2: {  // inline BLIF of a small structured circuit
        circuits::SyntheticSpec spec;
        spec.name = "syn" + std::to_string(bodies.size());
        spec.num_inputs = static_cast<unsigned>(rng.range(8, 14));
        spec.num_outputs = static_cast<unsigned>(rng.range(2, 6));
        spec.levels = static_cast<unsigned>(rng.range(2, 4));
        spec.gates_per_level = static_cast<unsigned>(rng.range(4, 10));
        spec.sharing_percent = static_cast<unsigned>(rng.range(20, 80));
        spec.seed = rng.next();
        std::ostringstream os;
        write_blif(os, circuits::make_synthetic(spec));
        body = "\"circuit\":{\"blif\":" + obs::json_quote(os.str()) + "}";
        break;
      }
      case 3:
      case 4: {  // inline PLA of a small random cover
        verify::GenOptions g;
        g.min_inputs = 4;
        g.max_inputs = 9;
        g.max_outputs = 4;
        g.max_cubes_per_output = 8;
        Rng case_rng(rng.next());
        body = "\"circuit\":{\"pla\":" +
               obs::json_quote(verify::random_case(case_rng, g).to_pla()) + "}";
        break;
      }
      default: {  // registry name with its own bound-set seed
        const char* name = kSmallNames[rng.below(std::size(kSmallNames))];
        body = std::string("\"circuit\":{\"name\":\"") + name +
               "\"},\"config\":{\"seed\":" +
               std::to_string(rng.below(1 << 20)) + "}";
        break;
      }
    }
    if (seen.insert(body).second) bodies.push_back(std::move(body));
  }
  return bodies;
}

struct Stream {
  std::vector<std::string> lines;
  std::vector<std::size_t> body_of;  // catalogue index per line
};

Stream make_stream(std::size_t requests, std::uint64_t seed) {
  const std::size_t repeats = requests * kRepeatPercent / 100;
  const std::vector<std::string> bodies = make_catalogue(requests - repeats);
  Rng pick(kCatalogueSeed ^ 0x9e3779b97f4a7c15ull);
  Stream s;
  for (std::size_t b = 0; b < bodies.size(); ++b) s.body_of.push_back(b);
  for (std::size_t r = 0; r < repeats; ++r)
    s.body_of.push_back(pick.below(bodies.size()));
  Rng order(seed);
  shuffle(s.body_of, order);
  for (std::size_t k = 0; k < s.body_of.size(); ++k)
    s.lines.push_back("{\"schema_version\":2,\"id\":\"r" + std::to_string(k) +
                      "\"," + bodies[s.body_of[k]] + "}");
  return s;
}

/// The id-free part of a request line: what makes two requests repeats.
std::string body_text(const std::string& line) {
  const std::size_t cut = line.find("\",", line.find("\"id\":"));
  return line.substr(cut + 2);
}

struct Answer {
  bool ok = false;
  bool proven = false;
  unsigned luts = 0;
  unsigned clbs = 0;
};

Answer read_answer(const obs::Json& resp) {
  Answer a;
  const obs::Json* ok = resp.find("ok");
  a.ok = ok && ok->is_bool() && ok->as_bool();
  const obs::Json* rep = resp.find("report");
  const obs::Json* res = rep ? rep->find("result") : nullptr;
  if (!res) return a;
  const auto count = [&](const char* key) {
    const obs::Json* j = res->find(key);
    return j ? static_cast<unsigned>(j->as_number()) : 0u;
  };
  const obs::Json* proven = res->find("verify_proven");
  a.proven = proven && proven->as_bool();
  a.luts = count("luts");
  a.clbs = count("clbs");
  return a;
}

}  // namespace

void run_serve(const Args& args, Result& out) {
  SynthesisConfig base;
  base.threads = 1;
  base.result_cache = true;
  serve::ServerOptions so;
  so.workers = 1;

  // --- set-up: request-stream generation + server construction ------------
  const std::size_t n = requests_for(args.seconds);
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    Stream s = make_stream(n, args.seed);
    auto server = std::make_unique<serve::Server>(base, so);
    setup_s.push_back(seconds_since(t0));
    return std::pair(std::move(s), std::move(server));
  };
  auto [stream, server] = set_up();
  const std::size_t setup_every = n / (kSetupReps - 1);

  // --- untraced closed loop --------------------------------------------------
  std::vector<Answer> answers(n);
  std::vector<bool> novel(n);
  std::set<std::string> seen;
  std::map<std::size_t, std::vector<double>> by_body;
  std::vector<double> lat_s, novel_s, repeat_s;
  std::uint64_t ok = 0, proven = 0;
  double luts = 0, clbs = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto t0 = Clock::now();
    const std::string text = server->handle(stream.lines[k]);
    const double dt = seconds_since(t0);
    if (++out.attempted % setup_every == 0 &&
        set_up().first.lines != stream.lines)
      out.fail("seed " + std::to_string(args.seed) +
               " did not reproduce a byte-identical request stream");
    novel[k] = seen.insert(body_text(stream.lines[k])).second;
    const std::optional<obs::Json> resp = obs::Json::parse(text);
    const Answer a = resp ? read_answer(*resp) : Answer{};
    answers[k] = a;
    if (!a.ok) {
      ++out.failed;
      out.fail("request r" + std::to_string(k) +
               " failed: " + text.substr(0, 300));
      continue;
    }
    ++ok;
    proven += a.proven;
    luts += a.luts;
    clbs += a.clbs;
    lat_s.push_back(dt);
    (novel[k] ? novel_s : repeat_s).push_back(dt);
    by_body[stream.body_of[k]].push_back(dt);
  }
  server.reset();
  const double rss_mb = peak_rss_mb();
  std::vector<double> body_medians;
  for (const auto& [b, v] : by_body) body_medians.push_back(median(v));
  double sequence_s = 0;
  for (double x : lat_s) sequence_s += x;

  if (!args.trace) {
    const double attempted = static_cast<double>(out.attempted);
    double pass_s = 0;
    for (double x : body_medians) pass_s += x;
    out.add("setup_s", median(setup_s), "s");
    out.add("pass_s", pass_s, "s");
    out.add("circuit_geomean_ms", 1e3 * geomean(body_medians), "ms");
    out.add("luts", luts, "count");
    out.add("clbs", clbs, "count");
    out.add("ok_frac", static_cast<double>(ok) / attempted, "frac");
    out.add("proven_frac", static_cast<double>(proven) / attempted, "frac");
    out.add("peak_rss_mb", rss_mb, "MB");
    out.add("req_per_s", static_cast<double>(lat_s.size()) / sequence_s, "1/s");
    out.add("lat_p50_ms", 1e3 * median(lat_s), "ms");
    out.add("lat_p99_ms", 1e3 * quantile(lat_s, 0.99), "ms");
    out.add("novel_p50_ms", 1e3 * median(novel_s), "ms");
    out.add("repeat_p50_ms", 1e3 * median(repeat_s), "ms");
    return;
  }

  // --- traced replay on a second, identically configured session -----------
  SynthesisSession session(base);
  NpnCache& cache = *session.result_cache();
  std::vector<double> json_us, blif_us, pla_us, run_novel_ms, run_repeat_ms,
      report_us;
  double layers_s = 0, first_pass_hits = 0;
  const auto t_replay = Clock::now();
  for (std::size_t k = 0; k < n; ++k) {
    auto t0 = Clock::now();
    const std::optional<obs::Json> req = obs::Json::parse(stream.lines[k]);
    double dt = seconds_since(t0);
    json_us.push_back(1e6 * dt);
    layers_s += dt;
    const obs::Json* circuit = req ? req->find("circuit") : nullptr;
    if (!circuit) {
      out.fail("replay r" + std::to_string(k) + ": request did not parse");
      continue;
    }
    SynthesisConfig cfg = base;
    if (const obs::Json* c = req->find("config"))
      cfg.seed = static_cast<std::uint64_t>(c->find("seed")->as_number());

    Network input;
    std::string name;
    if (const obs::Json* j = circuit->find("name")) {
      name = j->as_string();
      input = *circuits::make_benchmark(name);
    } else {
      const obs::Json* blif = circuit->find("blif");
      std::istringstream is((blif ? blif : circuit->find("pla"))->as_string());
      t0 = Clock::now();
      input = blif ? read_blif(is) : read_pla(is);
      dt = seconds_since(t0);
      (blif ? blif_us : pla_us).push_back(1e6 * dt);
      layers_s += dt;
      name = input.name();
    }

    const std::uint64_t hits0 = cache.stats().hits;
    Network mapped;
    t0 = Clock::now();
    const SynthesisSession::Outcome o = session.run_checked(input, cfg, mapped);
    dt = seconds_since(t0);
    layers_s += dt;
    (novel[k] ? run_novel_ms : run_repeat_ms).push_back(1e3 * dt);
    if (novel[k])
      first_pass_hits += static_cast<double>(cache.stats().hits - hits0);
    ++out.attempted;
    if (o.code != ErrorCode::ok || !o.report) {
      ++out.failed;
      out.fail("replay r" + std::to_string(k) + ": " + o.message);
      continue;
    }

    t0 = Clock::now();
    const std::string doc = build_run_report(name, cfg, *o.report).dump(-1);
    dt = seconds_since(t0);
    report_us.push_back(1e6 * dt);
    layers_s += dt;
    if (doc.empty() || o.report->flow.luts != answers[k].luts ||
        o.report->clbs.clbs != answers[k].clbs)
      out.fail("replay r" + std::to_string(k) +
               ": LUT/CLB counts differ from the served answer");
  }
  const double replay_s = seconds_since(t_replay);
  const NpnCache::Stats cs = cache.stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  const auto repeats = std::count(novel.begin(), novel.end(), false);
  out.add("json.parse_p50_us", median(json_us), "us");
  out.add("blif.parse_p50_us", median(blif_us), "us");
  out.add("pla.parse_p50_us", median(pla_us), "us");
  out.add("session.novel_p50_ms", median(run_novel_ms), "ms");
  out.add("session.repeat_p50_ms", median(run_repeat_ms), "ms");
  out.add("report.build_p50_us", median(report_us), "us");
  out.add("npn_cache.hit_rate",
          lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0, "frac");
  out.add("npn_cache.evictions", static_cast<double>(cs.evictions), "count");
  out.add("serve.repeat_share",
          static_cast<double>(repeats) / static_cast<double>(n), "frac");
  out.add("serve.first_pass_hits", first_pass_hits, "count");
  out.add("trace.overhead_ratio", replay_s / sequence_s, "ratio");
  out.add("trace.coverage", layers_s / replay_s, "frac");
}

}  // namespace perfbench
