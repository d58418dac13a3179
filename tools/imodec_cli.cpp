// imodec — command-line front end to the synthesis pipeline (the role the
// IMODEC program plays inside TOS in the paper's §7).
//
// Usage:
//   imodec [options] <input.blif|input.pla|@circuit>
//
// Inputs: BLIF or PLA files (decided by extension, '.pla' vs anything else),
// or a built-in benchmark by name with a leading '@' (e.g. @rd84).
//
// Options:
//   -k <n>          LUT input count (default 5)
//   --threads <n>   execution width (0 = hardware concurrency, 1 = serial);
//                   results are identical at every width
//   --single        single-output decomposition baseline
//   --strict        strict codes (one code per compatibility class)
//   --classical     classical flow: kernel extraction + per-output mapping
//   --no-collapse   skip collapsing; restructure instead
//   --no-verify     skip the equivalence check
//   --verify-mode <off|sim|exact|auto>
//                   equivalence engine: sim = simulation (exhaustive <= 16
//                   inputs, sampled beyond), exact = BDD miter proof, auto
//                   (default) = miter within a node budget, else sim
//   --max-p <n>     global class cap
//   --bound <n>     bound-set size b
//   --seed <n>      bound-set sampling seed
//   --timeout-ms <n>     wall-clock deadline for the whole run (0 = none)
//   --node-budget <n>    live BDD-node budget per governed manager (0 = none)
//   --on-exhaustion <fail|degrade>
//                   fail (default): exit with code 4 (timeout) or 5
//                   (resource); degrade: walk the degradation ladder and
//                   still emit a complete, verified network
//   -o <file>       write the mapped network as BLIF
//   --stats         per-phase times, BDD cache behaviour and counters
//   --report <file> write the unified machine-readable run report (schema-
//                   versioned JSON: config echo, phase rollup, counters,
//                   histograms, kernel health, degradation, verify outcome,
//                   flight events); implies observability
//   --progress[=<ms>]    stderr heartbeat while the run is in flight (phase,
//                   elapsed, live nodes, budget/deadline margins); bare flag
//                   = every 1000 ms
//   --trace-json <file>    write the span tree + counters as JSON
//   --trace-chrome <file>  write a chrome://tracing / Perfetto event file
//   --list          list built-in benchmark names and exit
//
// Flags are collected into a SynthesisConfig and validated as a whole;
// invalid combinations print every diagnostic, not just the first.
//
// Exit codes (documented in README "Exit codes"):
//   0  success (network verified, or verification disabled)
//   1  verification failed, or an unclassified runtime error
//   2  usage / invalid configuration
//   3  malformed input file (ParseError; stderr names file and line)
//   4  wall-clock deadline exceeded with --on-exhaustion=fail
//   5  memory / node budget exhausted with --on-exhaustion=fail
//   6  terminal decomposition failure (defensive; the fallback ladder makes
//      this unreachable in normal operation)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "circuits/registry.hpp"
#include "logic/blif.hpp"
#include "logic/pla.hpp"
#include "map/errors.hpp"
#include "map/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/resource.hpp"

using namespace imodec;

namespace {

// Exit codes are the numeric values of imodec::ErrorCode (map/errors.hpp) —
// the same table the daemon's JSON error responses spell out by name.
constexpr int kExitOk = exit_code(ErrorCode::ok);
constexpr int kExitFail = exit_code(ErrorCode::verify_failed);
constexpr int kExitUsage = exit_code(ErrorCode::usage);
constexpr int kExitParse = exit_code(ErrorCode::parse);
constexpr int kExitTimeout = exit_code(ErrorCode::timeout);
constexpr int kExitResource = exit_code(ErrorCode::resource);
constexpr int kExitDecompose = exit_code(ErrorCode::decompose);

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-k n] [--threads n] [--single] [--strict] "
               "[--no-collapse] [--no-verify] [--verify-mode m] [--max-p n] "
               "[--bound n] [--seed n] [--timeout-ms n] [--node-budget n] "
               "[--on-exhaustion fail|degrade] [--stats] [--report f] "
               "[--progress[=ms]] [--trace-json f] "
               "[--trace-chrome f] [-o out.blif] <input.blif|input.pla|@name>\n"
               "       %s --list\n",
               argv0, argv0);
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  SynthesisConfig cfg;
  std::string input;
  std::string output;
  bool stats = false;
  std::string trace_json_path;
  std::string trace_chrome_path;

  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-k" && i + 1 < argc) {
      cfg.k = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      cfg.threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--max-p" && i + 1 < argc) {
      cfg.max_p = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--bound" && i + 1 < argc) {
      cfg.bound_size = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      cfg.seed = std::stoull(argv[++i]);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      cfg.timeout_ms = std::stoull(argv[++i]);
    } else if (arg == "--node-budget" && i + 1 < argc) {
      cfg.node_budget = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else if (arg == "--on-exhaustion" && i + 1 < argc) {
      const auto policy = parse_on_exhaustion(argv[++i]);
      if (!policy) {
        std::fprintf(stderr,
                     "imodec: bad --on-exhaustion '%s' (fail|degrade)\n",
                     argv[i]);
        return usage(argv[0]);
      }
      cfg.on_exhaustion = *policy;
    } else if (arg == "--single") {
      cfg.multi_output = false;
    } else if (arg == "--strict") {
      cfg.strict = true;
    } else if (arg == "--classical") {
      cfg.classical = true;
    } else if (arg == "--no-collapse") {
      cfg.collapse = false;
    } else if (arg == "--no-verify") {
      cfg.verify = VerifyMode::off;
    } else if (arg == "--verify-mode" && i + 1 < argc) {
      const auto mode = parse_verify_mode(argv[++i]);
      if (!mode) {
        std::fprintf(stderr,
                     "imodec: bad --verify-mode '%s' (off|sim|exact|auto)\n",
                     argv[i]);
        return usage(argv[0]);
      }
      cfg.verify = *mode;
    } else if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--report" && i + 1 < argc) {
      cfg.report_path = argv[++i];
    } else if (arg == "--progress") {
      cfg.progress_ms = 1000;
    } else if (arg.rfind("--progress=", 0) == 0) {
      cfg.progress_ms = std::stoull(arg.substr(std::strlen("--progress=")));
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace_json_path = argv[++i];
    } else if (arg == "--trace-chrome" && i + 1 < argc) {
      trace_chrome_path = argv[++i];
    } else if (arg == "--list") {
      for (const auto& name : circuits::benchmark_names())
        std::printf("%s\n", name.c_str());
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      input = arg;
    }
  }
  } catch (const std::exception&) {
    std::fprintf(stderr, "imodec: malformed numeric argument\n");
    return usage(argv[0]);
  }
  if (input.empty()) return usage(argv[0]);

  // Validate the whole configuration up front: the user sees every problem
  // as a readable diagnostic instead of an assertion deep in the pipeline.
  if (const auto diags = cfg.validate(); !diags.empty()) {
    for (const auto& d : diags)
      std::fprintf(stderr, "imodec: invalid configuration: %s\n", d.c_str());
    return kExitUsage;
  }

  Network net;
  try {
    if (input[0] == '@') {
      const auto bench = circuits::make_benchmark(input.substr(1));
      if (!bench) {
        std::fprintf(stderr, "imodec: unknown benchmark '%s' (try --list)\n",
                     input.c_str() + 1);
        return kExitFail;
      }
      net = *bench;
    } else if (ends_with(input, ".pla")) {
      net = read_pla_file(input);
    } else {
      net = read_blif_file(input);
    }
  } catch (const ParseError& e) {
    // e.what() already carries "<FORMAT> line N: ..."; prefix the file.
    std::fprintf(stderr, "imodec: %s: %s\n", input.c_str(), e.what());
    return kExitParse;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "imodec: %s\n", e.what());
    return kExitFail;
  }

  // Any observability output requested -> record spans and counters.
  // (--report also enables observability, inside SynthesisSession.)
  const bool observe = stats || !trace_json_path.empty() ||
                       !trace_chrome_path.empty() || !cfg.report_path.empty();
  if (observe) obs::set_enabled(true);

  // The run report's "circuit" field comes from the network name; fall back
  // to the input path when the file didn't carry a model name.
  if (net.name().empty()) net.set_name(input);

  SynthesisSession session(cfg);
  Network mapped;
  DriverReport rep;
  try {
    rep = session.run(net, mapped);
  } catch (const util::Timeout& e) {
    std::fprintf(stderr,
                 "imodec: timeout: %s (deadline %llu ms; retry with "
                 "--on-exhaustion degrade for a partial-quality result)\n",
                 e.what(),
                 static_cast<unsigned long long>(cfg.timeout_ms));
    return kExitTimeout;
  } catch (const util::ResourceExhausted& e) {
    std::fprintf(stderr,
                 "imodec: resource exhausted: %s (%s; retry with "
                 "--on-exhaustion degrade for a partial-quality result)\n",
                 e.what(), util::to_string(e.kind()));
    return kExitResource;
  } catch (const std::exception& e) {
    // The flow's Shannon fallback makes a terminal decomposition failure
    // unreachable; this arm is defensive (exit code 6, documented).
    std::fprintf(stderr, "imodec: decomposition failed: %s\n", e.what());
    return kExitDecompose;
  }
  // The trace files export the run's own spans and metrics.
  const std::vector<obs::Span> spans = rep.spans;
  const std::shared_ptr<const obs::Registry> metrics = rep.metrics;
  if (!stats) {
    // Tracing without --stats: keep the report compact.
    rep.spans.clear();
    rep.metrics.reset();
  }
  std::fputs(format_report(net.name().empty() ? input : net.name(), rep)
                 .c_str(),
             stdout);
  // The session wrote the run report during run(); confirm like -o does.
  if (!cfg.report_path.empty())
    std::printf("wrote %s\n", cfg.report_path.c_str());

  if (observe) {
    bool write_failed = false;
    if (!trace_json_path.empty()) {
      obs::Json doc = obs::Json::object();
      doc["trace"] = obs::trace_json(spans);
      doc["metrics"] = metrics->to_json();
      if (obs::write_json_file(trace_json_path, doc)) {
        std::printf("wrote %s\n", trace_json_path.c_str());
      } else {
        std::fprintf(stderr, "imodec: cannot write %s\n",
                     trace_json_path.c_str());
        write_failed = true;
      }
    }
    if (!trace_chrome_path.empty()) {
      if (obs::write_json_file(trace_chrome_path,
                               obs::trace_chrome_json(spans))) {
        std::printf("wrote %s\n", trace_chrome_path.c_str());
      } else {
        std::fprintf(stderr, "imodec: cannot write %s\n",
                     trace_chrome_path.c_str());
        write_failed = true;
      }
    }
    if (write_failed) return kExitFail;
  }

  if (!output.empty()) {
    try {
      write_blif_file(output, mapped);
      std::printf("wrote %s\n", output.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "imodec: %s\n", e.what());
      return kExitFail;
    }
  }
  return rep.verified ? kExitOk : kExitFail;
}
