#include "verify/fuzz.hpp"

#include <deque>
#include <filesystem>
#include <fstream>

#include "logic/simulate.hpp"
#include "map/session.hpp"
#include "util/strings.hpp"
#include "verify/miter.hpp"
#include "verify/shrink.hpp"

namespace imodec::verify {
namespace {

/// Run one synthesis at the given width; verification is the fuzzer's job,
/// so the driver's own check is off.
DriverReport synth(const Network& net, const SynthesisConfig& cfg,
                   unsigned threads, Network& mapped) {
  SynthesisConfig c = cfg;
  c.threads = threads;
  c.verify = VerifyMode::off;
  return run_synthesis(net, c, mapped);
}

/// Correctness check: miter first, exhaustive/sampled simulation when the
/// miter blows the budget (generated cases are small, so in practice the
/// miter always decides).
bool equivalent_to_input(const Network& input, const Network& mapped,
                         std::size_t node_budget) {
  MiterOptions mopts;
  mopts.node_budget = node_budget;
  const MiterResult mr = check_miter(input, mapped, mopts);
  if (mr.proven) return mr.equivalent;
  return check_equivalence(input, mapped).equivalent;
}

bool case_fails_miter(const FuzzCase& c, const SynthesisConfig& cfg,
                      std::size_t node_budget) {
  const Network net = c.to_network();
  Network mapped;
  synth(net, cfg, 1, mapped);
  return !equivalent_to_input(net, mapped, node_budget);
}

/// The 8-wide side of the determinism check: a session with the result
/// cache on, so one comparison covers both width and cache independence.
SynthesisConfig cached_wide(const SynthesisConfig& cfg) {
  SynthesisConfig c = cfg;
  c.verify = VerifyMode::off;
  c.threads = 8;
  c.result_cache = true;
  return c;
}

bool case_fails_determinism(const FuzzCase& c, const SynthesisConfig& cfg) {
  const Network net = c.to_network();
  Network serial, cold, warm;
  synth(net, cfg, 1, serial);
  SynthesisSession session(cached_wide(cfg));
  session.run(net, cold);
  session.run(net, warm);
  return !structurally_equal(serial, cold) || !structurally_equal(serial, warm);
}

void write_repro(const FuzzOptions& opts, FuzzFailure& fail) {
  if (opts.out_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string base =
      strprintf("%s/case%zu-%s-%s", opts.out_dir.c_str(), fail.case_index,
                fail.config_label.c_str(), fail.kind.c_str());
  if (!write_pla_file(base + ".pla", fail.shrunk)) return;
  std::ofstream txt(base + ".txt");
  txt << strprintf(
      "kind: %s\nconfig: %s\ncase: %zu\nseed: 0x%llx\n"
      "original: %u inputs, %zu outputs, %zu cubes\n"
      "shrunk: %u inputs, %zu outputs, %zu cubes\n",
      fail.kind.c_str(), fail.config_label.c_str(), fail.case_index,
      static_cast<unsigned long long>(fail.case_seed),
      fail.original.num_inputs, fail.original.num_outputs(),
      fail.original.total_cubes(), fail.shrunk.num_inputs,
      fail.shrunk.num_outputs(), fail.shrunk.total_cubes());
  fail.repro_path = base + ".pla";
}

}  // namespace

std::vector<FuzzConfig> default_fuzz_configs() {
  std::vector<FuzzConfig> configs;
  {
    FuzzConfig c;
    c.label = "k5";
    configs.push_back(c);
  }
  {
    FuzzConfig c;
    c.label = "k4-strict";
    c.cfg.k = 4;
    c.cfg.bound_size = 4;
    c.cfg.strict = true;
    configs.push_back(c);
  }
  {
    // max_p = 2 makes p_overflow routine: the DecomposeError recovery path
    // (Shannon fallback / smaller vectors) carries most of the work.
    FuzzConfig c;
    c.label = "p2-errors";
    c.cfg.max_p = 2;
    configs.push_back(c);
  }
  {
    FuzzConfig c;
    c.label = "single-nocollapse";
    c.cfg.multi_output = false;
    c.cfg.collapse = false;
    configs.push_back(c);
  }
  return configs;
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  FuzzReport rep;
  const std::vector<FuzzConfig> configs =
      opts.configs.empty() ? default_fuzz_configs() : opts.configs;

  // One serial and one 8-wide session per config: pools are created once
  // and amortized over every case (the whole point of the session API). The
  // 8-wide session also keeps its result cache warm across cases.
  // deque because sessions own their pool and are not movable.
  std::deque<SynthesisSession> serial_sessions, parallel_sessions;
  for (const FuzzConfig& fc : configs) {
    SynthesisConfig c = fc.cfg;
    c.verify = VerifyMode::off;
    c.threads = 1;
    c.result_cache = false;
    serial_sessions.emplace_back(c);
    parallel_sessions.emplace_back(cached_wide(fc.cfg));
  }

  Rng top(opts.seed);
  for (std::size_t i = 0; i < opts.cases; ++i) {
    const std::uint64_t case_seed = top.next();
    Rng case_rng(case_seed);
    FuzzCase c = random_case(case_rng, opts.gen);
    c.name = strprintf("fuzz%zu", i);
    const Network net = c.to_network();
    ++rep.cases;

    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const FuzzConfig& fc = configs[ci];
      Network serial, parallel;
      const DriverReport r1 = serial_sessions[ci].run(net, serial);
      const DriverReport r8 = parallel_sessions[ci].run(net, parallel);
      rep.decompose_errors +=
          r1.flow.total_errors() + r8.flow.total_errors();

      std::string kind;
      if (!equivalent_to_input(net, serial, opts.miter_node_budget)) {
        kind = "miter";
      } else if (!structurally_equal(serial, parallel)) {
        kind = "determinism";
      }
      rep.checks += 2;
      if (kind.empty()) continue;

      FuzzFailure fail;
      fail.case_index = i;
      fail.case_seed = case_seed;
      fail.config_label = fc.label;
      fail.kind = kind;
      fail.original = c;
      fail.shrunk = c;
      if (opts.shrink) {
        const SynthesisConfig cfg = fc.cfg;
        const std::size_t budget = opts.miter_node_budget;
        const FailPredicate pred =
            kind == "miter"
                ? FailPredicate([cfg, budget](const FuzzCase& cand) {
                    return case_fails_miter(cand, cfg, budget);
                  })
                : FailPredicate([cfg](const FuzzCase& cand) {
                    return case_fails_determinism(cand, cfg);
                  });
        fail.shrunk = shrink_case(c, pred);
      }
      write_repro(opts, fail);
      rep.failures.push_back(std::move(fail));
      if (rep.failures.size() >= opts.max_failures) return rep;
    }
  }
  return rep;
}

std::string format_fuzz_report(const FuzzReport& rep) {
  std::string s =
      strprintf("fuzz: %zu cases, %zu checks, %zu DecomposeError fallbacks "
                "exercised, %zu failure(s)\n",
                rep.cases, rep.checks, rep.decompose_errors,
                rep.failures.size());
  for (const FuzzFailure& f : rep.failures) {
    s += strprintf(
        "  FAIL case %zu [%s/%s] seed=0x%llx: shrunk %u->%u inputs, "
        "%zu->%zu outputs, %zu->%zu cubes%s%s\n",
        f.case_index, f.config_label.c_str(), f.kind.c_str(),
        static_cast<unsigned long long>(f.case_seed), f.original.num_inputs,
        f.shrunk.num_inputs, f.original.num_outputs(), f.shrunk.num_outputs(),
        f.original.total_cubes(), f.shrunk.total_cubes(),
        f.repro_path.empty() ? "" : ", repro: ",
        f.repro_path.c_str());
  }
  return s;
}

}  // namespace imodec::verify
