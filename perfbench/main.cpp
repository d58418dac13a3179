// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload <compile_t1|serve_mixed> --seed <n>
//             --seconds <n> --trace <0|1>
//
// The amount of work in a run is a fixed function of --seconds and the
// workload (never of measured speed), and --seed only reorders it, so two
// builds run the identical sequence and quality counts repeat exactly.
// The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {"value","unit"}}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1 (perfbench/run.py adds the layers a workload never
// reaches). Integrity failures print to stderr, set "correct" false
// and make the exit code 1.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

/// Confine this process, and the threads it will start, to the highest CPU
/// it may run on. For the single-caller workloads only one thread is busy at
/// a time, and on a VM a wakeup across CPUs costs far more, and varies far
/// more, than the work of a small request.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <compile_t1|serve_mixed> "
               "--seed <n> --seconds <n> --trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = static_cast<unsigned>(std::stoul(v));
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage(argv[0]);
        args.trace = v == "1";
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!have_seconds || args.seconds == 0) return usage(argv[0]);

  perfbench::Result res;
  if (args.workload == "compile_t1") {
    pin_to_one_cpu();
    perfbench::run_compile(args, res);
  } else if (args.workload == "serve_mixed") {
    pin_to_one_cpu();  // the client and the server's worker take turns
    perfbench::run_serve(args, res);
  } else {
    return usage(argv[0]);
  }

  for (const std::string& e : res.errors)
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  imodec::obs::Json metrics = imodec::obs::Json::object();
  for (const auto& m : res.metrics) {
    imodec::obs::Json entry = imodec::obs::Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  imodec::obs::Json doc = imodec::obs::Json::object();
  doc["correct"] = res.correct;
  doc["attempted"] = res.attempted;
  doc["failed"] = res.failed;
  doc["metrics"] = std::move(metrics);
  std::printf("%s\n", doc.dump(-1).c_str());
  return res.correct ? 0 : 1;
}
