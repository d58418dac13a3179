#!/usr/bin/env python3
"""Build and run the imodec benchmark (see BENCHMARK.json).

Usage, from the repository root:

    python3 perfbench/run.py --workload <compile_t1|serve_mixed>
                             --seed <n> --seconds <n> --trace <0|1>

Builds perfbench/ (a CMake package over ../src) into .bench_build/perfbench
in Release mode, then runs the perfbench binary with the same arguments.
The binary does the measuring and integrity checks; its last stdout line is
the result object. This script checks that object against BENCHMARK.json:
every metric must be declared there with the same unit, a --trace 0 run must
report every end-to-end metric, and a per-layer metric that the workload's
traced calls never reach is reported as 0. Build output goes to stderr so
that stdout carries only the benchmark's own lines.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile_t1", "serve_mixed")
# Leave headroom under the per-run limit for the measured work itself.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    return args


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: imodec sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def complete(result, trace):
    """Check `result` against BENCHMARK.json; fill unreached layers with 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            sys.exit("perfbench: metric %s (%s) is not declared with that "
                     "unit in BENCHMARK.json" % (name, m["unit"]))
    missing = [n for n in units if n not in metrics]
    if missing and not trace:
        sys.exit("perfbench: end-to-end metrics missing: " + ", ".join(missing))
    result["metrics"] = {n: metrics.get(n, {"value": 0, "unit": units[n]})
                         for n in units}
    return result


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        sys.exit("perfbench: run failed with exit code %d" % r.returncode)
    result = complete(json.loads(lines[-1]), args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
