#!/usr/bin/env python3
"""Checks that the benchmark's exact counts repeat, so claims can rest on them.

Run from the repository root (builds through run.py on first use; about five
minutes on a 4-core machine):

    python3 perfbench/test_exact.py

- varpart.candidates, lutflow.vectors, lutflow.lmax_rounds and
  miter.peak_nodes repeat exactly across runs and seeds of compile_t1, and
  npn_cache.hit_rate repeats exactly across runs of serve_mixed with one seed.
- luts and clbs on compile_t1 are 3281 and 2330, and identical across seeds
  of serve_mixed.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    doc = json.loads(out.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0, doc
    return {k: v["value"] for k, v in doc["metrics"].items()}


class ExactCounts(unittest.TestCase):
    def test_compile_layer_counts_repeat(self):
        keys = ("varpart.candidates", "lutflow.vectors", "lutflow.lmax_rounds",
                "miter.peak_nodes")
        runs = [run("compile_t1", seed, 1) for seed in (1, 1, 2)]
        for key in keys:
            self.assertGreater(runs[0][key], 0, key)
            self.assertEqual({r[key] for r in runs}, {runs[0][key]}, key)

    def test_compile_quality(self):
        m = run("compile_t1", 3, 0)
        self.assertEqual((m["luts"], m["clbs"]), (3281, 2330))
        self.assertEqual((m["ok_frac"], m["proven_frac"]), (1, 1))

    def test_serve_counts_repeat(self):
        a, b = run("serve_mixed", 1, 1), run("serve_mixed", 1, 1)
        self.assertGreater(a["npn_cache.hit_rate"], 0)
        self.assertEqual(a["npn_cache.hit_rate"], b["npn_cache.hit_rate"])
        self.assertEqual(a["serve.first_pass_hits"], b["serve.first_pass_hits"])
        q1, q2 = run("serve_mixed", 1, 0), run("serve_mixed", 2, 0)
        self.assertEqual((q1["luts"], q1["clbs"]), (q2["luts"], q2["clbs"]))


if __name__ == "__main__":
    unittest.main()
