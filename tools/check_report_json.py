#!/usr/bin/env python3
"""Validate a unified run report (imodec_cli --report / SynthesisConfig::
report_path, written by src/map/report.cpp).

Schema (version 2), top level:

  {
    "report": "imodec_run",        # required, literal
    "schema_version": 2,           # required
    "circuit": "<name>",           # required, non-empty string
    "config": { ... },             # required, config echo (typed spot checks)
    "result": { ... },             # required, run outcome
    "degrade": { ... },            # required, degradation record
    "phases": [ ... ],             # required, span rollup tree with one
                                   #   root: driver.run_synthesis, calls 1
    "counters": { name: n, ... },  # required, non-negative numbers
    "gauges": { name: {"value","max"}, ... },
    "histograms": { name: {"count","sum","max","p50","p90","p99"}, ... },
    "kernel": { "bdd": {...}, "miter.bdd": {...} },  # prefixes optional
    "flight": {"recorded": n, "capacity": n, "events": [ ... ]}
  }

Adding keys is schema-compatible and ignored here; missing or mistyped
required keys fail. A report describes one run and nothing else (see
check_run_scope): one phase root, counters["driver.runs"] == 1,
counters["flow.luts"] == result.luts, and flight phase ordinals 1..k in
order. `--require-hist NAME` (repeatable) additionally asserts
that histogram NAME exists with count > 0 — the report smoke uses it to pin
that the varpart/engine/GC/miter instrumentation actually fired.

Exit codes: 0 OK, 1 validation failure, 2 usage.
"""

import argparse
import json
import sys

NUMBER = (int, float)


class Fail(Exception):
    pass


def need(obj, key, types, where, nonneg=False):
    if key not in obj:
        raise Fail(f"{where}: missing '{key}'")
    value = obj[key]
    # bool is an int subclass in Python; only accept it when asked for.
    if types is not bool and isinstance(value, bool):
        raise Fail(f"{where}: '{key}' should not be a bool")
    if not isinstance(value, types):
        raise Fail(f"{where}: '{key}' has wrong type "
                   f"({type(value).__name__})")
    if nonneg and isinstance(value, NUMBER) and value < 0:
        raise Fail(f"{where}: '{key}' is negative ({value})")
    return value


def check_phases(nodes, where):
    if not isinstance(nodes, list):
        raise Fail(f"{where}: not an array")
    for i, node in enumerate(nodes):
        w = f"{where}[{i}]"
        if not isinstance(node, dict):
            raise Fail(f"{w}: not an object")
        need(node, "name", str, w)
        need(node, "total_ms", NUMBER, w, nonneg=True)
        need(node, "calls", NUMBER, w, nonneg=True)
        check_phases(need(node, "children", list, w), f"{w}.children")


def check_one_run(phases, where):
    """A report's phases hold its own run and nothing else: one root,
    `driver.run_synthesis`, entered once."""
    roots = [(n.get("name"), n.get("calls")) for n in phases]
    if roots != [("driver.run_synthesis", 1)]:
        raise Fail(f"{where}: roots {roots}, expected one "
                   "driver.run_synthesis with calls == 1")


def check_run_scope(counters, result, flight, where):
    """Counters and flight events belong to this report's run alone: the run
    counted itself once, its LUT counter matches its result, and its flight
    phase ordinals run 1, 2, ..., k in order. A ring that wrapped (recorded >
    capacity) lost its oldest events, so there they need only be
    consecutive."""
    runs = counters.get("driver.runs")
    if runs != 1:
        raise Fail(f"{where}: counters['driver.runs'] is {runs!r}, "
                   "expected 1 (the report's own run)")
    luts = counters.get("flow.luts")
    if luts != result.get("luts"):
        raise Fail(f"{where}: counters['flow.luts'] is {luts!r}, "
                   f"result.luts is {result.get('luts')!r}")
    ords = [ev.get("a") for ev in need(flight, "events", list, where)
            if isinstance(ev, dict) and ev.get("kind") == "phase"]
    wrapped = (need(flight, "recorded", NUMBER, where) >
               need(flight, "capacity", NUMBER, where))
    first = ords[0] if ords and wrapped and type(ords[0]) is int else 1
    if ords != list(range(first, first + len(ords))):
        raise Fail(f"{where}: flight phase ordinals {ords} do not run "
                   "1..k in order")


def check_histogram_summary(name, s):
    where = f"histograms[{name}]"
    if not isinstance(s, dict):
        raise Fail(f"{where}: not an object")
    for key in ("count", "sum", "max", "p50", "p90", "p99"):
        need(s, key, NUMBER, where, nonneg=True)
    if s["count"] > 0 and not s["p50"] <= s["p90"] <= s["p99"]:
        raise Fail(f"{where}: quantiles not monotone "
                   f"(p50={s['p50']}, p90={s['p90']}, p99={s['p99']})")


def check_kernel(name, k):
    where = f"kernel[{name}]"
    if not isinstance(k, dict):
        raise Fail(f"{where}: not an object")
    need(k, "nodes_allocated", NUMBER, where, nonneg=True)
    need(k, "peak_live_nodes", NUMBER, where, nonneg=True)
    load = need(k, "unique_load_factor", NUMBER, where, nonneg=True)
    if load > 1.0:
        raise Fail(f"{where}: unique_load_factor > 1 ({load})")
    need(k, "peak_arena_bytes", NUMBER, where, nonneg=True)
    need(k, "gc_runs", NUMBER, where, nonneg=True)
    cache = need(k, "cache", dict, where)
    for op, r in cache.items():
        w = f"{where}.cache[{op}]"
        if not isinstance(r, dict):
            raise Fail(f"{w}: not an object")
        need(r, "lookups", NUMBER, w, nonneg=True)
        hits = need(r, "hits", NUMBER, w, nonneg=True)
        rate = need(r, "hit_rate", NUMBER, w, nonneg=True)
        if hits > r["lookups"]:
            raise Fail(f"{w}: hits > lookups")
        if rate > 1.0:
            raise Fail(f"{w}: hit_rate > 1 ({rate})")


def check_flight(flight):
    where = "flight"
    if not isinstance(flight, dict):
        raise Fail(f"{where}: not an object")
    recorded = need(flight, "recorded", NUMBER, where, nonneg=True)
    capacity = need(flight, "capacity", NUMBER, where, nonneg=True)
    events = need(flight, "events", list, where)
    if len(events) > capacity:
        raise Fail(f"{where}: more events than capacity "
                   f"({len(events)} > {capacity})")
    if len(events) > recorded:
        raise Fail(f"{where}: more events than recorded "
                   f"({len(events)} > {recorded})")
    kinds = {"phase", "rung", "gc", "guard", "cache", "trip"}
    for i, ev in enumerate(events):
        w = f"{where}.events[{i}]"
        if not isinstance(ev, dict):
            raise Fail(f"{w}: not an object")
        need(ev, "t_ms", NUMBER, w, nonneg=True)
        kind = need(ev, "kind", str, w)
        if kind not in kinds:
            raise Fail(f"{w}: unknown kind '{kind}'")
        need(ev, "what", str, w)
        for key in ("a", "b", "c"):
            need(ev, key, NUMBER, w, nonneg=True)


def check_report(doc, require_hists):
    if not isinstance(doc, dict):
        raise Fail("top level is not an object")
    if doc.get("report") != "imodec_run":
        raise Fail(f"'report' is not \"imodec_run\" ({doc.get('report')!r})")
    sv = doc.get("schema_version")
    if isinstance(sv, bool) or not isinstance(sv, NUMBER) or sv != 2:
        raise Fail(f"unsupported schema_version {sv!r}")
    circuit = need(doc, "circuit", str, "top level")
    if not circuit:
        raise Fail("'circuit' is empty")

    config = need(doc, "config", dict, "top level")
    for key in ("k", "bound_size", "max_p", "timeout_ms", "node_budget"):
        need(config, key, NUMBER, "config", nonneg=True)
    for key in ("verify", "on_exhaustion"):
        need(config, key, str, "config")
    need(config, "result_cache", bool, "config")

    result = need(doc, "result", dict, "top level")
    for key in ("luts", "clbs", "depth", "vectors", "flow_seconds"):
        need(result, key, NUMBER, "result", nonneg=True)
    for key in ("collapsed", "verified", "verified_exhaustive",
                "verify_proven"):
        need(result, key, bool, "result")
    need(result, "verify_mode", str, "result")

    degrade = need(doc, "degrade", dict, "top level")
    need(degrade, "degraded", bool, "degrade")
    for key in ("engine_exhausted", "single_fallbacks", "shannon_degrades",
                "drained"):
        need(degrade, key, NUMBER, "degrade", nonneg=True)
    if not isinstance(degrade.get("events"), list):
        raise Fail("degrade: missing or non-array 'events'")

    phases = need(doc, "phases", list, "top level")
    check_phases(phases, "phases")
    check_one_run(phases, "phases")

    counters = need(doc, "counters", dict, "top level")
    for name, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, NUMBER) \
                or value < 0:
            raise Fail(f"counters[{name}]: not a non-negative number")

    gauges = need(doc, "gauges", dict, "top level")
    for name, g in gauges.items():
        if not isinstance(g, dict):
            raise Fail(f"gauges[{name}]: not an object")
        need(g, "value", NUMBER, f"gauges[{name}]")
        need(g, "max", NUMBER, f"gauges[{name}]")

    hists = need(doc, "histograms", dict, "top level")
    for name, s in hists.items():
        check_histogram_summary(name, s)

    kernel = need(doc, "kernel", dict, "top level")
    for name, k in kernel.items():
        check_kernel(name, k)

    flight = need(doc, "flight", dict, "top level")
    check_flight(flight)
    check_run_scope(counters, result, flight, "top level")

    for name in require_hists:
        if name not in hists:
            raise Fail(f"required histogram '{name}' is missing")
        if hists[name]["count"] <= 0:
            raise Fail(f"required histogram '{name}' is empty")
    return circuit


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("paths", nargs="+", metavar="report.json")
    ap.add_argument("--require-hist", action="append", default=[],
                    metavar="NAME",
                    help="assert histogram NAME exists with count > 0 "
                         "(repeatable)")
    args = ap.parse_args(argv[1:])
    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"check_report_json: {path}: {e}", file=sys.stderr)
            return 1
        try:
            circuit = check_report(doc, args.require_hist)
        except Fail as e:
            print(f"check_report_json: {path}: {e}", file=sys.stderr)
            return 1
        print(f"check_report_json: {path}: OK (circuit={circuit}, "
              f"{len(doc['histograms'])} histograms, "
              f"{len(doc['flight']['events'])} flight events)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
