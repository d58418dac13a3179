#!/usr/bin/env python3
"""Validate imodec_served wire traffic (src/map/serve.hpp, wire schema 2).

Input files are JSON-lines transcripts: one request or response document per
line. `--mode request` validates the client->daemon direction, `--mode
response` the daemon->client direction, `--mode supervisor` the structured
stderr records ({"imodec_supervisor"}, {"imodec_crash"}, {"imodec_flight"});
`--mode auto` (default) decides per line — supervisor records by their
distinctive single key, responses by the response-only "ok" key, requests
otherwise — so a mixed transcript validates in one pass.

Request (versions 1-2; version 2 adds the control form):

  {
    "schema_version": 1|2,           # required
    "id": "<non-empty string>",      # required
    "circuit": {                     # required: exactly one of
      "name": "<registry circuit>",  #   benchmark registry name
      "blif": "<inline text>",       #   inline BLIF
      "pla": "<inline text>"         #   inline PLA
    },
    "config": { ... },               # optional per-request overrides
    "fault": {"kind": k, "at": n}    # optional (fault-injection builds)
  }

  {
    "schema_version": 2,             # control verbs are v2-only
    "id": "<non-empty string>",
    "control": "health|stats|drain"  # answered inline by serve::Server,
  }                                  # never queued — works under overload

Unlike the run report (additive keys allowed), the request schema is CLOSED:
the daemon rejects unknown fields anywhere with a typed `usage` error, and
this checker mirrors that, so transcripts that would be rejected on the wire
also fail here. Allowed config keys and fault kinds are listed below.

Response (version 2 stamped on every response; v1 transcripts still pass):

  {
    "schema_version": 1|2,           # required
    "id": "<string>",                # echoes the request (may be "" when the
                                     # request's id was unreadable)
    "ok": true|false,                # required
    "code": "<ErrorCode spelling>",  # required; "ok" iff ok is true
    "error": {"code", "message"},    # required iff not ok; code "overloaded"
                                     # additionally requires retry_after_ms
                                     # (the client's backoff hint)
    "report": { ... },               # unified run report when one was built
                                     # (always on circuit ok; also on
                                     # verify_failed)
    "control": "<verb>",             # control responses only: the verb,
    "status": { ... }                #   plus a status object, no report
  }

Response "report" contents are spot-checked (full validation is
check_report_json.py's job), including the one-run rule: "phases" has exactly
one root, driver.run_synthesis with calls == 1, and the counters and flight
events are the run's own (check_report_json.check_run_scope); extra
response keys are allowed (the daemon may add fields compatibly).

Supervisor/crash records (imodec_served stderr, one JSON line each):

  {"imodec_supervisor": {"event": "restart|exit|give_up",
                         "restarts": n, "uptime_ms": n, ...}}
  {"imodec_crash": {"signal": n, "signal_name": s, "completed_requests": n}}
  {"imodec_flight": {"recorded": n, "capacity": n, "events": [...]}}

Exit codes: 0 OK, 1 validation failure, 2 usage.
"""

import argparse
import json
import sys

from check_report_json import Fail, check_run_scope

NUMBER = (int, float)

ERROR_CODES = {"ok", "verify_failed", "usage", "parse", "timeout", "resource",
               "decompose", "overloaded"}

CONTROL_VERBS = {"health", "stats", "drain"}

SUPERVISOR_EVENTS = {"restart", "exit", "give_up"}

CONFIG_KEYS = {
    "k": NUMBER,
    "multi_output": bool,
    "strict": bool,
    "classical": bool,
    "collapse": bool,
    "result_cache": bool,
    "max_p": NUMBER,
    "bound_size": NUMBER,
    "seed": NUMBER,
    "timeout_ms": NUMBER,
    "node_budget": NUMBER,
    "batch_groups": NUMBER,
    "verify": str,
    "on_exhaustion": str,
}

FAULT_KINDS = {"bad_alloc", "deadline", "node_budget", "cancel"}


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


def check_version(doc, where):
    sv = doc.get("schema_version")
    if isinstance(sv, bool) or not isinstance(sv, NUMBER) or sv not in (1, 2):
        raise Fail(f"{where}: unsupported schema_version {sv!r}")
    return sv


def check_request(doc):
    if not isinstance(doc, dict):
        raise Fail("request is not an object")
    sv = check_version(doc, "request")

    if "control" in doc:
        # Control form: closed to exactly these three fields, v2-only.
        if sv != 2:
            raise Fail(f"request: control verbs need schema_version 2 "
                       f"(got {sv})")
        for key in doc:
            if key not in ("schema_version", "id", "control"):
                raise Fail(f"request: unknown field '{key}' in a control "
                           f"request")
        if not need(doc, "id", str, "request"):
            raise Fail("request: 'id' is empty")
        verb = need(doc, "control", str, "request")
        if verb not in CONTROL_VERBS:
            raise Fail(f"request: unknown control verb '{verb}'")
        return "request"

    for key in doc:
        if key not in ("schema_version", "id", "circuit", "config", "fault"):
            raise Fail(f"request: unknown field '{key}'")
    if not need(doc, "id", str, "request"):
        raise Fail("request: 'id' is empty")

    circuit = need(doc, "circuit", dict, "request")
    sources = []
    for key, value in circuit.items():
        if key not in ("name", "blif", "pla"):
            raise Fail(f"circuit: unknown field '{key}'")
        if isinstance(value, bool) or not isinstance(value, str):
            raise Fail(f"circuit: '{key}' is not a string")
        if value:
            sources.append(key)
    if len(sources) != 1:
        raise Fail(f"circuit: needs exactly one of name/blif/pla "
                   f"(got {sources or 'none'})")

    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise Fail("request: 'config' is not an object")
    for key, value in config.items():
        if key not in CONFIG_KEYS:
            raise Fail(f"config: unknown key '{key}'")
        want = CONFIG_KEYS[key]
        if want is not bool and isinstance(value, bool):
            raise Fail(f"config: '{key}' should not be a bool")
        if not isinstance(value, want):
            raise Fail(f"config: '{key}' has wrong type "
                       f"({type(value).__name__})")

    if "fault" in doc:
        fault = need(doc, "fault", dict, "request")
        for key in fault:
            if key not in ("kind", "at"):
                raise Fail(f"fault: unknown field '{key}'")
        kind = need(fault, "kind", str, "fault")
        if kind not in FAULT_KINDS:
            raise Fail(f"fault: unknown kind '{kind}'")
        if "at" in fault:
            need(fault, "at", NUMBER, "fault", nonneg=True)
    return "request"


def check_response(doc):
    if not isinstance(doc, dict):
        raise Fail("response is not an object")
    sv = check_version(doc, "response")
    need(doc, "id", str, "response")
    ok = need(doc, "ok", bool, "response")
    code = need(doc, "code", str, "response")
    if code not in ERROR_CODES:
        raise Fail(f"response: unknown code '{code}'")
    if ok != (code == "ok"):
        raise Fail(f"response: ok={ok} inconsistent with code '{code}'")

    if "control" in doc:
        # Control responses: v2, a status object instead of a run report.
        if sv != 2:
            raise Fail(f"response: control response needs schema_version 2 "
                       f"(got {sv})")
        verb = need(doc, "control", str, "response")
        if verb not in CONTROL_VERBS:
            raise Fail(f"response: unknown control verb '{verb}'")
        if "report" in doc:
            raise Fail("response: control response with a 'report'")
        if ok:
            need(doc, "status", dict, "response")

    if ok:
        if "error" in doc:
            raise Fail("response: ok with an 'error' object")
        if "report" not in doc and "control" not in doc:
            raise Fail("response: ok without a 'report'")
    else:
        error = need(doc, "error", dict, "response")
        ecode = need(error, "code", str, "response.error")
        if ecode != code:
            raise Fail(f"response: error.code '{ecode}' != code '{code}'")
        need(error, "message", str, "response.error")
        if code == "overloaded":
            need(error, "retry_after_ms", NUMBER, "response.error",
                 nonneg=True)
    if "report" in doc:
        report = need(doc, "report", dict, "response")
        # Spot checks only; check_report_json.py owns the full schema.
        if report.get("report") != "imodec_run":
            raise Fail("response.report: not an imodec_run document")
        need(report, "circuit", str, "response.report")
        need(report, "result", dict, "response.report")
        # One run per report: a foreign run's spans must never leak in.
        phases = need(report, "phases", list, "response.report")
        roots = [(n.get("name"), n.get("calls")) if isinstance(n, dict)
                 else n for n in phases]
        if roots != [("driver.run_synthesis", 1)]:
            raise Fail(f"response.report.phases: roots {roots}, expected "
                       "one driver.run_synthesis with calls == 1")
        # ...and neither may its counters or flight events.
        check_run_scope(need(report, "counters", dict, "response.report"),
                        report["result"],
                        need(report, "flight", dict, "response.report"),
                        "response.report")
    return "response"


def check_supervisor(doc):
    """Structured stderr records from imodec_served: supervisor lifecycle,
    the crash last-gasp line, and the fatal-signal flight dump."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise Fail("supervisor record is not a single-key object")
    if "imodec_supervisor" in doc:
        body = need(doc, "imodec_supervisor", dict, "supervisor")
        event = need(body, "event", str, "imodec_supervisor")
        if event not in SUPERVISOR_EVENTS:
            raise Fail(f"imodec_supervisor: unknown event '{event}'")
        need(body, "restarts", NUMBER, "imodec_supervisor", nonneg=True)
        need(body, "uptime_ms", NUMBER, "imodec_supervisor", nonneg=True)
        if "signal" in body:
            need(body, "signal", NUMBER, "imodec_supervisor", nonneg=True)
            need(body, "signal_name", str, "imodec_supervisor")
        if "backoff_ms" in body:
            need(body, "backoff_ms", NUMBER, "imodec_supervisor",
                 nonneg=True)
    elif "imodec_crash" in doc:
        body = need(doc, "imodec_crash", dict, "crash")
        need(body, "signal", NUMBER, "imodec_crash", nonneg=True)
        need(body, "signal_name", str, "imodec_crash")
        need(body, "completed_requests", NUMBER, "imodec_crash", nonneg=True)
    elif "imodec_flight" in doc:
        body = need(doc, "imodec_flight", dict, "flight")
        need(body, "recorded", NUMBER, "imodec_flight", nonneg=True)
        need(body, "capacity", NUMBER, "imodec_flight", nonneg=True)
        need(body, "events", list, "imodec_flight")
    else:
        raise Fail(f"unknown supervisor record key "
                   f"'{next(iter(doc), None)}'")
    return "supervisor"


SUPERVISOR_KEYS = ("imodec_supervisor", "imodec_crash", "imodec_flight")


def check_line(doc, mode):
    if mode == "request":
        return check_request(doc)
    if mode == "response":
        return check_response(doc)
    if mode == "supervisor":
        return check_supervisor(doc)
    if isinstance(doc, dict) and any(k in doc for k in SUPERVISOR_KEYS):
        return check_supervisor(doc)
    if isinstance(doc, dict) and "ok" in doc:
        return check_response(doc)
    return check_request(doc)


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("paths", nargs="+", metavar="transcript.jsonl")
    ap.add_argument("--mode",
                    choices=("request", "response", "supervisor", "auto"),
                    default="auto",
                    help="direction to validate (default: auto per line)")
    args = ap.parse_args(argv[1:])
    for path in args.paths:
        counts = {"request": 0, "response": 0, "supervisor": 0}
        try:
            with open(path, encoding="utf-8") as f:
                lines = [ln for ln in f.read().splitlines() if ln.strip()]
        except OSError as e:
            print(f"check_request_json: {path}: {e}", file=sys.stderr)
            return 1
        for i, line in enumerate(lines, 1):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"check_request_json: {path}:{i}: {e}", file=sys.stderr)
                return 1
            try:
                counts[check_line(doc, args.mode)] += 1
            except Fail as e:
                print(f"check_request_json: {path}:{i}: {e}", file=sys.stderr)
                return 1
        print(f"check_request_json: {path}: OK ({counts['request']} requests, "
              f"{counts['response']} responses, "
              f"{counts['supervisor']} supervisor records)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
