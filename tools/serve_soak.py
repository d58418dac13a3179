#!/usr/bin/env python3
"""Soak imodec_served: N mixed requests through one warm daemon.

Drives a single imodec_served process (stdin/stdout line protocol, or a Unix
socket with --socket) with a mixed workload — registry circuits cycling
through different per-request configs, inline PLA/BLIF, deliberate error
requests (unknown circuits, unknown config keys, malformed JSON, malformed
PLA), tight-node-budget degraded runs, and (with --faults, fault-injection
builds only) armed fault plans — and asserts the serving invariants:

  - every request gets exactly one response, with the request's id echoed;
  - every response carries a valid ErrorCode spelling, consistent with "ok";
  - error requests fail with the expected code (usage/parse), success
    requests succeed;
  - NO CROSS-REQUEST STATE LEAKS: repeated identical requests (including
    node-budget degraded ones) produce identical result sections no matter
    what ran between them — the warm pool and the result cache must be
    invisible in the output;
  - with --faults: an armed fault never crashes the daemon, it surfaces as
    either a typed error response or a degraded-but-ok run.

Transcripts (requests.jsonl / responses.jsonl) are written to --out for
tools/check_request_json.py to validate both wire directions; ctest chains
the two via a fixture.

--chaos switches to the overload/crash soak (DESIGN.md §15): the daemon runs
under --supervise on a Unix socket while N concurrent clients (default 8)
hammer it with mixed traffic — valid circuits, control verbs, malformed
JSON, oversized lines, BDD-hostile tight-budget requests, and (with
--faults) armed fault plans — and a killer thread SIGKILLs the serving
worker (via --pidfile) at least --kills times (default 20). The chaos
invariants:

  - ZERO HANGS: every client request ends in a typed JSON response or a
    clean connection close within its socket timeout — a read timeout fails
    the soak;
  - typed shedding: overload surfaces as code "overloaded" with
    error.retry_after_ms (the soak runs one worker with a tiny queue, so at
    least one shed is required), never a stall;
  - oversized lines get a typed usage error and the connection survives;
  - the supervisor records one restart per delivered kill and keeps
    serving (clients reconnect and complete requests after every crash);
  - the final SIGTERM drains cleanly: supervisor exit 0, pidfile gone.

Exit codes: 0 OK, 1 invariant violation, 2 usage.
"""

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

# Fast-synthesizing registry circuits (sub-50ms each) so 200 requests stay
# inside a CI-friendly budget even under ASan.
CIRCUITS = ["rd53", "rd73", "rd84", "z4ml", "misex1", "9sym", "clip", "sao2"]

XOR_PLA = ".i 3\n.o 1\n.p 4\n001 1\n010 1\n100 1\n111 1\n.e\n"
MAJ_BLIF = (".model maj3\n.inputs a b c\n.outputs y\n"
            ".names a b c y\n11- 1\n1-1 1\n-11 1\n.end\n")


def build_requests(count, with_faults):
    """The soak schedule: deterministic, id'd q000000..., mixed outcomes."""
    reqs = []
    expect = []      # per request: set of acceptable codes
    wire_valid = []  # schema-valid per check_request_json.py (the requests
                     # transcript only keeps these; schema-invalid probes are
                     # the daemon's rejection tests, not example traffic)

    def add(body, codes, valid=True):
        rid = f"q{len(reqs):06d}"
        reqs.append({"schema_version": 1, "id": rid, **body})
        expect.append(codes)
        wire_valid.append(valid)

    i = 0
    while len(reqs) < count:
        kind = i % 10
        circuit = CIRCUITS[i % len(CIRCUITS)]
        if kind < 4:
            # Plain run; alternate the result cache per request.
            add({"circuit": {"name": circuit},
                 "config": {"result_cache": i % 2 == 0}}, {"ok"})
        elif kind == 4:
            # Inline sources.
            add({"circuit": {"pla": XOR_PLA}} if i % 2 else
                {"circuit": {"blif": MAJ_BLIF}}, {"ok"})
        elif kind == 5:
            # Tight node budget, degrade: must still come back ok (the
            # degradation ladder guarantees a complete verified network).
            add({"circuit": {"name": circuit},
                 "config": {"node_budget": 2000, "on_exhaustion": "degrade",
                            "result_cache": False}}, {"ok"})
        elif kind == 6:
            # Tight node budget, fail: either trips (resource) or the
            # circuit fits (ok) — both are valid; crashes are not.
            add({"circuit": {"name": circuit},
                 "config": {"node_budget": 1500, "on_exhaustion": "fail"}},
                {"ok", "resource", "timeout"})
        elif kind == 7:
            # Usage errors: unknown circuit / unknown config key / rejected
            # session key.
            bad = i % 3
            if bad == 0:
                add({"circuit": {"name": "no-such-circuit"}}, {"usage"})
            elif bad == 1:
                add({"circuit": {"name": circuit},
                     "config": {"timeout": 5}}, {"usage"}, valid=False)
            else:
                add({"circuit": {"name": circuit},
                     "config": {"threads": 2}}, {"usage"}, valid=False)
        elif kind == 8:
            # Parse errors from malformed inline circuits.
            add({"circuit": {"pla": ".i 2\n.o 1\n.p 1\n01 1 extra\n.e\n"}},
                {"parse"})
        else:
            if with_faults:
                # Armed fault: the daemon must answer, not die. Depending on
                # where the plan lands the run recovers (ok) or trips.
                fkind = ["deadline", "node_budget", "bad_alloc",
                         "cancel"][i % 4]
                add({"circuit": {"name": circuit},
                     "config": {"node_budget": 500000,
                                "timeout_ms": 60000,
                                "on_exhaustion":
                                    "degrade" if i % 2 else "fail"},
                     "fault": {"kind": fkind, "at": 1 + i % 40}},
                    {"ok", "timeout", "resource"})
            else:
                add({"circuit": {"name": circuit},
                     "config": {"verify": "exact", "result_cache": True}},
                    {"ok"})
        i += 1
    return reqs, expect, wire_valid


def run_stdio(daemon_argv, lines):
    proc = subprocess.run(daemon_argv, input="\n".join(lines) + "\n",
                          capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"daemon exited with {proc.returncode}")
    return proc.stdout.splitlines()


def run_socket(daemon_argv, path, nreq, lines):
    daemon = subprocess.Popen(daemon_argv + ["--socket", path,
                                             "--max-requests", str(nreq)],
                              stderr=subprocess.DEVNULL)
    try:
        deadline = 300
        while not os.path.exists(path) and deadline:
            deadline -= 1
            if daemon.poll() is not None:
                raise RuntimeError("daemon died before listening")
            import time
            time.sleep(0.1)
        out = []
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(path)
            f = s.makefile("rw", encoding="utf-8")
            for line in lines:
                f.write(line + "\n")
                f.flush()
                out.append(f.readline().rstrip("\n"))
        return out
    finally:
        daemon.terminate()
        daemon.wait(timeout=30)


# Result fields fully determined by the mapped network and verify verdict.
# The other result fields report the amount of engine work performed
# (max_p, lmax_rounds, bdd_nodes, ...) and legitimately differ between a
# result-cache hit and the miss that populated it — the *network* must not.
NETWORK_FIELDS = ("luts", "clbs", "clb_paired_blocks", "clb_single_blocks",
                  "depth", "vectors", "max_m", "shannon_fallbacks",
                  "collapsed", "verified", "verified_exhaustive",
                  "verify_proven", "verify_mode")


def result_signature(resp):
    """The parts of a response that must be identical across identical
    requests: outcome code plus the network-determined result fields and the
    structural degradation counters (minus wall-clock-dependent ones)."""
    sig = {"code": resp.get("code")}
    report = resp.get("report")
    if report:
        result = report.get("result", {})
        sig["result"] = {k: result.get(k) for k in NETWORK_FIELDS}
        degrade = dict(report.get("degrade", {}))
        # Event strings and the deadline bit depend on wall clock; the
        # structural counters must not.
        degrade.pop("events", None)
        degrade.pop("deadline_expired", None)
        sig["degrade"] = degrade
    return json.dumps(sig, sort_keys=True)


# ---------------------------------------------------------------------------
# Chaos soak (--chaos)

CHAOS_CODES = {"ok", "verify_failed", "usage", "parse", "timeout", "resource",
               "decompose", "overloaded"}
CHAOS_LINE_CAP = 4096   # daemon --max-line-bytes during chaos
CHAOS_READ_TIMEOUT = 120.0  # any single read past this = hang = failure


class ChaosStats:
    def __init__(self):
        self.lock = threading.Lock()
        self.codes = {}
        self.reconnects = 0
        self.kills = 0

    def count(self, code):
        with self.lock:
            self.codes[code] = self.codes.get(code, 0) + 1

    def reconnect(self):
        with self.lock:
            self.reconnects += 1


def chaos_request(rng, idx, seq, faults):
    """One chaos request: (wire line, acceptable codes, echoed id or None).
    `overloaded` is acceptable for anything that reaches admission — the
    whole point of the soak is that shedding is a normal typed outcome."""
    rid = f"c{idx}-{seq}"
    kind = rng.randrange(10)
    if kind < 5:
        body = {"schema_version": 2, "id": rid,
                "circuit": {"name": rng.choice(CIRCUITS)},
                "config": {"result_cache": rng.random() < 0.5}}
        return json.dumps(body, separators=(",", ":")), \
            {"ok", "overloaded"}, rid
    if kind == 5:
        body = {"schema_version": 2, "id": rid,
                "control": rng.choice(["health", "stats"])}
        return json.dumps(body, separators=(",", ":")), {"ok"}, rid
    if kind == 6:
        # Not JSON: rejected with usage by the engine — but the line still
        # travels the admission queue, so overload can shed it first.
        return "this is not json {", {"usage", "overloaded"}, None
    if kind == 7:
        # Oversized line: past the daemon's --max-line-bytes cap. Typed
        # usage, and the connection must survive for the next iteration.
        return '{"pad":"' + "x" * (2 * CHAOS_LINE_CAP) + '"}', \
            {"usage"}, None
    if kind == 8:
        # BDD-hostile: a budget so tight the run usually trips resource.
        body = {"schema_version": 2, "id": rid,
                "circuit": {"name": rng.choice(CIRCUITS)},
                "config": {"node_budget": 1500, "on_exhaustion": "fail",
                           "result_cache": False}}
        return json.dumps(body, separators=(",", ":")), \
            {"ok", "resource", "timeout", "overloaded"}, rid
    if faults:
        body = {"schema_version": 2, "id": rid,
                "circuit": {"name": rng.choice(CIRCUITS)},
                "fault": {"kind": rng.choice(["deadline", "node_budget",
                                              "bad_alloc", "cancel"]),
                          "at": 1 + rng.randrange(40)}}
        return json.dumps(body, separators=(",", ":")), \
            {"ok", "timeout", "resource", "overloaded"}, rid
    body = {"schema_version": 2, "id": rid,
            "circuit": {"name": "no-such-circuit"}}
    return json.dumps(body, separators=(",", ":")), \
        {"usage", "overloaded"}, rid


class ChaosClient(threading.Thread):
    """One closed-loop client: connect, fire mixed requests, validate every
    response inline. Worker crashes show up as clean closes / resets — the
    client reconnects and retries; anything else (hang, invalid response,
    unexpected code) is recorded as a failure."""

    def __init__(self, idx, sock_path, stop_evt, stats, failures, fail_lock,
                 faults, transcript):
        super().__init__(daemon=True)
        self.idx = idx
        self.sock_path = sock_path
        self.stop_evt = stop_evt
        self.stats = stats
        self.failures = failures
        self.fail_lock = fail_lock
        self.faults = faults
        self.transcript = transcript
        self.completed = 0
        self.retry_hint = 0.025

    def fail(self, msg):
        with self.fail_lock:
            self.failures.append(f"client {self.idx}: {msg}")

    def connect(self):
        deadline = time.time() + 60
        while time.time() < deadline and not self.stop_evt.is_set():
            s = None
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.settimeout(CHAOS_READ_TIMEOUT)
                s.connect(self.sock_path)
                return s
            except OSError:
                if s is not None:
                    try:
                        s.close()
                    except OSError:
                        pass
                time.sleep(0.05)
        return None

    def read_line(self, s, buf):
        """One newline-terminated line from s. (line, buf) or (None, buf)
        on clean close. socket.timeout propagates (a hang)."""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                return None, buf
            buf += chunk
        line, _, buf = buf.partition(b"\n")
        return line, buf

    def run(self):
        rng = random.Random(7000 + self.idx)
        conn, buf = None, b""
        seq = 0
        while not self.stop_evt.is_set():
            line, codes, rid = chaos_request(rng, self.idx, seq, self.faults)
            seq += 1
            # Retry the same request across connection deaths (a kill may
            # land mid-request); each attempt must end in a response or a
            # clean close.
            for _ in range(20):
                if self.stop_evt.is_set():
                    return
                if conn is None:
                    conn = self.connect()
                    buf = b""
                    if conn is None:
                        return  # stop requested / socket gone at teardown
                try:
                    conn.sendall(line.encode() + b"\n")
                    resp_line, buf = self.read_line(conn, buf)
                except socket.timeout:
                    self.fail(f"HANG: no response within "
                              f"{CHAOS_READ_TIMEOUT}s (seq {seq})")
                    return
                except OSError:
                    resp_line = None  # reset mid-write/read: treat as close
                if resp_line is None:
                    try:
                        conn.close()
                    except OSError:
                        pass
                    conn, buf = None, b""
                    self.stats.reconnect()
                    continue
                code = self.check(resp_line, codes, rid)
                self.completed += 1
                if code == "overloaded":
                    # Honor the server's backoff hint (capped — chaos should
                    # stay hot enough to keep the queue full).
                    time.sleep(min(self.retry_hint, 0.05))
                break
            else:
                self.fail("no response after 20 reconnect attempts")
                return

    def check(self, resp_line, codes, rid):
        try:
            resp = json.loads(resp_line.decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            self.fail(f"response is not JSON: {e}")
            return None
        with self.fail_lock:
            self.transcript.append(resp_line.decode())
        code = resp.get("code")
        self.stats.count(code)
        if code not in CHAOS_CODES:
            self.fail(f"invalid code {code!r}")
            return code
        if code not in codes:
            self.fail(f"code {code}, expected one of {sorted(codes)}")
        if rid is not None and resp.get("id") not in (rid, ""):
            self.fail(f"id echoed as {resp.get('id')!r}, sent {rid!r}")
        if code == "overloaded":
            err = resp.get("error", {})
            retry = err.get("retry_after_ms")
            if not isinstance(retry, int):
                self.fail("overloaded response without error.retry_after_ms")
            else:
                self.retry_hint = retry / 1000.0
        return code


def chaos_killer(pidfile, kills, stop_evt, stats, failures, fail_lock):
    """SIGKILL the serving worker `kills` times, waiting for the supervisor
    to fork a fresh worker (new pid in the pidfile) between kills."""
    rng = random.Random(42)
    delivered = 0
    last_killed = -1
    deadline = time.time() + 240
    while delivered < kills and time.time() < deadline \
            and not stop_evt.is_set():
        time.sleep(rng.uniform(0.05, 0.25))
        try:
            with open(pidfile, encoding="utf-8") as f:
                pid = int(f.read().strip())
        except (OSError, ValueError):
            continue
        if pid == last_killed:
            continue  # supervisor has not re-forked yet
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        last_killed = pid
        delivered += 1
    stats.kills = delivered
    if delivered < kills:
        with fail_lock:
            failures.append(
                f"killer delivered only {delivered}/{kills} kills "
                f"before the deadline")


def chaos_main(args):
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    # Short, collision-free socket path (sun_path caps at ~107 bytes; the
    # build dir easily exceeds it).
    tmp = tempfile.mkdtemp(prefix="imodec-chaos-")
    sock_path = os.path.join(tmp, "s")
    pidfile = os.path.join(tmp, "pid")
    stderr_path = os.path.join(out_dir, "supervisor_stderr.log")

    # One worker + tiny queue: 8 clients vs capacity 3 guarantees typed
    # sheds. Aggressive restart knobs: rapid kills must not look like a
    # crash loop (RestartPolicy is unit-tested separately).
    daemon_argv = [args.daemon, "--socket", sock_path, "--supervise",
                   "--pidfile", pidfile, "--workers", "1", "--queue", "2",
                   "--retry-after-ms", "25",
                   "--max-line-bytes", str(CHAOS_LINE_CAP),
                   "--result-cache", "--timeout-ms", "60000",
                   "--restart-base-ms", "20", "--restart-max-ms", "100",
                   "--restart-stable-ms", "50",
                   "--restart-give-up", "1000000"] + args.daemon_arg
    stderr_f = open(stderr_path, "w", encoding="utf-8")
    daemon = subprocess.Popen(daemon_argv, stderr=stderr_f)

    failures = []
    fail_lock = threading.Lock()
    stats = ChaosStats()
    transcript = []
    stop_evt = threading.Event()
    try:
        deadline = time.time() + 60
        while not os.path.exists(sock_path):
            if daemon.poll() is not None or time.time() > deadline:
                raise RuntimeError("daemon did not start listening")
            time.sleep(0.05)

        clients = [ChaosClient(i, sock_path, stop_evt, stats, failures,
                               fail_lock, args.faults, transcript)
                   for i in range(args.clients)]
        for c in clients:
            c.start()
        killer = threading.Thread(
            target=chaos_killer,
            args=(pidfile, args.kills, stop_evt, stats, failures, fail_lock),
            daemon=True)
        killer.start()
        killer.join(timeout=300)
        if killer.is_alive():
            failures.append("killer thread did not finish")
        time.sleep(1.0)  # let clients observe the post-kill recovery
        stop_evt.set()
        for c in clients:
            c.join(timeout=CHAOS_READ_TIMEOUT + 60)
            if c.is_alive():
                failures.append(f"client {c.idx} did not finish (hang)")

        daemon.send_signal(signal.SIGTERM)
        try:
            rc = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            rc = daemon.wait()
            failures.append("supervisor did not drain within 60s of SIGTERM")
        if rc != 0:
            failures.append(f"supervisor exited {rc}, expected 0")
        if os.path.exists(pidfile):
            failures.append("pidfile not removed on clean exit")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        stderr_f.close()

    # Supervisor records: one restart per delivered kill, then a clean exit.
    sup_events = []
    with open(stderr_path, encoding="utf-8") as f:
        sup_lines = [l.rstrip("\n") for l in f
                     if l.startswith('{"imodec_supervisor"')]
    for line in sup_lines:
        try:
            sup_events.append(json.loads(line)["imodec_supervisor"]["event"])
        except (json.JSONDecodeError, KeyError):
            failures.append(f"malformed supervisor record: {line[:120]}")
    restarts = sup_events.count("restart")
    if restarts < stats.kills:
        failures.append(f"{stats.kills} kills but only {restarts} "
                        f"supervisor restart records")
    if not sup_events or sup_events[-1] != "exit":
        failures.append(f"supervisor records end with "
                        f"{sup_events[-1] if sup_events else 'nothing'}, "
                        f"expected 'exit'")

    completed = sum(c.completed for c in clients)
    n_ok = stats.codes.get("ok", 0)
    n_over = stats.codes.get("overloaded", 0)
    if n_ok < args.clients:
        failures.append(f"only {n_ok} ok responses across {args.clients} "
                        f"clients — the service never recovered")
    if n_over < 1:
        failures.append("no overloaded response observed — the soak never "
                        "exercised shedding (capacity too large?)")

    with open(os.path.join(out_dir, "chaos_responses.jsonl"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(transcript) + ("\n" if transcript else ""))
    with open(os.path.join(out_dir, "supervisor.jsonl"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(sup_lines) + ("\n" if sup_lines else ""))

    print(f"serve_soak: chaos — {args.clients} clients, {stats.kills} kills "
          f"delivered, {restarts} supervisor restarts, {completed} requests "
          f"completed ({n_ok} ok, {n_over} overloaded, "
          f"{stats.reconnects} reconnects), codes {stats.codes}")
    if failures:
        for fail in failures[:25]:
            print(f"serve_soak: FAIL: {fail}", file=sys.stderr)
        if len(failures) > 25:
            print(f"serve_soak: ... and {len(failures) - 25} more",
                  file=sys.stderr)
        return 1
    print("serve_soak: OK")
    return 0


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--daemon", required=True, help="path to imodec_served")
    ap.add_argument("--requests", type=int, default=200)
    ap.add_argument("--out", required=True,
                    help="directory for requests.jsonl / responses.jsonl")
    ap.add_argument("--faults", action="store_true",
                    help="include armed fault plans (fault-injection builds)")
    ap.add_argument("--socket", metavar="PATH", default="",
                    help="drive the daemon over a Unix socket at PATH "
                         "instead of stdin/stdout")
    ap.add_argument("--daemon-arg", action="append", default=[],
                    metavar="ARG", help="extra daemon argv entry (repeatable)")
    ap.add_argument("--chaos", action="store_true",
                    help="overload/crash soak: concurrent clients + worker "
                         "kills against a supervised socket daemon")
    ap.add_argument("--clients", type=int, default=8,
                    help="concurrent chaos clients (>= 8 for the ctest soak)")
    ap.add_argument("--kills", type=int, default=20,
                    help="worker SIGKILLs the chaos killer must deliver")
    args = ap.parse_args(argv[1:])

    if args.chaos:
        return chaos_main(args)

    reqs, expect, wire_valid = build_requests(args.requests, args.faults)
    lines = [json.dumps(r, separators=(",", ":")) for r in reqs]
    # Two raw-garbage lines exercise the not-JSON path; they get responses
    # too (id "") but are excluded from the transcript's request side, which
    # must stay schema-valid.
    garbage = ["this is not json", "[1,2,3]"]
    all_lines = lines + garbage

    daemon_argv = [args.daemon, "--result-cache"] + args.daemon_arg
    if args.socket:
        raw = run_socket(daemon_argv, args.socket, len(all_lines), all_lines)
    else:
        raw = run_stdio(daemon_argv, all_lines)

    failures = []
    if len(raw) != len(all_lines):
        failures.append(f"{len(all_lines)} requests but {len(raw)} responses")
    resps = []
    for i, line in enumerate(raw):
        try:
            resps.append(json.loads(line))
        except json.JSONDecodeError as e:
            failures.append(f"response {i} is not JSON: {e}")
            resps.append({})

    codes = {"ok", "verify_failed", "usage", "parse", "timeout", "resource",
             "decompose"}
    signatures = {}
    for i, resp in enumerate(resps[:len(reqs)]):
        rid = reqs[i]["id"]
        where = f"request {rid}"
        if resp.get("id") != rid:
            failures.append(f"{where}: id echoed as {resp.get('id')!r}")
        code = resp.get("code")
        if code not in codes:
            failures.append(f"{where}: invalid code {code!r}")
            continue
        if resp.get("ok") != (code == "ok"):
            failures.append(f"{where}: ok={resp.get('ok')} vs code {code}")
        if code != "ok" and "code" not in resp.get("error", {}):
            failures.append(f"{where}: error response without error.code")
        if code not in expect[i]:
            failures.append(f"{where}: code {code}, expected one of "
                            f"{sorted(expect[i])}")
        # Cross-request leak check: identical request bodies (minus id) must
        # produce identical result signatures, however far apart they ran.
        body = dict(reqs[i])
        del body["id"]
        if "fault" in body:
            continue  # fault position depends on site counters; skip
        key = json.dumps(body, sort_keys=True)
        sig = result_signature(resp)
        if key in signatures:
            first_id, first_sig = signatures[key]
            if sig != first_sig:
                failures.append(
                    f"{where}: result differs from identical request "
                    f"{first_id} — cross-request state leak")
        else:
            signatures[key] = (rid, sig)
    for i, resp in enumerate(resps[len(reqs):]):
        if resp.get("code") != "usage":
            failures.append(f"garbage line {i}: expected usage, got "
                            f"{resp.get('code')!r}")

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "requests.jsonl"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(line for line, valid in zip(lines, wire_valid)
                          if valid) + "\n")
    with open(os.path.join(args.out, "responses.jsonl"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(raw) + "\n")

    n_ok = sum(1 for r in resps if r.get("code") == "ok")
    print(f"serve_soak: {len(reqs)} requests + {len(garbage)} garbage lines, "
          f"{n_ok} ok, {len(signatures)} distinct bodies checked for leaks")
    if failures:
        for fail in failures[:25]:
            print(f"serve_soak: FAIL: {fail}", file=sys.stderr)
        if len(failures) > 25:
            print(f"serve_soak: ... and {len(failures) - 25} more",
                  file=sys.stderr)
        return 1
    print("serve_soak: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
