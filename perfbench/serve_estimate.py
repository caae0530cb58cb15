"""``serve-estimate``: a closed loop of estimate requests over HTTP.

Two keep-alive connections to an in-process ``repro.server`` app over one
``Session``; each sends its next ``POST /v1/estimate`` only after the reply
to the previous one arrived.  The callers run in their own process
(``serve_client.py``), which also generates the seeded bodies: every
(network, GPU, pass) cell once per block with a fresh batch size, and one
repeat of a recent body after every three distinct ones (a 25% share).
The path is ``server`` -> ``api`` -> the scalar ``core`` pipeline;
``sim``, ``dse`` and ``core.batched`` are not used.
"""

from __future__ import annotations

import base64
import json
import os
import subprocess
import sys
import time
from typing import Dict, Tuple

from common import Outcome, overhead_pct, percentile, segments, tail

CLIENT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "serve_client.py")
CLIENT_TIMEOUT_S = 150


def setup(seed: int):
    started = time.perf_counter()
    from repro.api import Session
    from repro.server import ServerThread, create_app
    imported = time.perf_counter()
    session = Session()
    app = create_app(session)
    server = ServerThread(app)
    server.__enter__()
    ready = time.perf_counter()
    state = {"session": session, "app": app, "server": server}
    return state, {"import_ms": (imported - started) * 1e3,
                   "session_ms": (ready - imported) * 1e3}


def teardown(state) -> None:
    state["server"].stop()
    state["session"].close()


def _install(tracer) -> None:
    from repro.api.report import Report
    from repro.api.session import Session
    from repro.core import workload as core_workload
    from repro.core.performance import PerformanceModel
    from repro.core.traffic import TrafficModel
    from repro.server import schemas

    def with_pass_keys(run):
        def run_request(session, request):
            tracer.local.pass_keys = set()
            try:
                return run(session, request)
            finally:
                tracer.local.pass_keys = None
        return run_request

    def note_pass(args, estimate) -> None:
        keys = getattr(tracer.local, "pass_keys", None)
        if keys is None:
            return
        workload = estimate.workload
        key = (workload.layer.structural_key(), workload.pass_kind,
               workload.dtype_bytes)
        tracer.count("core.passes")
        if key in keys:
            tracer.count("core.duplicate_passes")
        else:
            keys.add(key)

    tracer.patch_function(schemas, "parse_body", "server.parse")
    tracer.patch_method(Report, "to_json", "api.serialize")
    tracer.patch_method(Session, "run", "api.execute", around=with_pass_keys)
    tracer.patch_function(core_workload, "lower_pass", "core.lower")
    tracer.patch_method(TrafficModel, "estimate", "core.traffic")
    tracer.patch_method(PerformanceModel, "estimate", "core.performance",
                        after=note_pass)


def _drive_clients(seed: int, host: str, port: int, plan, on_segment):
    """Run the caller process through ``plan``; returns its per-connection
    results and the wall time of the untraced and traced segments."""
    window = {False: 0.0, True: 0.0}
    client = subprocess.Popen(
        [sys.executable, CLIENT, host, str(port), str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        for traced, length in plan:
            on_segment(traced)
            start = time.perf_counter()
            client.stdin.write(f"segment {int(traced)} {length!r}\n")
            client.stdin.flush()
            reply = client.stdout.readline()
            window[traced] += time.perf_counter() - start
            on_segment(None)
            if reply.strip() != "done":
                raise RuntimeError("the caller process stopped early")
        client.stdin.write("finish\n")
        client.stdin.flush()
        results = json.loads(client.stdout.readline())
        client.wait(timeout=CLIENT_TIMEOUT_S)
    finally:
        if client.poll() is None:
            client.kill()
            client.wait()
        client.stdin.close()
        client.stdout.close()
    return results, window


def measure(state, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.api import EstimateRequest, Report, Session
    from tracer import Tracer

    server, app = state["server"], state["app"]
    out = Outcome()
    tracer = Tracer()

    def on_segment(traced) -> None:
        if traced:
            _install(tracer)
        else:
            tracer.uninstall()

    hits_before = app.cache.stats.memo_hits
    try:
        connections, window = _drive_clients(
            seed, server.host, server.port, segments(seconds, trace),
            on_segment)
    finally:
        tracer.uninstall()

    records = [r for c in connections for r in c["records"]]
    for conn in connections:
        out.errors.extend(conn["errors"])
    out.attempted = sum(c["sent"] for c in connections)
    bad = [r for r in records if r[1] != 200]
    out.failed = out.attempted - len(records) + len(bad)
    out.check(not bad, f"{len(bad)} responses were not 200")

    # Repeated bodies must carry identical content.
    digests: Dict[Tuple[int, int], str] = {}
    mismatched = 0
    for index, conn in enumerate(connections):
        for body_id, _, _, digest, _, _ in conn["records"]:
            first = digests.setdefault((index, body_id), digest)
            mismatched += first != digest
    out.check(mismatched == 0,
              f"{mismatched} repeated bodies returned different content")

    # A seeded sample must equal the in-process answer.
    samples = [sample for c in connections for sample in c["samples"].values()]
    out.check(bool(samples), "no sampled response to check")
    check_session = Session()
    try:
        for body, payload in samples:
            request = EstimateRequest(**json.loads(body))
            expected = check_session.run(request).content_json()
            served = Report.from_json(base64.b64decode(payload).decode("utf-8"))
            out.check(served.content_json() == expected,
                      f"served content differs for {request}")
    finally:
        check_session.close()
    untraced = [r[2] for r in records if not r[4]]
    repeats = len(records) - len(digests)
    rps = len(untraced) / window[False]
    p50 = percentile(untraced, 50) * 1e3
    p95 = percentile(untraced, 95) * 1e3
    tail_ms = tail(untraced) * 1e3
    hit_share = (app.cache.stats.memo_hits - hits_before) / len(records)
    out.metrics.update({"throughput_per_s": rps, "p50_ms": p50,
                        "tail_ms": tail_ms})
    out.named += [("serve_rps", rps, "1/s"), ("serve_p50_ms", p50, "ms"),
                  ("serve_p95_ms", p95, "ms"),
                  ("serve_requests", len(untraced), "count"),
                  ("serve.repeat_share", repeats / len(records), "share"),
                  ("server.memo_hit_share", hit_share, "share")]
    if trace:
        traced_lat = [r[2] for r in records if r[4]]
        n = len(traced_lat)
        passes = tracer.counts["core.passes"]
        executed = tracer.calls["api.execute"]
        out.layers.update({
            "server.parse_ms": tracer.ms("server.parse", n),
            "api.serialize_ms": tracer.ms("api.serialize", n),
            "server.overhead_ms": (sum(traced_lat) / n * 1e3
                                   - tracer.ms("api.execute", n)),
            "server.memo_hit_share": hit_share,
            "serve.repeat_share": repeats / len(records),
            "api.execute_ms": tracer.ms("api.execute", n, self_time=True),
            "core.lower_ms": tracer.ms("core.lower", n),
            "core.traffic_ms": tracer.ms("core.traffic", n),
            "core.performance_self_ms": tracer.ms("core.performance", n,
                                                  self_time=True),
            "core.passes_per_request": passes / executed if executed else 0.0,
            "core.duplicate_pass_share": (
                tracer.counts["core.duplicate_passes"] / passes
                if passes else 0.0),
            "trace.overhead_pct": overhead_pct(window[False] / len(untraced),
                                               window[True] / n),
        })
    return out
