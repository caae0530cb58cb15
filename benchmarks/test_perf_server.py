"""Perf-regression benchmark for the estimation service.

Serves a real socket with :class:`ServerThread` and measures request
throughput on the two paths that matter operationally:

* **cache hit** — the repeated identical request, answered from the
  server-wide report memo.  This is pure HTTP + dispatch + memo lookup and
  must sustain triple-digit requests/second.
* **cache miss** — the request memo disabled, so every request re-enters the
  executor (the session's work-unit memo stays warm, as it would on a
  long-lived server).  This bounds the per-request dispatch + execution
  overhead.

Emits ``BENCH_server.json`` so both trajectories are tracked across PRs,
together with an informational (ungated) in-process ``resnet152_training_ms``:
the median ``Session.run`` time of a resnet152 TITAN Xp batch-256 training
estimate, 468 layer-passes of which each structurally unique one is
evaluated once.
"""

import http.client
import json
import statistics
import time

from repro.api import EstimateRequest, Session
from repro.server import ServerThread, create_app

from bench_utils import run_once, write_bench_summary

#: request count per measured path.
HIT_REQUESTS = 200
MISS_REQUESTS = 50

#: floor on the memo-hit path; observed >1000/s locally, CI headroom ~20x.
HIT_FLOOR_RPS = 50.0

#: floor on the memo-miss path with a warm session (re-runs the executor).
MISS_FLOOR_RPS = 5.0

BODY = json.dumps({"network": "alexnet", "batch": 16, "unique": True})

#: timed in-process runs of the resnet152 training estimate (after a warm-up).
TRAINING_RUNS = 15
TRAINING_REQUEST = EstimateRequest("resnet152", gpu="titanxp", batch=256,
                                   passes="training")


def _content(payload):
    """Report content with the volatile ``meta["timing"]`` block stripped."""
    body = json.loads(payload)
    body.get("meta", {}).pop("timing", None)
    return body


def _drive(host, port, count):
    """``count`` sequential POSTs over one keep-alive connection."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        first = None
        for _ in range(count):
            conn.request("POST", "/v1/estimate", body=BODY,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            assert response.status == 200
            if first is None:
                first = payload
            elif payload != first:
                # memo hits are byte-identical (same Report object); real
                # re-executions may differ only in meta["timing"].
                assert _content(payload) == _content(first)
        return first
    finally:
        conn.close()


def _resnet152_training_ms():
    """Median in-process milliseconds of one resnet152 training estimate."""
    with Session() as session:
        report = session.run(TRAINING_REQUEST)
        assert len(report.rows) == 468
        times = []
        for _ in range(TRAINING_RUNS):
            start = time.perf_counter()
            session.run(TRAINING_REQUEST)
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def test_server_request_throughput(benchmark):
    hit_session = Session()
    hit_app = create_app(hit_session)
    try:
        with ServerThread(hit_app) as server:
            _drive(server.host, server.port, 1)  # warm: one real execution
            start = time.perf_counter()
            run_once(benchmark, _drive, server.host, server.port,
                     HIT_REQUESTS)
            hit_elapsed = time.perf_counter() - start
        assert hit_session.stats.requests_run == 1
        assert hit_app.cache.stats.memo_hits == HIT_REQUESTS
    finally:
        hit_session.close()

    miss_session = Session()
    miss_app = create_app(miss_session, max_memo=0)
    try:
        with ServerThread(miss_app) as server:
            _drive(server.host, server.port, 1)  # warm the session memo
            start = time.perf_counter()
            _drive(server.host, server.port, MISS_REQUESTS)
            miss_elapsed = time.perf_counter() - start
        assert miss_session.stats.requests_run == MISS_REQUESTS + 1
    finally:
        miss_session.close()

    hit_rps = HIT_REQUESTS / hit_elapsed
    miss_rps = MISS_REQUESTS / miss_elapsed
    write_bench_summary("server", {
        "network": "alexnet",
        "batch": 16,
        "hit_requests": HIT_REQUESTS,
        "hit_elapsed_s": hit_elapsed,
        "hit_requests_per_s": hit_rps,
        "hit_floor_rps": HIT_FLOOR_RPS,
        "miss_requests": MISS_REQUESTS,
        "miss_elapsed_s": miss_elapsed,
        "miss_requests_per_s": miss_rps,
        "miss_floor_rps": MISS_FLOOR_RPS,
        "resnet152_training_ms": _resnet152_training_ms(),
    })

    assert hit_rps >= HIT_FLOOR_RPS, (
        f"server memo-hit regression: {hit_rps:.0f} req/s; "
        f"floor is {HIT_FLOOR_RPS:.0f}")
    assert miss_rps >= MISS_FLOOR_RPS, (
        f"server memo-miss regression: {miss_rps:.1f} req/s; "
        f"floor is {MISS_FLOOR_RPS:.0f}")
    # the memo must be worth an order of magnitude on repeated requests.
    assert hit_rps > miss_rps
