#!/usr/bin/env python3
"""Benchmark of the DeLTA reproduction, one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload serve-estimate --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``serve-estimate`` -- closed-loop estimate requests over HTTP
  (``perfbench/serve_estimate.py``);
* ``dse-sweep`` -- exhaustive sweeps evaluated, persisted and resumed
  (``perfbench/dse_sweep.py``);
* ``validate-sim`` -- model-vs-simulator validation
  (``perfbench/validate_sim.py``).

The program is imported from ``src/`` of the checkout; there is nothing to
build.  Set-up time is the median over several fresh interpreters, each
timed from its start until the workload's first timed operation could
begin.  The measurement window then runs in this process.  With
``--trace 1`` the window alternates untraced and traced quarters: the
traced ones time calls into each layer (``perfbench/tracer.py``) and the
difference is reported as ``trace.overhead_pct``.  Times are host time.

End-to-end metrics mean the same thing on every workload, per operation: an
HTTP request (``serve-estimate``), one sweep's eval + persist + resume
(``dse-sweep``) or one two-GPU validation (``validate-sim``).
``throughput_per_s`` is requests/s, eval-phase design points/s and
simulated layers/s respectively; ``p50_ms`` is the median operation time;
``tail_ms`` the highest percentile (at most the 95th) that still has ten
operations beyond it.  Per-layer times and counts are per operation too.

Output: a header of ``# ...`` lines, one ``metric <name> <value> <unit>``
line per figure -- the workload's own named figures, a host calibration and
provenance stamp -- and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json without tracing, its per-layer metrics with
tracing (0 for a layer the workload does not reach).  An output check that
fails makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = {
    "serve-estimate": "serve_estimate",
    "dse-sweep": "dse_sweep",
    "validate-sim": "validate_sim",
}
#: fresh interpreters timed for set-up per run.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``
    from it; anything else (a missing tree, an installed copy) is an error."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    spec = importlib.util.find_spec("repro")
    origin = os.path.realpath(spec.origin) if spec and spec.origin else ""
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: repro resolves to {origin!r}, "
                         f"not to {SRC}")


def _probe(module, seed: int) -> int:
    """Child side of a set-up probe: set up, report, tear down."""
    state, timings = module.setup(seed)
    print(json.dumps(timings), flush=True)
    module.teardown(state)
    return 0


def _time_setup(workload: str, seed: int):
    """Median set-up over fresh interpreters, plus its import/session split."""
    totals, imports, sessions = [], [], []
    for probe in range(SETUP_PROBES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed + probe), "--probe-setup"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        timings = json.loads(line)
        totals.append(ready - started)
        imports.append(timings["import_ms"])
        sessions.append(timings["session_ms"])
    return median(totals), median(imports), median(sessions)


def _calibrate():
    """Host speed: a fixed pure-Python loop and a fixed numpy kernel (ms,
    median of five), for telling host changes from code changes."""
    import numpy as np

    def python_loop():
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return total

    data = np.random.default_rng(0).random((256, 256))

    def numpy_kernel():
        return float((data @ data).sum() + np.sort(data, axis=None)[-1])

    figures = []
    for kernel in (python_loop, numpy_kernel):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            kernel()
            samples.append((time.perf_counter() - start) * 1e3)
        figures.append(median(samples))
    return figures


def _git_sha() -> str:
    """HEAD of the checkout's own ``.git``, if it has one (never a parent's)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ,
                                   "GIT_CEILING_DIRECTORIES":
                                   os.path.dirname(ROOT)})
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def _source_digest() -> str:
    """sha1 over the program's Python sources (paths and bytes)."""
    digest = hashlib.sha1()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:12]


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.probe_setup:
        return _probe(module, args.seed)

    spec = _benchmark_spec()
    trace = bool(args.trace)
    calib_python_ms, calib_numpy_ms = _calibrate()
    setup_s, import_ms, session_ms = _time_setup(args.workload, args.seed)
    state, _ = module.setup(args.seed)
    try:
        outcome = module.measure(state, args.seed, args.seconds, trace)
    finally:
        module.teardown(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host git_sha={_git_sha()} src_digest={_source_digest()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()}")
    named = outcome.named + [
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("host.calib_python_ms", calib_python_ms, "ms"),
        ("host.calib_numpy_ms", calib_numpy_ms, "ms"),
        ("attempted", outcome.attempted, "count"),
        ("failed", outcome.failed, "count"),
    ]
    for name, value, unit in named:
        print(f"metric {name} {value!r} {unit}")
    for error in outcome.errors:
        print(f"# check failed: {error}")

    measured = dict(outcome.metrics, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    if trace:
        measured = dict(outcome.layers)
        measured.update({"setup.import_ms": import_ms,
                         "setup.session_ms": session_ms,
                         "host.calib_python_ms": calib_python_ms,
                         "host.calib_numpy_ms": calib_numpy_ms})
    listed = spec["per_layer" if trace else "end_to_end"]
    unlisted = set(measured) - {entry["name"] for entry in listed}
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unlisted)}")
    metrics = {}
    for entry in listed:
        value = measured.get(entry["name"], 0.0 if trace else None)
        if value is None:
            raise RuntimeError(f"{args.workload} did not measure "
                               f"{entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = not outcome.errors
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
