"""``dse-sweep``: exhaustive design-space sweeps, evaluated, persisted, resumed.

Each sweep is a 9600-point grid: 800 designs (num_sm x mac_bw x l2_bw x
dram_bw x cta_tile) crossed with 12 workload signatures (alexnet,
resnet152, bert-base x forward, training x batch 64, 256).  Every sweep
scales each design axis by its own seeded factor, so no two sweeps share a
design point.  A sweep runs ``explore()`` three times: *eval* with no store,
*persist* into a new ``ResultStore`` (writes) and *resume* from the same
store reopened (reads only, zero evaluations).  The path is ``dse.space``,
``dse.runner`` keys, ``dse.batch``, ``core.batched``,
``analysis.frontier`` and ``dse.store``; ``server``, ``sim`` and the scalar
per-request path are not used.  The per-signature traffic plans are
filled at set-up, as a long-running explorer has them.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

from common import Outcome, overhead_pct, percentile, segments, tail

DESIGN_AXES = {
    "num_sm": (0.5, 1.0, 1.5, 2.0),
    "mac_bw": (0.5, 1.0, 2.0, 4.0),
    "l2_bw": (0.5, 1.0, 1.5, 2.0, 4.0),
    "dram_bw": (0.5, 1.0, 1.5, 2.0, 3.0),
}
CTA_TILES = (128, 256)
WORKLOAD_AXES = {
    "network": ("alexnet", "resnet152", "bert-base"),
    "passes": ("forward", "training"),
    "batch": (64, 256),
}
#: largest relative shift of a design axis between sweeps.
MAX_SHIFT = 0.05
#: the checkout; result stores live in a directory under it while a run
#: lasts.
CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sweep_space(rng: random.Random):
    from repro.dse import grid
    axes: Dict[str, tuple] = {}
    for key, values in DESIGN_AXES.items():
        factor = 1.0 + rng.uniform(-MAX_SHIFT, MAX_SHIFT)
        axes[key] = tuple(value * factor for value in values)
    axes["cta_tile"] = CTA_TILES
    axes.update(WORKLOAD_AXES)
    return grid(axes)


def setup(seed: int):
    started = time.perf_counter()
    from repro.dse import ExhaustiveDriver, explore, grid
    imported = time.perf_counter()
    warm = grid({"num_sm": (1.0,), "cta_tile": CTA_TILES, **WORKLOAD_AXES})
    explore(warm, driver=ExhaustiveDriver())
    ready = time.perf_counter()
    return {}, {"import_ms": (imported - started) * 1e3,
                "session_ms": (ready - imported) * 1e3}


def teardown(state) -> None:
    pass


def _frontier(exploration) -> List[Tuple[str, str]]:
    return [(result.key, json.dumps(result.metrics, sort_keys=True))
            for result in exploration.frontier_results()]


def _install(tracer) -> None:
    from repro.analysis import frontier
    from repro.core import batched
    from repro.core.traffic import TrafficModel
    from repro.dse import batch, runner
    from repro.dse.drivers import ExhaustiveDriver
    from repro.dse.store import ResultStore

    tracer.patch_method(ExhaustiveDriver, "plan", "dse.enumerate")
    tracer.patch_function(runner, "store_keys", "dse.keys")
    tracer.patch_function(frontier, "pareto_frontier", "analysis.frontier")
    tracer.patch_function(batch, "evaluate_points", "dse.evaluate")
    tracer.patch_function(batched, "estimate_grid", "core.batched")
    tracer.patch_function(batched, "traffic_by_family", "core.traffic_family")
    tracer.patch_method(TrafficModel, "estimate", "core.traffic")
    tracer.patch_method(ResultStore, "put_many", "dse.store_write")
    tracer.patch_method(ResultStore, "__init__", "dse.store_open")
    tracer.patch_method(ResultStore, "get", "dse.store_get")


def measure(state, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.dse import ExhaustiveDriver, ResultStore, explore
    from tracer import Tracer

    out = Outcome()
    rng = random.Random(f"dse-sweep:{seed}")
    driver = ExhaustiveDriver()
    tracer = Tracer()
    explore_traced = tracer.wrap("dse.explore", explore)
    rates: Dict[str, List[float]] = {"eval": [], "persist": [], "resume": []}
    cycles = {False: [], True: []}
    points = signatures = 0
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=CHECKOUT)
    path = os.path.join(workdir, "sweep.jsonl")
    try:
        for traced, length in segments(seconds, trace):
            run = explore_traced if traced else explore
            deadline = time.perf_counter() + length
            while True:
                space = sweep_space(rng)
                points = len(space)
                if traced:
                    _install(tracer)
                phase_s = {}
                frontiers = {}
                stats = {}
                for phase in ("eval", "persist", "resume"):
                    gc.collect()
                    start = time.perf_counter()
                    store = None if phase == "eval" else ResultStore(path)
                    exploration = run(space, driver=driver, store=store)
                    if store is not None:
                        store.close()
                    phase_s[phase] = time.perf_counter() - start
                    frontiers[phase] = _frontier(exploration)
                    stats[phase] = exploration.stats
                    signatures = len(exploration.baselines)
                    del exploration, store
                tracer.uninstall()
                os.remove(path)
                out.attempted += 3
                for phase in ("eval", "persist", "resume"):
                    s = stats[phase]
                    out.failed += int(s.failed > 0)
                    out.check(s.failed == 0 and s.skipped_failures == 0,
                              f"{phase}: {s.failed} points failed")
                    out.check(frontiers[phase] == frontiers["eval"],
                              f"{phase}: frontier differs from eval")
                    if not traced:
                        rates[phase].append(points / phase_s[phase])
                expected = stats["eval"].evaluated
                out.check(expected >= points,
                          f"eval evaluated {expected} of {points} points")
                out.check(stats["persist"].evaluated == expected,
                          "persist did not evaluate every point")
                resume = stats["resume"]
                out.check(resume.evaluated == 0
                          and resume.store_hits == expected,
                          f"resume evaluated {resume.evaluated} points and "
                          f"hit the store {resume.store_hits} of "
                          f"{expected} times")
                cycles[traced].append(sum(phase_s.values()))
                if time.perf_counter() >= deadline:
                    break
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    eval_rate = percentile(rates["eval"], 50)
    cycle_ms = [c * 1e3 for c in cycles[False]]
    out.metrics.update({"throughput_per_s": eval_rate,
                        "p50_ms": percentile(cycle_ms, 50),
                        "tail_ms": tail(cycle_ms)})
    out.named += [("dse_eval_points_per_s", eval_rate, "1/s"),
                  ("dse_persist_points_per_s",
                   percentile(rates["persist"], 50), "1/s"),
                  ("dse_resume_points_per_s",
                   percentile(rates["resume"], 50), "1/s"),
                  ("dse_points_per_sweep", points, "count"),
                  ("dse_sweeps", len(cycle_ms), "count"),
                  ("dse.signatures_per_sweep", signatures, "count")]
    if trace:
        n = len(cycles[True])
        out.layers.update({
            "dse.enumerate_ms": tracer.ms("dse.enumerate", n),
            "dse.keys_ms": tracer.ms("dse.keys", n),
            "analysis.frontier_ms": tracer.ms("analysis.frontier", n),
            "dse.explore_self_ms": tracer.ms("dse.explore", n,
                                             self_time=True),
            "dse.evaluate_self_ms": tracer.ms("dse.evaluate", n,
                                              self_time=True),
            "core.batched_ms": tracer.ms("core.batched", n),
            "core.traffic_family_ms": tracer.ms("core.traffic_family", n),
            "core.traffic_family_calls": (
                tracer.calls["core.traffic_family"] / n),
            "core.traffic_ms": tracer.ms("core.traffic", n),
            "dse.store_write_ms": tracer.ms("dse.store_write", n),
            "dse.store_read_ms": (tracer.ms("dse.store_open", n)
                                  + tracer.ms("dse.store_get", n)),
            "dse.signatures_per_sweep": signatures,
            "trace.overhead_pct": overhead_pct(
                sum(cycles[False]) / len(cycles[False]),
                sum(cycles[True]) / n),
        })
    return out
