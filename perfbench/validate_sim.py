"""``validate-sim``: model-vs-simulator validation at reduced scale.

Each repetition builds a fresh ``Session`` (one process, no simulation
cache) and runs ``ValidateRequest`` on titanxp and on v100 over the four
CNNs' first unique layer each, at batch 8 with 40 exactly simulated CTAs
per layer.  The simulator's im2col, L1-bank and L2 kernels dominate.  The
same run yields the model-vs-simulator GMAE per memory level, which is
deterministic and must repeat exactly; the simulator itself is not
validated against hardware, so these are agreement figures, not accuracy
against real GPUs.  ``server`` and ``dse`` are not used.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

import numpy as np

from common import Outcome, overhead_pct, percentile, segments, tail

GPUS = ("titanxp", "v100")
BATCH = 8
MAX_CTAS = 40
LAYERS_PER_NETWORK = 1
#: report summary key -> metric name.
GMAE_KEYS = {"l1 traffic GMAE": "l1_gmae", "l2 traffic GMAE": "l2_gmae",
             "dram traffic GMAE": "dram_gmae", "time GMAE": "time_gmae"}


def setup(seed: int):
    started = time.perf_counter()
    from repro.api import Session
    imported = time.perf_counter()
    Session(jobs=1).close()
    ready = time.perf_counter()
    return {}, {"import_ms": (imported - started) * 1e3,
                "session_ms": (ready - imported) * 1e3}


def teardown(state) -> None:
    pass


def _pooled_gmae(reports, key: str) -> float:
    """GMAE over the records of every GPU (geometric mean of the folded
    ratios, recovered from each report's per-GPU GMAE and record count)."""
    logs = sum(len(r.rows) * math.log1p(r.summary[key]) for r in reports)
    return math.expm1(logs / sum(len(r.rows) for r in reports))


def _install(tracer) -> None:
    from repro.core import workload as core_workload
    from repro.core.performance import PerformanceModel
    from repro.core.traffic import TrafficModel
    from repro.sim.cache import (LruCache, SetAssociativeCache,
                                 SetAssociativeCacheBank)
    from repro.sim.engine import ConvLayerSimulator
    from repro.sim.im2col import GemmTraceGenerator

    def counter(level: str):
        def note(args, hits) -> None:
            tracer.count(f"{level}.sectors", hits.size)
            tracer.count(f"{level}.hits", int(np.count_nonzero(hits)))
        return note

    tracer.patch_method(ConvLayerSimulator, "run", "sim.engine")
    tracer.patch_method(GemmTraceGenerator, "a_tile_batch", "sim.im2col")
    tracer.patch_method(GemmTraceGenerator, "b_tile_batch", "sim.im2col")
    tracer.patch_method(SetAssociativeCacheBank, "access_block", "sim.l1",
                        after=counter("sim.l1"))
    tracer.patch_method(LruCache, "access_block", "sim.l2",
                        after=counter("sim.l2"))
    tracer.patch_method(SetAssociativeCache, "access_block", "sim.l2",
                        after=counter("sim.l2"))
    tracer.patch_function(core_workload, "lower_pass", "core.lower")
    tracer.patch_method(TrafficModel, "estimate", "core.traffic")
    tracer.patch_method(PerformanceModel, "estimate", "core.performance")


def measure(state, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.api import Session, ValidateRequest
    from tracer import Tracer

    out = Outcome()
    requests = [ValidateRequest(gpu=gpu, batch=BATCH, max_ctas=MAX_CTAS,
                                layers_per_network=LAYERS_PER_NETWORK)
                for gpu in GPUS]
    tracer = Tracer()
    durations: Dict[bool, List[float]] = {False: [], True: []}
    first_content = None
    first_counts = None
    reports = []
    try:
        for traced, length in segments(seconds, trace):
            deadline = time.perf_counter() + length
            while True:
                counts_before = dict(tracer.counts)
                if traced:
                    _install(tracer)
                session = Session(jobs=1)
                try:
                    start = time.perf_counter()
                    reports = [session.run(r) for r in requests]
                    durations[traced].append(time.perf_counter() - start)
                finally:
                    session.close()
                    tracer.uninstall()
                out.attempted += len(reports)
                errors = [r for r in reports if r.kind == "error"]
                out.failed += len(errors)
                out.check(not errors, f"{len(errors)} validations failed")
                content = [r.content_json() for r in reports]
                first_content = first_content or content
                out.check(content == first_content,
                          "validation content differs between repetitions")
                if traced:
                    counts = {k: v - counts_before.get(k, 0)
                              for k, v in tracer.counts.items()}
                    first_counts = first_counts or counts
                    out.check(counts == first_counts,
                              "simulated cache counts differ between "
                              "repetitions")
                if time.perf_counter() >= deadline:
                    break
    finally:
        tracer.uninstall()

    untraced = durations[False]
    validate_s = percentile(untraced, 50)
    records = sum(len(r.rows) for r in reports)
    gmae = {name: _pooled_gmae(reports, key)
            for key, name in GMAE_KEYS.items()}
    out.metrics.update({"throughput_per_s": records / validate_s,
                        "p50_ms": validate_s * 1e3,
                        "tail_ms": tail(untraced) * 1e3})
    out.named += [("validate_s", validate_s, "s"),
                  ("validate_runs", len(untraced), "count"),
                  ("sim.layers_per_gpu", records / len(GPUS), "count")]
    out.named += [(name, value, "ratio") for name, value in gmae.items()]
    if trace:
        n = len(durations[True])
        counts = first_counts or {}
        l1, l2 = counts.get("sim.l1.sectors", 0), counts.get("sim.l2.sectors", 0)
        sim_ms = {name: tracer.ms(name, n)
                  for name in ("sim.im2col", "sim.l1", "sim.l2")}
        out.layers.update({
            "sim.im2col_ms": sim_ms["sim.im2col"],
            "sim.l1_ms": sim_ms["sim.l1"],
            "sim.l1_sectors": l1,
            "sim.l1_hit_ratio": counts.get("sim.l1.hits", 0) / l1 if l1 else 0.0,
            "sim.l2_ms": sim_ms["sim.l2"],
            "sim.l2_sectors": l2,
            "sim.l2_hit_ratio": counts.get("sim.l2.hits", 0) / l2 if l2 else 0.0,
            "sim.engine_self_ms": tracer.ms("sim.engine", n, self_time=True),
            "core.model_ms": (tracer.ms("core.lower", n)
                              + tracer.ms("core.traffic", n)
                              + tracer.ms("core.performance", n,
                                          self_time=True)),
            "sim.layers_per_gpu": records / len(GPUS),
            "trace.overhead_pct": overhead_pct(
                sum(untraced) / len(untraced), sum(durations[True]) / n),
        })
        out.layers.update(gmae)
    return out
