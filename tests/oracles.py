"""Scalar reference implementations the production paths are checked against.

Production evaluates design points only through the batched
:func:`repro.dse.batch.evaluate_points`.  :func:`evaluate_point` is the
original per-point walk of the scalar :class:`~repro.core.model.DeltaModel`
over a workload's layers; it uses public APIs only and is the oracle for the
bit-identity tests (batched == scalar metrics, DSE store bytes, fig16).

Production ``estimate``, ``sweep`` and ``training`` evaluate each
structurally unique layer-pass once (``DeltaModel.estimate_passes``) and
copy its metrics under every layer name.  :func:`estimate_rows`,
:func:`training_step`, :func:`training_rows`, :func:`training_summary` and
:func:`estimate_report` are the original per-(layer, pass) loops, with no
dedupe; the report contents must match them byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.analysis.frontier import design_cost
from repro.api import EstimateRequest, Report, Session
from repro.api.executor import _base_meta
from repro.core import (DeltaModel, LayerPassEstimate, TrainingStepEstimate,
                        expand_passes, lower_pass)
from repro.dse import DesignPoint
from repro.gpu import FP32_BYTES, GpuSpec, get_device
from repro.networks import get_network


def workload_layers(network: str, batch: int, dtype_bytes: int,
                    unique: bool) -> list:
    """The GEMM layers one design point's workload evaluates."""
    net = get_network(network, batch=batch)
    layers = net.unique_layers() if unique else net.gemm_layers()
    if dtype_bytes != FP32_BYTES:
        layers = [layer.with_dtype(dtype_bytes) for layer in layers]
    return list(layers)


def evaluate_point(base_gpu: GpuSpec, point: DesignPoint, *,
                   unique: bool = True,
                   layer_stride: int = 1) -> Dict[str, object]:
    """Evaluate one design point with the scalar analytic model.

    Returns the same flat metrics dict as ``evaluate_points``.  The
    accumulation order (layers outer, passes inner, running float sums) is
    the one the batched path reproduces bit for bit.
    """
    gpu = point.option.apply(base_gpu)
    model = DeltaModel(gpu, cta_tile_hw=point.option.cta_tile_hw)
    layers = workload_layers(point.network, point.batch, point.dtype_bytes,
                             unique)
    if layer_stride > 1:
        layers = layers[::layer_stride] or layers[:1]
    pass_kinds = expand_passes(point.passes)
    estimates = []
    for layer in layers:
        if pass_kinds == ("forward",):
            estimates.append(model.estimate(layer))
        else:
            for pass_kind in pass_kinds:
                estimates.append(model.estimate_pass(layer, pass_kind))
    total = sum(est.time_seconds for est in estimates)
    shares: Counter = Counter()
    for est in estimates:
        # zero-time estimates carry no share; including them would add a
        # spurious zero-share bottleneck category.
        if est.time_seconds <= 0:
            continue
        shares[est.bottleneck] += est.time_seconds
    bottlenecks = ({key.value: value / total for key, value in shares.items()}
                   if total > 0 else {})
    flops = sum(est.workload.flops for est in estimates)
    dram_bytes = sum(est.traffic.dram_bytes for est in estimates)
    l2_bytes = sum(est.traffic.l2_bytes for est in estimates)
    return {
        "time_s": total,
        "throughput_tflops": (flops / total / 1e12) if total > 0 else 0.0,
        "dram_gb": dram_bytes / 1e9,
        "l2_gb": l2_bytes / 1e9,
        "resource_cost": design_cost(point.option),
        "layers": len(layers),
        "gemms": len(estimates),
        "bottlenecks": bottlenecks,
    }



def estimate_rows(model: DeltaModel, layers,
                  pass_kinds: Sequence[str] = ("forward",)
                  ) -> List[Dict[str, object]]:
    """Estimate/sweep layer rows, one scalar evaluation per (layer, pass)."""
    single_forward = tuple(pass_kinds) == ("forward",)
    rows = []
    for layer in layers:
        for pass_kind in pass_kinds:
            estimate = model.estimate_pass(layer, pass_kind)
            row: Dict[str, object] = {"layer": layer.name}
            if not single_forward:
                row["pass"] = pass_kind
            row.update({
                "time_ms": estimate.time_seconds * 1e3,
                "bottleneck": estimate.bottleneck.value,
                "TFLOP/s": estimate.throughput_tflops,
                "L1_GB": estimate.traffic.l1_bytes / 1e9,
                "L2_GB": estimate.traffic.l2_bytes / 1e9,
                "DRAM_GB": estimate.traffic.dram_bytes / 1e9,
            })
            rows.append(row)
    return rows


def training_step(model: DeltaModel, layers, batch: int = 0,
                  passes: Sequence[str] = ("forward", "dgrad", "wgrad"),
                  name: Optional[str] = None) -> TrainingStepEstimate:
    """A training step with one scalar evaluation per (layer, pass)."""
    layers = list(layers)
    records = []
    for layer in layers:
        for pass_kind in passes:
            records.append(LayerPassEstimate(
                layer_name=layer.name, pass_kind=pass_kind,
                estimate=model.estimate(lower_pass(layer, pass_kind))))
    return TrainingStepEstimate(network=name or "custom", gpu=model.gpu.name,
                                batch=batch or layers[0].batch,
                                passes=tuple(passes), records=tuple(records))


def training_rows(step: TrainingStepEstimate) -> List[Dict[str, object]]:
    """Training rows read record by record through ``traffic_bytes``."""
    rows: List[Dict[str, object]] = []
    for record in step.records:
        estimate = record.estimate
        rows.append({
            "layer": record.layer_name,
            "pass": record.pass_kind,
            "time_ms": record.time_seconds * 1e3,
            "bottleneck": estimate.bottleneck.value,
            "TFLOP/s": estimate.throughput_tflops,
            "L1_GB": record.traffic_bytes("l1") / 1e9,
            "L2_GB": record.traffic_bytes("l2") / 1e9,
            "DRAM_GB": record.traffic_bytes("dram") / 1e9,
        })
    return rows


def training_summary(step: TrainingStepEstimate) -> Dict[str, object]:
    """The training summary summed record by record."""
    times: Dict[str, float] = {kind: 0.0 for kind in step.passes}
    for record in step.records:
        times[record.pass_kind] += record.time_seconds
    payload: Dict[str, object] = {
        "total step time (ms)": sum(record.time_seconds
                                    for record in step.records) * 1e3,
    }
    for kind, seconds in times.items():
        payload[f"{kind} time (ms)"] = seconds * 1e3
    payload["total DRAM (GB)"] = sum(record.traffic_bytes("dram")
                                     for record in step.records) / 1e9
    payload["layer GEMMs"] = len(step.records)
    return payload


def estimate_report(session: Session, request: EstimateRequest) -> Report:
    """The ``estimate`` report built from the per-(layer, pass) loops."""
    gpu = get_device(request.gpu)
    network = get_network(request.network, batch=request.batch,
                          paper_subset=request.paper_subset)
    layers = (network.unique_layers() if request.unique
              else network.gemm_layers())
    model = DeltaModel(gpu)
    if request.passes == "training":
        step = training_step(model, layers, batch=request.batch,
                             passes=request.pass_kinds, name=network.name)
        rows = training_rows(step)
        summary = training_summary(step)
        bottlenecks = Counter(row["bottleneck"] for row in rows)
        summary["dominant bottleneck"] = (bottlenecks.most_common(1)[0][0]
                                          if bottlenecks else "n/a")
        title = (f"{network.name} training step on {gpu.name} "
                 f"(batch {request.batch})")
    else:
        rows = estimate_rows(model, layers, request.pass_kinds)
        bottlenecks = Counter(row["bottleneck"] for row in rows)
        summary = {
            "total conv time (ms)": sum(row["time_ms"] for row in rows),
            "layers": len(rows),
            "dominant bottleneck": (bottlenecks.most_common(1)[0][0]
                                    if bottlenecks else "n/a"),
        }
        title = f"{network.name} on {gpu.name} (batch {request.batch})"
        if request.passes != "forward":
            title = (f"{network.name} {request.passes} pass on "
                     f"{gpu.name} (batch {request.batch})")
    meta = _base_meta(session, request)
    meta.update({"network": network.name, "gpu": gpu.name,
                 "batch": request.batch, "unique": request.unique,
                 "paper_subset": request.paper_subset,
                 "passes": request.passes})
    return Report(kind="estimate", title=title, rows=tuple(rows),
                  summary=summary, meta=meta)
