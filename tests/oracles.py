"""Scalar reference implementations the production paths are checked against.

Production evaluates design points only through the batched
:func:`repro.dse.batch.evaluate_points`.  :func:`evaluate_point` is the
original per-point walk of the scalar :class:`~repro.core.model.DeltaModel`
over a workload's layers; it uses public APIs only and is the oracle for the
bit-identity tests (batched == scalar metrics, DSE store bytes, fig16).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.analysis.frontier import design_cost
from repro.core import DeltaModel, expand_passes
from repro.dse import DesignPoint
from repro.gpu import FP32_BYTES, GpuSpec
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

