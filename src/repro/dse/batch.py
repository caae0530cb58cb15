"""Array-of-points evaluation for DSE sweeps.

:func:`evaluate_points` is the DSE's only point evaluator: it groups design
points by workload signature, lowers each workload's layers once, and
evaluates the whole group through :mod:`repro.core.batched` in a handful of
NumPy passes instead of one pipeline walk per point.  The metrics dicts it
returns are **bit-identical** to walking each point's layers one by one with
the scalar reference model — same float values, same key order, same
bottleneck-share insertion order.  That walk survives only as a test oracle
(``tests/oracles.py``), pinning content-keyed stores, the fig16 numbers and
resumed sweeps.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.frontier import (_CHIP_COST_WEIGHTS, _PER_SM_COST_WEIGHTS,
                                 design_cost)
from ..core.batched import (CANDIDATE_ORDER, CTA_TILE_FAMILIES,
                            BatchedGpuSpec, WorkloadStack, build_stacks,
                            estimate_grid)
from ..core.traffic import TrafficModel
from ..core.workload import as_workload, expand_passes, lower_pass
from ..gpu.spec import FP32_BYTES, GpuSpec
from ..networks.registry import get_network
from .space import DesignPoint

#: bottleneck labels in candidate-stack order (metrics-dict key strings).
_CANDIDATE_LABELS: Tuple[str, ...] = tuple(b.value for b in CANDIDATE_ORDER)

#: C-level :meth:`DesignPoint.workload_signature` (hot grouping loop).
_signature_of = operator.attrgetter("network", "batch", "passes",
                                    "dtype_bytes")


@lru_cache(maxsize=256)
def _workload_layers(network: str, batch: int, dtype_bytes: int,
                     unique: bool) -> Tuple:
    """The evaluated GEMM layers of one workload (memoized per process)."""
    net = get_network(network, batch=batch)
    layers = net.unique_layers() if unique else net.gemm_layers()
    if dtype_bytes != FP32_BYTES:
        layers = [layer.with_dtype(dtype_bytes) for layer in layers]
    return tuple(layers)


@lru_cache(maxsize=64)
def _workload_plan(base_gpu: GpuSpec, network: str, batch: int,
                   dtype_bytes: int, passes: str, unique: bool,
                   layer_stride: int) -> Tuple[int, int, int, Dict]:
    """Packed per-tile-family workload stacks for one workload signature.

    Returns ``(num_layers, num_gemms, flops_total, stacks)`` where
    ``stacks`` maps each CTA-tile family to a
    :class:`~repro.core.batched.WorkloadStack` holding the GPU-independent
    scalars of the signature's lowered workloads, in the exact order the
    scalar path walks them (layers outer, passes inner).  Traffic is
    design-independent, so this is computed once per (baseline GPU,
    workload signature) and shared by every batch.
    """
    layers = _workload_layers(network, batch, dtype_bytes, unique)
    if layer_stride > 1:
        layers = layers[::layer_stride] or layers[:1]
    pass_kinds = expand_passes(passes)
    workloads = []
    for layer in layers:
        if pass_kinds == ("forward",):
            workloads.append(as_workload(layer))
        else:
            for pass_kind in pass_kinds:
                workloads.append(lower_pass(layer, pass_kind))
    models = {hw: TrafficModel(gpu=base_gpu, cta_tile_hw=hw)
              for hw in CTA_TILE_FAMILIES}
    traffic_grid = tuple(
        {hw: models[hw].estimate(workload) for hw in CTA_TILE_FAMILIES}
        for workload in workloads)
    # Python-int accumulation, matching the scalar `sum(workload.flops)`.
    flops_total = 0
    for workload in workloads:
        flops_total += workload.flops
    return (len(layers), len(workloads), flops_total,
            build_stacks(traffic_grid))


def _design_costs(gpus: BatchedGpuSpec) -> np.ndarray:
    """Vectorized :func:`repro.analysis.frontier.design_cost`.

    Reproduces the scalar accumulation order: the weight sums start at 0 and
    add terms in the weight dicts' insertion order, so the float results are
    bitwise equal to per-point ``design_cost`` calls.
    """
    mult_of = {
        "mac_bw": gpus.mac_bw_mult,
        "regs": gpus.regs_mult,
        "smem_size": gpus.smem_size_mult,
        "smem_bw": gpus.smem_bw_mult,
        "l1_bw": gpus.l1_bw_mult,
        "l2_bw": gpus.l2_bw_mult,
        "dram_bw": gpus.dram_bw_mult,
    }
    per_sm_sum = np.zeros(len(gpus))
    for key, weight in _PER_SM_COST_WEIGHTS.items():
        per_sm_sum = per_sm_sum + weight * (mult_of[key] - 1.0)
    chip = np.zeros(len(gpus))
    for key, weight in _CHIP_COST_WEIGHTS.items():
        chip = chip + weight * (mult_of[key] - 1.0)
    return gpus.num_sm_mult * (1.0 + per_sm_sum) + chip


def _concat_stacks(stack_list: Sequence[WorkloadStack]) -> WorkloadStack:
    """Concatenate per-group workload stacks along the workload axis."""
    if len(stack_list) == 1:
        return stack_list[0]
    return WorkloadStack(**{
        f.name: np.concatenate([getattr(stack, f.name)
                                for stack in stack_list], axis=0)
        for f in dataclasses.fields(WorkloadStack)})


def _assemble_group(plan: Tuple[int, int, int, Dict],
                    times: np.ndarray, index: np.ndarray,
                    dram_rows: np.ndarray, l2_rows: np.ndarray,
                    cost_list: List[float],
                    cost_reprs: Optional[List[str]] = None
                    ) -> Tuple[List[Dict[str, object]],
                               Optional[List[str]]]:
    """Metrics dicts of one workload-signature group from its (W, N) slab.

    With ``cost_reprs`` (pre-``repr``'d resource costs) the group also
    serializes each record as the exact ``json.dumps(record,
    sort_keys=True)`` line the result store appends — cheaply, because the
    group structure bounds the distinct values: layers/gemms are group
    constants, dram/l2 traffic takes one value per CTA-tile family, and
    ``repr`` of an int/finite float is json's number serialization.  Lines
    with a non-finite float (which json spells differently) fall back to
    the real encoder.
    """
    num_layers, num_workloads, flops, _ = plan
    num_labels = len(_CANDIDATE_LABELS)

    # Per-label hit masks and zero-masked times: the scalar shares Counter
    # only adds positive times, and adding the +0.0 the mask leaves behind
    # never changes a non-negative float accumulator, so summing the masked
    # rows sequentially is bit-identical to the conditional adds.
    hit = (times > 0.0)[np.newaxis] & (
        index[np.newaxis] == np.arange(num_labels)[:, np.newaxis, np.newaxis])
    masked = np.where(hit, times[np.newaxis], 0.0)      # (L, W, N)

    # Sequential per-workload accumulation via ufunc.accumulate — unlike
    # np.sum's pairwise reduction, accumulate adds strictly left to right,
    # so the last prefix equals the scalar running sums bit for bit.
    total = np.add.accumulate(times, axis=0)[-1]
    dram_bytes = np.add.accumulate(dram_rows, axis=0)[-1]
    l2_bytes = np.add.accumulate(l2_rows, axis=0)[-1]
    share = np.add.accumulate(masked, axis=1)[:, -1, :]

    # The workload index at which each label first bounds each point — the
    # scalar shares dict inserts labels in first-occurrence order (zero-time
    # workloads skipped), which the stable argsort below reproduces.
    first_seen = np.where(hit.any(axis=1), hit.argmax(axis=1), num_workloads)

    flops_f = float(flops)
    with np.errstate(divide="ignore", invalid="ignore"):
        throughput = np.where(total > 0.0, flops_f / total / 1e12, 0.0)

    # Pull everything into plain Python containers once (C-speed) so the
    # per-point dict assembly below stays cheap.
    order = np.argsort(first_seen, axis=0, kind="stable").T.tolist()
    first_list = first_seen.T.tolist()
    share_list = share.T.tolist()
    total_list = total.tolist()
    throughput_list = throughput.tolist()
    dram_list = (dram_bytes / 1e9).tolist()
    l2_list = (l2_bytes / 1e9).tolist()

    lines: Optional[List[str]] = None
    if cost_reprs is not None:
        lines = []
        # json renders the group constants once; traffic takes at most one
        # value per CTA-tile family, so its reprs are cached by value.
        line_tmpl = ('{"bottlenecks": {%s}, "dram_gb": %s, "gemms": '
                     + repr(num_workloads) + ', "l2_gb": %s, "layers": '
                     + repr(num_layers)
                     + ', "resource_cost": %s, "throughput_tflops": %r, '
                       '"time_s": %r}')
        traffic_reprs: Dict[float, str] = {}

    results: List[Dict[str, object]] = []
    results_append = results.append
    labels = _CANDIDATE_LABELS
    for p, (point_total, throughput, dram_gb, l2_gb, cost, point_order,
            firsts, shares) in enumerate(zip(
                total_list, throughput_list, dram_list, l2_list, cost_list,
                order, first_list, share_list)):
        bottlenecks: Dict[str, float] = {}
        if point_total > 0:
            for label in point_order:
                if firsts[label] >= num_workloads:
                    break
                bottlenecks[labels[label]] = shares[label] / point_total
        record = {
            "time_s": point_total,
            "throughput_tflops": throughput,
            "dram_gb": dram_gb,
            "l2_gb": l2_gb,
            "resource_cost": cost,
            "layers": num_layers,
            "gemms": num_workloads,
            "bottlenecks": bottlenecks,
        }
        results_append(record)
        if lines is not None:
            dram_repr = traffic_reprs.get(dram_gb)
            if dram_repr is None:
                dram_repr = traffic_reprs[dram_gb] = repr(dram_gb)
            l2_repr = traffic_reprs.get(l2_gb)
            if l2_repr is None:
                l2_repr = traffic_reprs[l2_gb] = repr(l2_gb)
            parts = ", ".join(
                ['"%s": %r' % (label, bottlenecks[label])
                 for label in sorted(bottlenecks)]) if bottlenecks else ""
            line = line_tmpl % (parts, dram_repr, l2_repr, cost_reprs[p],
                                throughput, point_total)
            if "inf" in line or "nan" in line:
                line = json.dumps(record, sort_keys=True)
            lines.append(line)
    return results, lines


def evaluate_points(base_gpu: GpuSpec, points: Sequence[DesignPoint], *,
                    unique: bool = True, layer_stride: int = 1,
                    serialize: bool = False):
    """Evaluate many design points with the analytic model.

    Groups the points by workload signature; groups that range over the
    *same* design list (the common case for a grid sweep, whose workload
    axes multiply the design axes) are fused into one stacked
    (sum-of-workloads x designs) grid so the whole sweep runs in a couple of
    NumPy passes.  Returns one metrics dict per input point, in input order,
    bit-identical to per-point scalar evaluation.  Each dict holds
    ``time_s``, ``throughput_tflops``, ``dram_gb``, ``l2_gb``,
    ``resource_cost``, ``layers``, ``gemms`` and the Fig. 16c-style
    ``bottlenecks`` time shares.  ``layer_stride`` > 1 subsamples the
    workload's layers — the cheap proxy the successive-halving driver ranks
    candidates with.  Raises ``ValueError`` when a design is outside the
    model's domain (see :meth:`BatchedGpuSpec.from_options`).

    With ``serialize=True`` returns ``(records, lines)`` where ``lines[i]``
    is ``json.dumps(records[i], sort_keys=True)`` — produced while the group
    structure is still known, which makes it much cheaper than re-deriving
    it record by record (the result store splices these into its JSONL
    lines).
    """
    results: List[Optional[Dict[str, object]]] = [None] * len(points)
    lines: Optional[List[Optional[str]]] = (
        [None] * len(points) if serialize else None)
    groups: Dict[Tuple[str, int, str, int], List[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(_signature_of(point), []).append(i)

    # Partition signature groups by their (ordered) design list.
    fused: Dict[Tuple, List[Tuple[List[int], Tuple]]] = {}
    for indices in groups.values():
        first = points[indices[0]]
        plan = _workload_plan(base_gpu, first.network, first.batch,
                              first.dtype_bytes, first.passes, unique,
                              layer_stride)
        options = tuple(points[i].option for i in indices)
        fused.setdefault(options, []).append((indices, plan))

    for options, entries in fused.items():
        gpus = BatchedGpuSpec.from_options(base_gpu, options)
        cost_list = _design_costs(gpus).tolist()
        cost_reprs = ([repr(cost) for cost in cost_list] if serialize
                      else None)
        stacks = {hw: _concat_stacks([plan[3][hw] for _, plan in entries])
                  for hw in CTA_TILE_FAMILIES}
        est = estimate_grid(gpus, stacks=stacks)
        offset = 0
        for indices, plan in entries:
            num_workloads = plan[1]
            slab = slice(offset, offset + num_workloads)
            offset += num_workloads
            metrics, group_lines = _assemble_group(
                plan, est.times[slab], est.bottleneck_index[slab],
                est.dram_bytes[slab], est.l2_bytes[slab], cost_list,
                cost_reprs)
            for i, point_metrics in zip(indices, metrics):
                results[i] = point_metrics
            if serialize:
                for i, line in zip(indices, group_lines):
                    lines[i] = line
    if serialize:
        return results, lines
    return results


__all__ = ["evaluate_points", "_workload_layers", "design_cost"]
