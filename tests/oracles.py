"""Scalar reference implementations the production paths are checked against.

Production evaluates the performance equations (Eq. 11-18) only through the
batched kernel :func:`repro.core.batched._performance_grid`.  The stream
functions (:func:`gls_time`, :func:`sas_time`, :func:`cs_time`,
:func:`bandwidth_times`, :func:`compute_stream_times`), the prologue /
epilogue terms and :func:`scalar_estimate` are the original one-workload
Python implementation of the same equations: the reference every oracle
below evaluates through, so that no oracle runs through the code it checks.

Production evaluates design points only through the batched
:func:`repro.dse.batch.evaluate_points`.  :func:`evaluate_point` is the
original per-point walk over a workload's layers with
:func:`scalar_estimate`; it is the oracle for the bit-identity tests
(batched == scalar metrics, DSE store bytes, fig16).

Production ``estimate``, ``sweep`` and ``training`` evaluate each
structurally unique layer-pass once (``DeltaModel.estimate_passes``) and
copy its metrics under every layer name.  :func:`estimate_rows`,
:func:`training_step`, :func:`training_rows`, :func:`training_summary` and
:func:`estimate_report` are the original per-(layer, pass) loops, with no
dedupe; the report contents must match them byte for byte.

The simulator classifies cache accesses only through the batched
stack-distance kernels of :mod:`repro.sim.cache`, a whole chunk of a wave
per call.  :class:`LruModel` and :class:`SetAssocModel` are independent
OrderedDict models of LRU replacement, and :func:`reference_simulate` is the
original per-sector simulation loop driven by them; ``SimTraffic`` and
``time_seconds`` must match it bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.frontier import design_cost
from repro.api import EstimateRequest, Report, Session
from repro.api.executor import _base_meta
from repro.core import (Bottleneck, CtaTile, DeltaModel, ExecutionEstimate,
                        GemmWorkload, LayerConfig, LayerPassEstimate,
                        TrafficEstimate, TrainingStepEstimate,
                        active_ctas_per_sm, as_workload, build_grid,
                        expand_passes, lower_pass)
from repro.dse import DesignPoint
from repro.gpu import FP32_BYTES, GpuSpec, get_device
from repro.networks import get_network
from repro.sim.dram import DramChannel
from repro.sim.engine import ConvLayerSimulator, SimResult, SimulatorConfig
from repro.sim.im2col import GemmTraceGenerator, TileAccess
from repro.sim.scheduler import CtaScheduler


@dataclass(frozen=True)
class StreamTimes:
    """Per-main-loop execution time (seconds) of each stream and resource."""

    #: global load stream (Eq. 11): latency + transfer of the slowest level.
    gls: float
    #: shared memory access stream (Eq. 12).
    sas: float
    #: compute stream (Eq. 13).
    cs: float
    #: pure transfer times per level, without pipeline latency (Eq. 18 inputs).
    l1_bw: float
    l2_bw: float
    dram_bw: float
    #: per-level load times including pipeline latency (Eq. 11 terms).
    gls_l1: float
    gls_l2: float
    gls_dram: float

    @property
    def compute_or_smem(self) -> float:
        """max(tCS, tSAS): the non-memory-system critical path per loop."""
        return max(self.cs, self.sas)


def gls_time(traffic: TrafficEstimate, gpu: GpuSpec) -> tuple:
    """Eq. 11: per-loop global load time and its per-level components."""
    clock = gpu.core_clock_hz
    lat_l1 = gpu.lat_l1_cycles / clock
    lat_l2 = gpu.lat_l2_cycles / clock
    lat_dram = gpu.lat_dram_cycles / clock

    l1_bw = gpu.l1_bw_per_sm
    l2_bw_per_sm = gpu.l2_bw / gpu.num_sm
    dram_bw_per_sm = gpu.dram_bw / gpu.num_sm

    t_l1 = lat_l1 + traffic.l1_bytes_per_loop / l1_bw
    t_l2 = lat_l2 + traffic.l2_bytes_per_loop / l2_bw_per_sm
    t_dram = lat_dram + traffic.dram_bytes_per_loop / dram_bw_per_sm
    return max(t_l1, t_l2, t_dram), t_l1, t_l2, t_dram


def sas_time(tile: CtaTile, gpu: GpuSpec, dtype_bytes: int) -> float:
    """Eq. 12: per-loop shared memory store + load time."""
    store_bytes = (tile.blk_m + tile.blk_n) * tile.blk_k * dtype_bytes
    load_bytes = ((tile.warp_m + tile.warp_n) * tile.blk_k
                  * tile.num_warps * dtype_bytes)
    return (store_bytes / gpu.smem_st_bw_per_sm
            + load_bytes / gpu.smem_ld_bw_per_sm)


def cs_time(tile: CtaTile, gpu: GpuSpec) -> float:
    """Eq. 13: per-loop compute (MAC) time on one SM."""
    macs = tile.macs_per_loop
    macs_per_second_per_sm = gpu.macs_per_second / gpu.num_sm
    return macs / macs_per_second_per_sm


def bandwidth_times(traffic: TrafficEstimate, gpu: GpuSpec) -> tuple:
    """Pure per-loop transfer times at L1 (per SM), L2 and DRAM (per-SM share)."""
    t_l1 = traffic.l1_bytes_per_loop / gpu.l1_bw_per_sm
    t_l2 = traffic.l2_bytes_per_loop / (gpu.l2_bw / gpu.num_sm)
    t_dram = traffic.dram_bytes_per_loop / (gpu.dram_bw / gpu.num_sm)
    return t_l1, t_l2, t_dram


def compute_stream_times(traffic: TrafficEstimate, gpu: GpuSpec) -> StreamTimes:
    """All per-main-loop stream times for one layer on one GPU."""
    tile = traffic.grid.tile
    dtype_bytes = traffic.workload.dtype_bytes
    t_gls, gls_l1, gls_l2, gls_dram = gls_time(traffic, gpu)
    t_sas = sas_time(tile, gpu, dtype_bytes)
    t_cs = cs_time(tile, gpu)
    bw_l1, bw_l2, bw_dram = bandwidth_times(traffic, gpu)
    return StreamTimes(
        gls=t_gls,
        sas=t_sas,
        cs=t_cs,
        l1_bw=bw_l1,
        l2_bw=bw_l2,
        dram_bw=bw_dram,
        gls_l1=gls_l1,
        gls_l2=gls_l2,
        gls_dram=gls_dram,
    )


def prologue_time(gpu: GpuSpec, traffic: TrafficEstimate) -> float:
    """Eq. 14: DRAM fetch plus shared-memory staging of the first tiles."""
    tile = traffic.grid.tile
    dtype = traffic.workload.dtype_bytes
    clock = gpu.core_clock_hz
    input_bytes = tile.input_elements_per_loop * dtype
    warp_load_bytes = ((tile.warp_m + tile.warp_n) * tile.blk_k
                       * tile.num_warps * dtype)
    dram_term = (gpu.lat_dram_cycles / clock
                 + input_bytes / (gpu.dram_bw / gpu.num_sm))
    smem_store_term = (gpu.lat_smem_cycles / clock
                       + input_bytes / gpu.smem_st_bw_per_sm)
    smem_load_term = warp_load_bytes / gpu.smem_ld_bw_per_sm
    return dram_term + smem_store_term + smem_load_term


def epilogue_time(gpu: GpuSpec, traffic: TrafficEstimate,
                  bottleneck_bw: Optional[float] = None) -> float:
    """Eq. 15: output tile write-back at ``bottleneck_bw`` (default DRAM)."""
    tile = traffic.grid.tile
    dtype = traffic.workload.dtype_bytes
    output_bytes = tile.output_elements * dtype
    bw = bottleneck_bw if bottleneck_bw is not None else gpu.dram_bw
    return output_bytes / bw


def scalar_estimate(gpu: GpuSpec, source: Union[LayerConfig, GemmWorkload],
                    traffic: TrafficEstimate) -> ExecutionEstimate:
    """Eq. 11-18 for one workload, one Python float at a time."""
    workload = as_workload(source)
    streams = compute_stream_times(traffic, gpu)
    grid = traffic.grid
    tile = grid.tile

    loops = grid.main_loops_per_cta
    num_ctas = grid.num_ctas
    ctas_per_sm = math.ceil(num_ctas / gpu.num_sm)
    active = min(active_ctas_per_sm(tile, gpu, workload.dtype_bytes),
                 ctas_per_sm)

    t_prologue = prologue_time(gpu, traffic)
    t_epilogue = epilogue_time(gpu, traffic)

    candidates: Dict[Bottleneck, float] = {}

    # Eq. 16 -- compute or shared-memory bound (cases 1 and 3).
    t_cs_total = t_prologue + (streams.cs * loops + t_epilogue) * ctas_per_sm
    t_sas_total = t_prologue + (streams.sas * loops + t_epilogue) * ctas_per_sm
    candidates[Bottleneck.MAC_BW] = t_cs_total
    candidates[Bottleneck.SMEM_BW] = t_sas_total

    # Eq. 17 -- global load latency bound (case 2): each wave of active
    # CTAs exposes a full tGLS per loop.
    waves_per_sm = max(1.0, ctas_per_sm / active)
    t_lat_total = (t_prologue
                   + ((streams.gls + streams.compute_or_smem) * loops
                      + t_epilogue) * waves_per_sm)
    candidates[Bottleneck.DRAM_LAT] = t_lat_total

    # Eq. 18 -- memory bandwidth bound (case 4), one per level.
    level_bw = {
        Bottleneck.L1_BW: (streams.l1_bw, gpu.l1_bw_per_sm),
        Bottleneck.L2_BW: (streams.l2_bw, gpu.l2_bw),
        Bottleneck.DRAM_BW: (streams.dram_bw, gpu.dram_bw),
    }
    for label, (per_loop, epilogue_bw) in level_bw.items():
        t_epi = epilogue_time(gpu, traffic, bottleneck_bw=epilogue_bw)
        candidates[label] = (t_prologue
                             + (per_loop * loops + t_epi) * ctas_per_sm)

    bottleneck = max(candidates, key=lambda key: candidates[key])
    time_seconds = candidates[bottleneck]

    return ExecutionEstimate(
        workload=workload,
        gpu=gpu,
        traffic=traffic,
        time_seconds=time_seconds,
        bottleneck=bottleneck,
        candidates=dict(candidates),
        active_ctas=active,
        ctas_per_sm=ctas_per_sm,
    )


def model_estimate(model: DeltaModel,
                   source: Union[LayerConfig, GemmWorkload]
                   ) -> ExecutionEstimate:
    """``model.estimate(source)`` through :func:`scalar_estimate`."""
    workload = as_workload(source)
    return scalar_estimate(model.gpu, workload,
                           model.traffic_model.estimate(workload))


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
            estimates.append(model_estimate(model, layer))
        else:
            for pass_kind in pass_kinds:
                estimates.append(model_estimate(
                    model, lower_pass(layer, pass_kind)))
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
            estimate = model_estimate(model, lower_pass(layer, pass_kind))
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
                estimate=model_estimate(model, lower_pass(layer, pass_kind))))
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


class LruModel:
    """Independent OrderedDict model of fully associative LRU."""

    def __init__(self, capacity_sectors: int) -> None:
        self.capacity = capacity_sectors
        self.entries: "OrderedDict[int, None]" = OrderedDict()

    def access(self, sector: int) -> bool:
        if sector in self.entries:
            self.entries.move_to_end(sector)
            return True
        self.entries[sector] = None
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return False


class SetAssocModel:
    """Independent OrderedDict model of set-indexed LRU."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]

    @classmethod
    def for_capacity(cls, capacity_bytes: int, sector_bytes: int,
                     ways: int) -> "SetAssocModel":
        """The geometry of a ``capacity_bytes`` cache with ``ways`` ways
        (ways capped at the sector count, at least one set)."""
        total_sectors = max(1, capacity_bytes // sector_bytes)
        ways = min(ways, total_sectors)
        return cls(max(1, total_sectors // ways), ways)

    def access(self, sector: int) -> bool:
        entries = self.sets[sector % self.num_sets]
        if sector in entries:
            entries.move_to_end(sector)
            return True
        entries[sector] = None
        if len(entries) > self.ways:
            entries.popitem(last=False)
        return False


def reference_simulate(gpu: GpuSpec, config: SimulatorConfig,
                       workload: GemmWorkload) -> SimResult:
    """The original per-sector simulation loop, one cache access at a time.

    Tiles come from the scalar per-tile trace methods and every access goes
    through the OrderedDict cache models; the timing and extrapolation
    helpers are the simulator's own.
    """
    sim = ConvLayerSimulator(gpu, config)
    grid = build_grid(workload, tile_hw=config.cta_tile_hw)
    tile = grid.tile
    trace = GemmTraceGenerator(workload, tile, gpu)
    scheduler = CtaScheduler(grid, gpu, order=config.scheduling,
                             dtype_bytes=workload.dtype_bytes)
    sector_bytes = gpu.sector_bytes

    l1_caches = [SetAssocModel.for_capacity(gpu.l1_size, sector_bytes,
                                            config.l1_ways)
                 for _ in range(gpu.num_sm)]
    if config.l2_fully_associative:
        l2_cache = LruModel(max(1, gpu.l2_size // sector_bytes))
    else:
        l2_cache = SetAssocModel.for_capacity(gpu.l2_size, sector_bytes,
                                              config.l2_ways)
    dram = DramChannel(gpu)
    b_sector_boundary = trace.layout.b_base // sector_bytes

    # A tiles depend only on (cta_m, k_offset) and B tiles only on
    # (cta_n, k_offset); memoize both.
    tiles: Dict[Tuple[str, int, int], TileAccess] = {}

    def tile_access(operand: str, coord: int, k_offset: int) -> TileAccess:
        key = (operand, coord, k_offset)
        if key not in tiles:
            method = (trace.a_tile_access if operand == "a"
                      else trace.b_tile_access)
            tiles[key] = method(coord, k_offset)
        return tiles[key]

    t_compute = sim._compute_time_per_loop(workload, tile)
    l1_bytes = 0.0
    l2_bytes = 0.0
    dram_a_bytes = 0.0
    dram_b_bytes = 0.0
    l1_requests = 0.0
    simulated_ctas = 0
    simulated_time = 0.0
    k_offsets = [loop * tile.blk_k for loop in range(grid.main_loops_per_cta)]
    budget = config.max_ctas if config.max_ctas is not None else grid.num_ctas

    for wave in scheduler.waves():
        if simulated_ctas >= budget:
            break
        per_sm = wave.per_sm()
        wave_time = 0.0
        for k_offset in k_offsets:
            loop_l1_per_sm: Dict[int, float] = {}
            loop_l2_total = 0.0
            loop_dram_total = 0.0
            for sm, ctas in per_sm.items():
                sm_l1_bytes = 0.0
                for cta_m, cta_n in ctas:
                    a_access = tile_access("a", cta_m, k_offset)
                    b_access = tile_access("b", cta_n, k_offset)
                    l1_requests += a_access.l1_requests + b_access.l1_requests
                    sm_l1_bytes += sum(
                        access.fetch_bytes(config.l1_accounting,
                                           gpu.l1_request_bytes, sector_bytes)
                        for access in (a_access, b_access))
                    for sectors in (a_access.sectors, b_access.sectors):
                        missed = [sector for sector in sectors.tolist()
                                  if not l1_caches[sm].access(sector)]
                        loop_l2_total += len(missed) * sector_bytes
                        for sector in missed:
                            if l2_cache.access(sector):
                                continue
                            loop_dram_total += sector_bytes
                            if sector >= b_sector_boundary:
                                dram_b_bytes += sector_bytes
                            else:
                                dram_a_bytes += sector_bytes
                loop_l1_per_sm[sm] = sm_l1_bytes
                l1_bytes += sm_l1_bytes
            l2_bytes += loop_l2_total
            wave_time += sim._loop_time(per_sm, loop_l1_per_sm, loop_l2_total,
                                        loop_dram_total, t_compute, dram)
        simulated_ctas += wave.num_ctas
        simulated_time += wave_time

    dram.read(dram_a_bytes + dram_b_bytes)
    scale = grid.num_ctas / max(1, simulated_ctas)
    traffic = sim._extrapolate_traffic(workload, grid, scale, l1_bytes,
                                       l2_bytes, dram_a_bytes, dram_b_bytes,
                                       l1_requests)
    time_seconds = sim._total_time(workload, grid, simulated_time, scale, dram)
    return SimResult(layer=workload.layer, gpu=gpu, grid=grid,
                     traffic=traffic, time_seconds=time_seconds,
                     simulated_ctas=simulated_ctas, scale_factor=scale,
                     pass_kind=workload.pass_kind)
