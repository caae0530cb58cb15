"""DeLTA performance model (Section V of the paper).

Given the per-main-loop traffic volumes produced by the traffic model and the
GPU specification, the performance model evaluates the execution time of a
convolution layer under each potential resource bottleneck (Fig. 10) and
reports the largest one together with its bottleneck label:

* **Eq. 16** — compute / shared-memory bound (cases 1 and 3): per-SM time is
  the sum of ``max(tCS, tSAS)`` over every main loop of every CTA the SM runs.
* **Eq. 17** — DRAM (global load) latency bound (case 2): too few active CTAs
  to hide ``tGLS``, so each wave of active CTAs pays the full load latency.
* **Eq. 18** — memory bandwidth bound (case 4): the per-loop transfer time of
  the saturated level dominates; evaluated separately for L1, L2 and DRAM.

The prologue (Eq. 14) is charged once and the epilogue (Eq. 15) once per CTA.
The per-SM CTA count uses the most-loaded SM (``ceil(NumCTA / NumSM)``)
because that SM determines the layer's completion time.

Note on Eq. 14: the paper's printed equation uses ``blkM x blkN`` for the
prologue volume; the prologue actually stages the *input* tiles
(``(blkM + blkN) x blkK`` elements), which is what this implementation uses.
The difference is negligible (the prologue is charged once per layer).

The equations are implemented once, as the array kernel
:func:`repro.core.batched._performance_grid`.  :func:`estimate_workloads`
runs it for a list of workloads on one GPU in a single call and converts
each row into an :class:`ExecutionEstimate` of plain Python numbers;
:meth:`PerformanceModel.estimate` is that function on one workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..gpu.design_options import DesignOption
from ..gpu.spec import GpuSpec
from .batched import (CANDIDATE_ORDER, BatchedGpuSpec, WorkloadStack,
                      _performance_grid)
from .bottleneck import Bottleneck
from .layer import LayerConfig
from .traffic import TrafficEstimate, TrafficModel
from .workload import GemmWorkload, as_workload


@dataclass(frozen=True)
class ExecutionEstimate:
    """Predicted execution time of one GEMM workload on one GPU."""

    workload: GemmWorkload
    gpu: GpuSpec
    traffic: TrafficEstimate
    #: execution time in seconds of the most-loaded SM (the layer's runtime).
    time_seconds: float
    #: the resource that bounds the execution time.
    bottleneck: Bottleneck
    #: per-candidate execution times (seconds) keyed by bottleneck label.
    candidates: Dict[Bottleneck, float]
    #: CTAs resident per SM used by the latency-hiding analysis.
    active_ctas: int
    #: CTAs executed by the most-loaded SM.
    ctas_per_sm: int

    @property
    def layer(self) -> LayerConfig:
        """The layer the workload was lowered from."""
        return self.workload.layer

    @property
    def pass_kind(self) -> str:
        return self.workload.pass_kind

    @property
    def cycles(self) -> float:
        """Execution time converted to core clock cycles."""
        return self.time_seconds * self.gpu.core_clock_hz

    @property
    def throughput_tflops(self) -> float:
        """Achieved FP32 throughput in TFLOP/s."""
        if self.time_seconds <= 0:
            return 0.0
        return self.workload.flops / self.time_seconds / 1e12

    @property
    def mac_efficiency(self) -> float:
        """Achieved fraction of the device's peak MAC throughput."""
        peak = self.gpu.fp32_flops
        return min(1.0, self.workload.flops / (self.time_seconds * peak))


def estimate_workloads(gpu: GpuSpec,
                       pairs: Sequence[Tuple[GemmWorkload, TrafficEstimate]]
                       ) -> List[ExecutionEstimate]:
    """Estimate W ``(workload, traffic)`` pairs on ``gpu`` in one kernel call.

    ``gpu`` becomes a single-design batch (the identity design option) and
    the traffic estimates one :class:`WorkloadStack`; the (W, 1) results are
    read back with ``tolist`` so every field is a plain ``float``/``int``.
    """
    design = BatchedGpuSpec.from_options(gpu, [DesignOption(name=gpu.name)])
    stack = WorkloadStack.from_traffic([traffic for _, traffic in pairs])
    times, index, candidates, active, ctas_per_sm = _performance_grid(
        design, stack)
    rows = zip(pairs, times[:, 0].tolist(), index[:, 0].tolist(),
               zip(*(candidate[:, 0].tolist() for candidate in candidates)),
               active[:, 0].tolist(), ctas_per_sm[:, 0].tolist())
    return [ExecutionEstimate(workload=workload, gpu=gpu, traffic=traffic,
                              time_seconds=seconds,
                              bottleneck=CANDIDATE_ORDER[bottleneck],
                              candidates=dict(zip(CANDIDATE_ORDER, row)),
                              active_ctas=resident, ctas_per_sm=per_sm)
            for (workload, traffic), seconds, bottleneck, row, resident, per_sm
            in rows]


@dataclass(frozen=True)
class PerformanceModel:
    """DeLTA's execution time and bottleneck model (Section V)."""

    gpu: GpuSpec
    traffic_model: Optional[TrafficModel] = None

    def estimate(self, source: Union[LayerConfig, GemmWorkload],
                 traffic: Optional[TrafficEstimate] = None) -> ExecutionEstimate:
        """Predict execution time and bottleneck for one workload."""
        workload = as_workload(source)
        if traffic is None:
            model = self.traffic_model or TrafficModel(gpu=self.gpu)
            traffic = model.estimate(workload)
        return estimate_workloads(self.gpu, [(workload, traffic)])[0]
