"""High-level DeLTA facade: one object that answers traffic and time queries.

:class:`DeltaModel` is the public entry point most users want::

    from repro import DeltaModel, TITAN_XP, alexnet

    model = DeltaModel(TITAN_XP)
    for layer in alexnet(batch=256).conv_layers():
        estimate = model.estimate(layer)
        print(layer.name, estimate.time_seconds, estimate.bottleneck)

Every query accepts either a :class:`~repro.core.layer.ConvLayerConfig`
(evaluated as its forward-pass GEMM, exactly the seed behaviour) or a
:class:`~repro.core.workload.GemmWorkload` produced by the pass lowering;
:meth:`DeltaModel.estimate_pass` and :meth:`DeltaModel.estimate_training_step`
cover the backward passes and whole training steps::

    step = model.estimate_training_step(alexnet(batch=256))
    print(step.total_time_seconds, step.time_by_pass)

Whole networks go through :meth:`DeltaModel.estimate_passes`, which
evaluates each structurally unique layer-pass once.  Every multi-workload
query lowers and runs traffic per workload, then evaluates the performance
equations for the whole list in one batched-kernel call
(:func:`~repro.core.performance.estimate_workloads`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..gpu.spec import GpuSpec
from .dram import DramModelOptions
from .l1 import ReplicationMode
from .l2 import L2ModelOptions
from .layer import LayerConfig
from .performance import (ExecutionEstimate, PerformanceModel,
                          estimate_workloads)
from .traffic import TrafficEstimate, TrafficModel
from .training import (LayerPassEstimate, TrainingStepEstimate,
                       estimate_training_step)
from .workload import (TRAINING_PASSES, GemmWorkload, PassKind, as_workload,
                       lower_pass, training_workloads)

Source = Union[LayerConfig, GemmWorkload]


@dataclass(frozen=True)
class DeltaModel:
    """The complete DeLTA model: memory traffic (Sec. IV) + performance (Sec. V)."""

    gpu: GpuSpec
    l2_options: L2ModelOptions = field(default_factory=L2ModelOptions)
    dram_options: DramModelOptions = field(default_factory=DramModelOptions)
    #: how often each input matrix is streamed through L1 (see repro.core.l1).
    l1_replication: ReplicationMode = "per-cta"
    #: CTA tile height/width family (128 for stock kernels, 256 for Fig. 16a
    #: options 7-9).
    cta_tile_hw: int = 128

    @property
    def traffic_model(self) -> TrafficModel:
        return TrafficModel(
            gpu=self.gpu,
            l2_options=self.l2_options,
            dram_options=self.dram_options,
            l1_replication=self.l1_replication,
            cta_tile_hw=self.cta_tile_hw,
        )

    @property
    def performance_model(self) -> PerformanceModel:
        return PerformanceModel(gpu=self.gpu, traffic_model=self.traffic_model)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def traffic(self, source: Source) -> TrafficEstimate:
        """Estimate L1/L2/DRAM traffic for one workload (or forward layer)."""
        return self.traffic_model.estimate(source)

    def estimate(self, source: Source) -> ExecutionEstimate:
        """Estimate execution time and bottleneck for one workload."""
        return self.performance_model.estimate(source)

    def estimate_pass(self, layer: LayerConfig,
                      pass_kind: PassKind) -> ExecutionEstimate:
        """Estimate one training pass (forward, dgrad or wgrad) of a layer."""
        return self.estimate(lower_pass(layer, pass_kind))

    def estimate_layer_training(self, layer: LayerConfig
                                ) -> List[ExecutionEstimate]:
        """All three training-pass estimates of one layer, in pass order."""
        return self.estimate_layers(training_workloads(layer))

    def estimate_passes(self, layers: Iterable[LayerConfig],
                        pass_kinds: Sequence[PassKind] = ("forward",)
                        ) -> List[LayerPassEstimate]:
        """One record per (layer, pass): layers outer, passes inner.

        The model equations depend on a layer's shape, pass and dtype, never
        on its name, so lowering and traffic run once per unique
        ``(layer.structural_key(), pass_kind)`` and one kernel call evaluates
        the unique workloads; every duplicate shares that key's frozen
        estimate under its own layer name.
        """
        slots: Dict[Tuple, int] = {}
        workloads = []
        entries = []
        for layer in layers:
            shape = layer.structural_key()
            for pass_kind in pass_kinds:
                key = (shape, pass_kind)
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(workloads)
                    workloads.append(lower_pass(layer, pass_kind))
                entries.append((layer.name, pass_kind, slot))
        estimates = self.estimate_layers(workloads)
        return [LayerPassEstimate(name, pass_kind, estimates[slot])
                for name, pass_kind, slot in entries]

    def estimate_layers(self, layers: Iterable[Source]) -> List[ExecutionEstimate]:
        """Estimate every layer of a network (or any workload iterable)."""
        traffic_model = self.traffic_model
        workloads = [as_workload(source) for source in layers]
        return estimate_workloads(self.gpu, [
            (workload, traffic_model.estimate(workload))
            for workload in workloads])

    def total_time(self, layers: Iterable[Source]) -> float:
        """Total predicted execution time (seconds) of a sequence of layers."""
        return sum(estimate.time_seconds for estimate in self.estimate_layers(layers))

    def estimate_training_step(self, network,
                               passes: Tuple[PassKind, ...] = TRAINING_PASSES
                               ) -> TrainingStepEstimate:
        """Per-pass and total time/traffic of one training step of a network."""
        return estimate_training_step(self, network, passes=passes)

    def for_gpu(self, gpu: GpuSpec) -> "DeltaModel":
        """A copy of this model targeting a different (e.g. scaled) GPU."""
        return DeltaModel(
            gpu=gpu,
            l2_options=self.l2_options,
            dram_options=self.dram_options,
            l1_replication=self.l1_replication,
            cta_tile_hw=self.cta_tile_hw,
        )
