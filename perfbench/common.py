"""Helpers shared by the workload modules."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class Outcome:
    """What one workload's measurement window produced."""

    #: end-to-end metrics of the untraced segments, by BENCHMARK.json name.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: per-layer metrics of the traced segments, by BENCHMARK.json name.
    layers: Dict[str, float] = field(default_factory=dict)
    #: the workload's own named figures, as (name, value, unit).
    named: List[Tuple[str, float, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: failed output checks; any entry makes the run incorrect.
    errors: List[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation between samples)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values: Sequence[float]) -> float:
    """The highest percentile, at most the 95th, that still has at least ten
    samples beyond it (the median when there are fewer than 20 samples)."""
    pct = max(50, min(95, int(100 * (1 - 10 / len(values)))))
    return percentile(values, pct)


def segments(seconds: float, trace: bool) -> List[Tuple[bool, float]]:
    """``(traced, length_s)`` segments of a measurement window.

    An untraced run measures one segment.  A traced run alternates untraced
    and traced quarters, so the tracing overhead is the cost difference
    between the two halves taken under the same warm state.
    """
    if not trace:
        return [(False, seconds)]
    quarter = seconds / 4.0
    return [(False, quarter), (True, quarter), (False, quarter),
            (True, quarter)]


def overhead_pct(untraced_cost: float, traced_cost: float) -> float:
    """Tracing overhead: extra cost per operation of traced segments, in %."""
    return (traced_cost / untraced_cost - 1.0) * 100.0
