"""Tests for the GPU resource scaling study (Section VII-C, Fig. 16).

The study is a design-space exploration over the nine Fig. 16a options on
ResNet152's full GEMM layer list — exactly what the ``fig16`` experiment
runs (:func:`repro.dse.explore` with ``unique=False``).
"""

import pytest

from repro.core.bottleneck import Bottleneck
from repro.dse import ExhaustiveDriver, explore, grid, space_from_options
from repro.gpu import PAPER_DESIGN_OPTIONS, TITAN_XP, get_design_option
from repro.networks import resnet152

#: a reduced batch keeps the analytical evaluation fast while preserving the
#: compute/memory balance of each layer.
BATCH = 64


def _study(options):
    space = space_from_options(tuple(options), network="resnet152",
                               batch=BATCH)
    return explore(space, driver=ExhaustiveDriver(), base_gpu=TITAN_XP,
                   objectives=("time",), unique=False)


def _memory_share(result):
    return sum(share for label, share in result.metrics["bottlenecks"].items()
               if Bottleneck(label).is_memory_bound)


@pytest.fixture(scope="module")
def exploration():
    return _study(PAPER_DESIGN_OPTIONS)


@pytest.fixture(scope="module")
def speedups(exploration):
    return {r.point.name: exploration.speedup(r) for r in exploration.results}


class TestScalingStudy:
    def test_one_result_per_option(self, exploration):
        assert len(exploration.results) == len(PAPER_DESIGN_OPTIONS)
        assert [r.point.name for r in exploration.results] == \
            [option.name for option in PAPER_DESIGN_OPTIONS]

    def test_all_speedups_positive(self, speedups):
        assert all(speedup > 0 for speedup in speedups.values())

    def test_option2_beats_option1(self, speedups):
        assert speedups["2"] > speedups["1"] > 1.0

    def test_compute_only_scaling_saturates(self, speedups):
        """Options 3-4 only add MAC throughput; the paper finds ~2x headroom."""
        assert speedups["4"] < 2.6
        assert speedups["4"] < speedups["2"]

    def test_balanced_option5_close_to_option2(self, speedups):
        assert speedups["5"] == pytest.approx(speedups["2"], rel=0.25)

    def test_option9_is_among_the_best(self, speedups):
        best = max(speedups.values())
        assert speedups["9"] >= 0.8 * best
        assert speedups["9"] > speedups["5"]

    def test_bottleneck_distribution_sums_to_one(self, exploration):
        for result in exploration.results:
            distribution = result.metrics["bottlenecks"]
            assert sum(distribution.values()) == pytest.approx(1.0)
            assert all(0 <= share <= 1 for share in distribution.values())

    def test_compute_only_options_become_memory_bound(self, exploration):
        """Scaling MACs without memory shifts layers to memory bottlenecks."""
        by_name = {r.point.name: r for r in exploration.results}
        assert _memory_share(by_name["4"]) > _memory_share(by_name["1"])

    def test_bottleneck_counts_match_layer_count(self, exploration):
        layers = len(resnet152(batch=BATCH).gemm_layers())
        for result in exploration.results:
            # forward only: one GEMM (one bottleneck) per layer.
            assert result.metrics["layers"] == layers
            assert result.metrics["gemms"] == layers

    def test_baseline_result_has_unit_speedup(self, exploration):
        (baseline,) = exploration.baselines.values()
        assert baseline.point.option.name == "baseline"
        assert exploration.speedup(baseline) == 1.0
        assert baseline.metrics["time_s"] > 0

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            grid({"network": ()}, batch=BATCH)

    def test_subset_of_options_supported(self):
        exploration = _study((get_design_option("2"),))
        assert len(exploration.results) == 1
        assert exploration.results[0].point.name == "2"
