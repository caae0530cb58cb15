"""Tests for the DSE orchestrator (repro.dse.runner) and its API surface:
the fig16 pin (golden numbers and the scalar oracle), point evaluation
semantics, domain rejections, session integration and the DseRequest
execution path."""

import json
import os

import pytest
from oracles import evaluate_point, workload_layers

from repro.api import DseRequest, Session
from repro.dse import (
    DesignPoint,
    ExplicitSpace,
    confirm_frontier,
    evaluate_points,
    explore,
    grid,
    space_from_options,
)
from repro.experiments.fig16_scaling import run as run_fig16
from repro.gpu import PAPER_DESIGN_OPTIONS, TITAN_XP, DesignOption

with open(os.path.join(os.path.dirname(__file__), "golden_fig16.json"),
          encoding="utf-8") as _handle:
    GOLDEN_FIG16 = json.load(_handle)


@pytest.fixture(scope="module")
def small_space():
    return grid({"num_sm": (1, 2), "mac_bw": (1, 4), "dram_bw": (1, 2)},
                network="alexnet", batch=16)


class TestFig16Equivalence:
    """Acceptance: fig16 at batch 64 reproduces the committed golden numbers
    (generated by the hand-enumerated scaling study it replaced) and the
    per-layer scalar oracle, bit for bit."""

    @pytest.fixture(scope="class")
    def dse_result(self):
        return run_fig16(batch=64)

    @staticmethod
    def _speedup_rows(result):
        return [row for row in result.rows if "speedup" in row]

    @staticmethod
    def _bottleneck_rows(result):
        return [row for row in result.rows
                if "speedup" not in row and "NSM" not in row]

    def test_speedups_bit_identical(self, dse_result):
        rows = self._speedup_rows(dse_result)
        golden = GOLDEN_FIG16["options"]
        assert len(rows) == len(golden) == 9
        for old, row in zip(golden, rows):
            assert row["option"] == old["option"]
            assert row["speedup"] == old["speedup"]
            assert row["total_time_ms"] == old["total_time_s"] * 1e3

    def test_bottleneck_distributions_bit_identical(self, dse_result):
        rows = self._bottleneck_rows(dse_result)
        golden = GOLDEN_FIG16["options"]
        assert len(rows) == len(golden)
        for old, row in zip(golden, rows):
            assert row["option"] == old["option"]
            assert {k: v for k, v in row.items() if k != "option"} == \
                old["bottlenecks"]

    def test_matches_scalar_oracle(self, dse_result):
        baseline = evaluate_point(
            TITAN_XP, DesignPoint(option=DesignOption("baseline"),
                                  network="resnet152", batch=64),
            unique=False)
        assert baseline["time_s"] == GOLDEN_FIG16["baseline_time_s"]
        assert baseline["layers"] == GOLDEN_FIG16["layers"]
        rows = zip(PAPER_DESIGN_OPTIONS, self._speedup_rows(dse_result),
                   self._bottleneck_rows(dse_result))
        for option, speedup_row, bottleneck_row in rows:
            metrics = evaluate_point(
                TITAN_XP, DesignPoint(option=option, network="resnet152",
                                      batch=64), unique=False)
            assert speedup_row["speedup"] == \
                baseline["time_s"] / metrics["time_s"]
            assert speedup_row["total_time_ms"] == metrics["time_s"] * 1e3
            assert {k: v for k, v in bottleneck_row.items()
                    if k != "option"} == metrics["bottlenecks"]

    def test_series_and_summary_shape_preserved(self, dse_result):
        assert "speedup vs TITAN Xp" in dse_result.series
        assert len(dse_result.series["speedup vs TITAN Xp"]) == 9
        assert dse_result.summary["best_option"] == "9"
        assert dse_result.summary["layers"] == 156


class TestEvaluatePoint:
    def test_identity_point_matches_direct_model(self):
        from repro.core.model import DeltaModel
        from repro.networks import alexnet
        point = DesignPoint(option=DesignOption("baseline"),
                            network="alexnet", batch=16)
        metrics = evaluate_points(TITAN_XP, [point], unique=False)[0]
        model = DeltaModel(TITAN_XP)
        expected = sum(model.estimate(layer).time_seconds
                       for layer in alexnet(batch=16).gemm_layers())
        assert metrics["time_s"] == expected

    def test_training_pass_evaluates_three_gemms_per_layer(self):
        point = DesignPoint(option=DesignOption("baseline"),
                            network="alexnet", batch=16, passes="training")
        metrics = evaluate_points(TITAN_XP, [point], unique=True)[0]
        assert metrics["gemms"] == 3 * metrics["layers"]

    def test_metrics_contract(self):
        point = DesignPoint(option=DesignOption("x", num_sm=2.0),
                            network="alexnet", batch=16)
        metrics = evaluate_points(TITAN_XP, [point])[0]
        assert list(metrics) == ["time_s", "throughput_tflops", "dram_gb",
                                 "l2_gb", "resource_cost", "layers", "gemms",
                                 "bottlenecks"]
        assert metrics["time_s"] > 0
        assert sum(metrics["bottlenecks"].values()) == pytest.approx(1.0)

    def test_layer_stride_subsamples(self):
        point = DesignPoint(option=DesignOption("baseline"),
                            network="vgg16", batch=16)
        full = evaluate_points(TITAN_XP, [point], unique=True)[0]
        proxy = evaluate_points(TITAN_XP, [point], unique=True,
                                layer_stride=4)[0]
        assert proxy["layers"] < full["layers"]
        assert proxy["time_s"] < full["time_s"]
        assert proxy["layers"] == len(
            workload_layers("vgg16", 16, 4, True)[::4])
        assert json.dumps(proxy) == json.dumps(evaluate_point(
            TITAN_XP, point, unique=True, layer_stride=4))


class TestDomainRejection:
    """Out-of-domain multipliers fail their own point, never a row of
    garbage: NaN, inf and 1e308 (which overflows the scaled resources)."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e308])
    @pytest.mark.parametrize("key", ["num_sm", "regs", "dram_bw"])
    def test_bad_multiplier_becomes_point_failure(self, key, value):
        good = [DesignPoint(option=DesignOption("baseline"),
                            network="alexnet", batch=8),
                DesignPoint(option=DesignOption("x", num_sm=2.0),
                            network="alexnet", batch=8)]
        bad = DesignPoint(option=DesignOption("bad", **{key: value}),
                          network="alexnet", batch=8)
        with pytest.raises(ValueError):
            evaluate_points(TITAN_XP, [bad])
        exploration = explore(ExplicitSpace((good[0], bad, good[1])))
        assert [f.point.name for f in exploration.failures] == ["bad"]
        assert exploration.failures[0].failure.error_type == "ValueError"
        assert [r.point.name for r in exploration.results] == ["baseline",
                                                               "x"]
        for result in exploration.results:
            assert json.dumps(result.metrics) == json.dumps(
                evaluate_point(TITAN_XP, result.point))

    def test_bad_point_isolated_in_pool_chunk(self):
        points = (DesignPoint(option=DesignOption("x", num_sm=2.0),
                              network="alexnet", batch=8),
                  DesignPoint(option=DesignOption("bad", mac_bw=1e308),
                              network="alexnet", batch=8))
        with Session(jobs=2, retries=0) as session:
            exploration = explore(ExplicitSpace(points), session=session)
        assert [f.point.name for f in exploration.failures] == ["bad"]
        assert [r.point.name for r in exploration.results] == ["x"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_axis_rejects_non_finite_and_non_positive(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            grid({"num_sm": (1, value)}, network="alexnet", batch=8)

    def test_axis_accepts_finite_huge_multiplier_then_fails_point(self):
        space = grid({"num_sm": (1, 1e308)}, network="alexnet", batch=8)
        exploration = explore(space)
        assert len(exploration.results) == 1
        assert len(exploration.failures) == 1
        assert exploration.failures[0].point.option.num_sm == 1e308


class TestExplore:
    def test_exhaustive_explore_shape(self, small_space):
        result = explore(small_space)
        assert len(result.results) == len(small_space)
        assert result.stats.planned == len(small_space)
        assert 0 < len(result.frontier) <= len(small_space)
        for index in result.frontier:
            assert result.results[index].metrics["time_s"] > 0

    def test_speedup_against_identity_baseline(self, small_space):
        result = explore(small_space)
        by_name = {r.point.name: r for r in result.results}
        assert result.speedup(by_name["baseline"]) == pytest.approx(1.0)
        assert result.speedup(by_name["num_sm=2,mac_bw=4,dram_bw=2"]) > 1.0

    def test_frontier_rows_ranked_by_primary_objective(self, small_space):
        result = explore(small_space, objectives=("throughput", "cost"))
        rows = result.frontier_rows()
        tputs = [row["TFLOP/s"] for row in rows]
        assert tputs == sorted(tputs, reverse=True)
        assert rows[0]["rank"] == 1

    def test_without_baseline(self, small_space):
        result = explore(small_space, include_baseline=False)
        assert result.baselines == {}
        assert all("speedup" not in row for row in result.frontier_rows())

    def test_session_memo_dedupes_across_explores(self, small_space):
        with Session() as session:
            first = explore(small_space, session=session)
            second = explore(small_space, session=session)
        assert first.stats.evaluated > 0
        assert second.stats.evaluated == 0
        # the identity point is part of the grid, so the implicit baseline
        # shares its key: one memo hit per unique content key.
        assert second.stats.memo_hits == len(small_space)
        assert session.stats.dse_points == first.stats.evaluated
        assert session.stats.dse_memo_hits == second.stats.memo_hits


class TestConfirmFrontier:
    def test_attaches_simulator_ratio_to_top_points(self, small_space):
        with Session() as session:
            result = explore(small_space, session=session)
            confirmed = confirm_frontier(result, session, top=1, max_ctas=10)
        attached = [r for r in confirmed.results if r.confirmation is not None]
        assert len(attached) == 1
        record = attached[0].confirmation
        assert record["sim_time_s"] > 0
        assert record["model_time_s"] > 0
        assert record["sim_model_ratio"] == pytest.approx(
            record["sim_time_s"] / record["model_time_s"])

    def test_zero_top_is_noop(self, small_space):
        result = explore(small_space)
        assert confirm_frontier(result, None, top=0) is result

    def test_confirmation_simulates_the_points_cta_tile(self, monkeypatch):
        """The simulator must run the same kernel family the design declares
        (a 256-tile frontier point simulated with the 128-tile kernel would
        'confirm' the wrong design)."""
        space = grid({"mac_bw": (4,), "cta_tile": (256,)},
                     network="alexnet", batch=8)
        with Session() as session:
            result = explore(space, session=session)
            captured = {}
            original = session.simulate

            def spy(gpu, layer, config=None, pass_kind="forward"):
                captured["config"] = config
                return original(gpu, layer, config, pass_kind=pass_kind)

            monkeypatch.setattr(session, "simulate", spy)
            confirm_frontier(result, session, top=1, max_ctas=8)
        assert captured["config"].cta_tile_hw == 256


class TestDseRequest:
    def test_request_validation(self, small_space):
        with pytest.raises(TypeError, match="SearchSpace"):
            DseRequest(space="not a space")
        with pytest.raises(ValueError, match="unknown driver"):
            DseRequest(space=small_space, driver="genetic")
        with pytest.raises(ValueError, match="requires a budget"):
            DseRequest(space=small_space, driver="random")
        with pytest.raises(ValueError, match="unknown objective"):
            DseRequest(space=small_space, objectives=("speed",))

    def test_no_evaluator_switch(self, small_space):
        """One evaluator: there is no ``eval_mode`` to select another."""
        with pytest.raises(TypeError, match="eval_mode"):
            DseRequest(space=small_space, eval_mode="task")
        with pytest.raises(TypeError, match="eval_mode"):
            explore(small_space, eval_mode="task")

    def test_session_run_produces_dse_report(self, small_space, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        request = DseRequest(space=small_space, store_path=store)
        with Session() as session:
            report = session.run(request)
        assert report.kind == "dse"
        assert report.summary["frontier size"] == len(report.rows)
        assert report.meta["space_size"] == len(small_space)
        assert report.meta["store_path"] == store
        assert report.children  # the what-to-scale-next sub-report
        assert report.children[0].kind == "dse-recommendations"
        # the report round-trips through JSON like every other report kind.
        from repro.api import Report
        clone = Report.from_json(report.to_json())
        assert clone.rows == report.rows

    def test_store_makes_second_request_free(self, small_space, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        request = DseRequest(space=small_space, store_path=store)
        with Session() as session:
            session.run(request)
        with Session() as fresh_session:
            report = fresh_session.run(request)
        assert report.summary["points evaluated"] == 0
        assert report.summary["store hits"] == len(small_space)


class TestDseExperiment:
    def test_registered_and_runs(self):
        from repro.experiments.registry import get_experiment_spec
        spec = get_experiment_spec("dse")
        assert spec.fast
        result = spec.runner(network="alexnet", batch=16,
                             space=grid({"num_sm": (1, 2), "dram_bw": (1, 2)},
                                        network="alexnet", batch=16))
        assert result.experiment_id == "dse"
        assert result.summary["frontier size"] >= 1
        assert any("scale_next" in row for row in result.rows)

    def test_fig16_space_reusable_through_experiment_request(self):
        """The nine-column paper table runs as a DSE space end to end."""
        from repro.api import ExperimentRequest
        space = space_from_options(PAPER_DESIGN_OPTIONS, network="alexnet",
                                   batch=16)
        with Session() as session:
            report = session.run(ExperimentRequest(
                "dse", options={"space": space, "network": "alexnet",
                                "batch": 16}))
        assert report.kind == "experiment"
        assert report.summary["space points"] == 9
