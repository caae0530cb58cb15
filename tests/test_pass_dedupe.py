"""Estimate, sweep and training evaluate each unique layer-pass once.

``DeltaModel.estimate_passes`` keys lowering and traffic on
``(layer.structural_key(), pass_kind)`` and evaluates the unique workloads in
one ``estimate_workloads`` call; rows are then fanned back out under every
layer name.  These tests pin that the deduped reports equal the
per-(layer, pass) oracle loops in ``tests/oracles.py`` byte for byte, that a
request makes one model call over exactly one workload per unique key, and
that keys never alias layers that differ in dtype or layer family.
"""

from __future__ import annotations

import pytest

from repro import TITAN_XP, DeltaModel
from repro.api import EstimateRequest, Session, SweepRequest
from repro.core import (ConvLayerConfig, LinearLayerConfig, TRAINING_PASSES,
                        estimate_training_step)
from repro.core import model as core_model
from repro.gpu import get_device
from repro.networks import ConvNetwork, get_network
from repro.networks.registry import (available_networks, register_network,
                                     unregister_network)
from repro.obs import spans as obs_spans

from oracles import (estimate_report, estimate_rows, training_rows,
                     training_step, training_summary)

PASSES = ("forward", "dgrad", "wgrad", "training")


@pytest.fixture(scope="module")
def session():
    with Session() as shared:
        yield shared


@pytest.fixture
def performance_calls(monkeypatch):
    """The workload count of every ``estimate_workloads`` call the model
    makes, in call order."""
    calls = []
    original = core_model.estimate_workloads

    def counting(gpu, pairs):
        calls.append(len(pairs))
        return original(gpu, pairs)

    monkeypatch.setattr(core_model, "estimate_workloads", counting)
    return calls


@pytest.fixture
def custom_network():
    """Register ``layers`` as a temporary network; yields the registrar."""
    names = []

    def register(layers):
        name = f"dedupe-test-{len(names)}"
        register_network(name)(
            lambda batch: ConvNetwork(name=name, layers=tuple(layers)))
        names.append(name)
        return name

    yield register
    for name in names:
        unregister_network(name)


def _unique_keys(layers, pass_kinds):
    return {(layer.structural_key(), pass_kind)
            for layer in layers for pass_kind in pass_kinds}


def _assert_matches_oracle(session, request, performance_calls=()):
    """Run ``request``; returns its report and the workload count of each
    model call it made."""
    report = session.run(request)
    calls = list(performance_calls)
    expected = estimate_report(session, request)
    # row by row first: a failing diff of the whole JSON text is very slow
    assert len(report.rows) == len(expected.rows)
    for row, oracle_row in zip(report.rows, expected.rows):
        assert row == oracle_row
    assert report.summary == expected.summary
    same = report.content_json() == expected.content_json()
    assert same, "report content differs from the per-pass oracle"
    return report, calls


@pytest.mark.parametrize("unique", [False, True], ids=["all", "unique"])
@pytest.mark.parametrize("passes", PASSES)
@pytest.mark.parametrize("network", available_networks())
def test_estimate_report_matches_oracle(session, network, passes, unique):
    _assert_matches_oracle(session, EstimateRequest(
        network, gpu="titanxp", batch=32, passes=passes, unique=unique))


def _assert_one_call_per_request(session, performance_calls, network,
                                 layers, passes):
    request = EstimateRequest(network, batch=16, passes=passes)
    report = session.run(request)
    assert len(report.rows) == len(layers) * len(request.pass_kinds)
    assert performance_calls == [len(_unique_keys(layers,
                                                  request.pass_kinds))]


@pytest.mark.parametrize("passes", PASSES)
@pytest.mark.parametrize("network", available_networks())
def test_model_runs_once_per_unique_key(session, performance_calls, network,
                                        passes):
    layers = get_network(network, batch=16).gemm_layers()
    _assert_one_call_per_request(session, performance_calls, network, layers,
                                 passes)


@pytest.mark.parametrize("passes", PASSES)
@pytest.mark.parametrize("network", available_networks())
def test_model_runs_once_per_unique_key_mixed_dtype(
        session, performance_calls, custom_network, network, passes):
    # fp16 twins of every layer: same shape, so only dtype tells keys apart.
    layers = get_network(network, batch=16).gemm_layers()
    layers = layers + [layer.with_dtype(2) for layer in layers]
    _assert_one_call_per_request(session, performance_calls,
                                 custom_network(layers), layers, passes)


class TestHandBuiltNetworks:
    def test_same_shape_layers_under_different_names(
            self, session, performance_calls, custom_network):
        first = ConvLayerConfig.square("conv_a", batch=8, in_channels=64,
                                       in_size=28, out_channels=64,
                                       filter_size=3, padding=1)
        layers = [first, first.with_name("conv_b"), first.with_name("conv_c")]
        name = custom_network(layers)
        report, calls = _assert_matches_oracle(
            session, EstimateRequest(name, batch=8, passes="training"),
            performance_calls)
        assert calls == [len(TRAINING_PASSES)]
        assert [row["layer"] for row in report.rows] == [
            layer.name for layer in layers for _ in TRAINING_PASSES]
        per_layer = [{key: value for key, value in row.items()
                      if key != "layer"} for row in report.rows]
        assert per_layer[:3] == per_layer[3:6] == per_layer[6:]

    def test_dtype_is_part_of_the_key(self, session, performance_calls,
                                      custom_network):
        fp32 = ConvLayerConfig.square("fp32", batch=8, in_channels=64,
                                      in_size=28, out_channels=64,
                                      filter_size=3, padding=1)
        fp16 = fp32.with_dtype(2).with_name("fp16")
        name = custom_network([fp32, fp16])
        for passes in PASSES:
            performance_calls.clear()
            request = EstimateRequest(name, batch=8, passes=passes)
            report, calls = _assert_matches_oracle(session, request,
                                                   performance_calls)
            assert report.rows[0]["L1_GB"] != report.rows[-1]["L1_GB"]
            assert calls == [2 * len(request.pass_kinds)]

    def test_conv_and_linear_keys_do_not_alias(
            self, session, performance_calls, custom_network):
        # a 1x1 convolution over a 1x1 map and a linear layer with the same
        # batch and features: equal integers, equal GEMM shape, other family.
        conv = ConvLayerConfig.fully_connected("fc_conv", batch=8,
                                               in_features=512,
                                               out_features=256)
        linear = LinearLayerConfig("fc_linear", batch=8, in_features=512,
                                   out_features=256)
        assert conv.structural_key() != linear.structural_key()
        name = custom_network([conv, linear])
        report, calls = _assert_matches_oracle(
            session, EstimateRequest(name, batch=8, passes="training"),
            performance_calls)
        assert len(report.rows) == 6
        assert calls == [6]

    def test_duplicates_share_one_frozen_estimate(self):
        layer = ConvLayerConfig.square("a", batch=4, in_channels=16,
                                       in_size=14, out_channels=32,
                                       filter_size=3, padding=1)
        records = DeltaModel(TITAN_XP).estimate_passes(
            [layer, layer.with_name("b"), layer.with_dtype(2)],
            TRAINING_PASSES)
        assert [record.layer_name for record in records[:6]] == [
            "a", "a", "a", "b", "b", "b"]
        for shared, duplicate in zip(records[:3], records[3:6]):
            assert duplicate.estimate is shared.estimate
        assert all(record.estimate is not shared.estimate
                   for record, shared in zip(records[6:], records[:3]))


class TestTrainingStep:
    @pytest.mark.parametrize("network", ["resnet152", "bert-base", "mlp"])
    def test_aggregates_match_the_per_pass_oracle(self, network):
        model = DeltaModel(TITAN_XP)
        layers = get_network(network, batch=64).gemm_layers()
        step = estimate_training_step(model, layers, name=network)
        oracle = training_step(model, layers, name=network)
        assert step.rows() == training_rows(oracle)
        assert step.summary() == training_summary(oracle)
        assert step.time_by_pass == oracle.time_by_pass
        for level in ("l1", "l2", "dram"):
            assert step.traffic_by_pass(level) == oracle.traffic_by_pass(level)
            assert (step.total_traffic_bytes(level)
                    == oracle.total_traffic_bytes(level))
        assert step.total_macs == oracle.total_macs

    def test_unknown_level_still_rejected(self):
        step = DeltaModel(TITAN_XP).estimate_training_step(
            get_network("alexnet", batch=8))
        with pytest.raises(ValueError, match="unknown memory level"):
            step.traffic_by_pass("l3")


@pytest.mark.parametrize("passes", ["forward", "training"])
def test_sweep_rows_match_the_oracle(session, passes):
    request = SweepRequest(networks=("resnet152", "bert-base"),
                           gpus=("titanxp", "v100"), batches=(16, 64),
                           unique=False, paper_subset=False, passes=passes)
    report = session.run(request)
    rows = iter(report.rows)
    for gpu_name in request.gpus:
        model = DeltaModel(get_device(gpu_name))
        for network in request.networks:
            for batch in request.batches:
                layers = get_network(network, batch=batch).gemm_layers()
                oracle = estimate_rows(model, layers, request.pass_kinds)
                row = next(rows)
                assert row["total_time_ms"] == sum(r["time_ms"]
                                                   for r in oracle)
                assert row["dram_gb"] == sum(r["DRAM_GB"] for r in oracle)


class TestSpans:
    def test_estimate_span_counts_layer_and_unique_passes(self, session):
        layers = get_network("resnet152", batch=256).gemm_layers()
        with obs_spans.collect_trace() as trace:
            session.run(EstimateRequest("resnet152", passes="training"))
        (span,) = [s for s in trace.spans if s.name == "model.estimate"]
        assert span.attrs["layer_passes"] == len(layers) * 3 == 468
        assert span.attrs["unique_passes"] == len(
            _unique_keys(layers, TRAINING_PASSES))
        assert span.attrs["unique_passes"] < span.attrs["layer_passes"]

    def test_sweep_span_sums_every_combination(self, session):
        request = SweepRequest(networks=("alexnet", "resnet152"),
                               gpus=("titanxp",), batches=(8, 16),
                               unique=False, paper_subset=False,
                               passes="training")
        with obs_spans.collect_trace() as trace:
            session.run(request)
        (span,) = [s for s in trace.spans if s.name == "model.sweep"]
        layer_passes = unique_passes = 0
        for network in request.networks:
            for batch in request.batches:
                layers = get_network(network, batch=batch).gemm_layers()
                layer_passes += 3 * len(layers)
                unique_passes += len(_unique_keys(layers, TRAINING_PASSES))
        assert span.attrs["layer_passes"] == layer_passes
        assert span.attrs["unique_passes"] == unique_passes
