"""DSE store determinism across the two evaluation modes: the batched
production evaluator and the scalar oracle.

``explore`` must leave a result store *byte-identical* to one built from
:func:`repro.dse.store_key` plus the scalar ``evaluate_point`` oracle
(``tests/oracles.py``) and written through :meth:`ResultStore.put_many`
with no pre-serialized metrics line: same keys, same serialized metrics,
same append order, same frontier — for every driver, including the
successive-halving driver whose proxy scoring also runs through the batched
path.  A divergence here would silently fork resumed sweeps from stores
written by an earlier evaluator.
"""

import json

import pytest
from oracles import evaluate_point

from repro.analysis.frontier import (DEFAULT_OBJECTIVE_NAMES, pareto_frontier,
                                     resolve_objectives)
from repro.dse import (ExhaustiveDriver, RandomDriver, ResultStore,
                       SuccessiveHalvingDriver, explore, grid, store_key)
from repro.gpu.devices import TITAN_XP

SPACE = grid({"num_sm": (1, 1.5, 2, 3), "mac_bw": (1, 2, 4),
              "l2_bw": (1, 2), "dram_bw": (1, 1.5, 2),
              "cta_tile": (128, 256)},
             network="alexnet", batch=8)

DRIVERS = [
    pytest.param(lambda: ExhaustiveDriver(), id="exhaustive"),
    pytest.param(lambda: RandomDriver(budget=24, seed=7), id="random"),
    pytest.param(lambda: SuccessiveHalvingDriver(budget=6, eta=3, rungs=2,
                                                 seed=7),
                 id="halving"),
]


def _store_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def _evaluated_points(exploration):
    """The points ``explore`` evaluates, in its append order: the planned
    results, then the implicit per-workload baselines (deduped by key)."""
    points = [r.point for r in exploration.results]
    points += [b.point for b in exploration.baselines.values()]
    seen, unique = set(), []
    for point in points:
        key = store_key(TITAN_XP, point, True)
        if key not in seen:
            seen.add(key)
            unique.append((key, point))
    return unique


def _write_oracle_store(path, keyed_points):
    """Store lines from ``store_key`` + the oracle, via ``put_many`` with no
    pre-serialized metrics line."""
    store = ResultStore(path)
    store.put_many([
        (key, json.dumps(point.descriptor(), sort_keys=True),
         evaluate_point(TITAN_XP, point))
        for key, point in keyed_points])
    store.close()


@pytest.mark.parametrize("make_driver", DRIVERS)
def test_store_contents_identical_across_eval_modes(make_driver, tmp_path):
    """explore() store bytes == oracle-built store bytes."""
    path = tmp_path / "explore.jsonl"
    exploration = explore(SPACE, driver=make_driver(), base_gpu=TITAN_XP,
                          store=ResultStore(path))
    keyed_points = _evaluated_points(exploration)
    oracle_path = tmp_path / "oracle.jsonl"
    _write_oracle_store(oracle_path, keyed_points)

    # same store bytes, line for line, in the same append order.
    lines = _store_lines(path)
    assert lines == _store_lines(oracle_path)
    assert lines

    assert exploration.stats.evaluated == len(keyed_points) > 0
    assert [r.key for r in exploration.results] == \
        [store_key(TITAN_XP, r.point, True) for r in exploration.results]
    oracle_metrics = [evaluate_point(TITAN_XP, r.point)
                      for r in exploration.results]
    assert json.dumps([r.metrics for r in exploration.results]) == \
        json.dumps(oracle_metrics)
    assert exploration.frontier == tuple(pareto_frontier(
        oracle_metrics, resolve_objectives(DEFAULT_OBJECTIVE_NAMES)))


@pytest.mark.parametrize("make_driver", DRIVERS)
def test_cross_mode_resume_reuses_other_modes_store(make_driver, tmp_path):
    """A store written from the oracle fully satisfies an ``explore``
    resume, with the same keys and frontier as a cold sweep."""
    cold = explore(SPACE, driver=make_driver(), base_gpu=TITAN_XP)
    keyed_points = _evaluated_points(cold)
    path = tmp_path / "sweep.jsonl"
    _write_oracle_store(path, keyed_points)

    resumed = explore(SPACE, driver=make_driver(), base_gpu=TITAN_XP,
                      store=ResultStore(path))
    assert resumed.stats.evaluated == 0
    assert resumed.stats.store_hits == len(keyed_points)
    assert all(result.cached for result in resumed.results)
    assert [r.key for r in resumed.results] == [r.key for r in cold.results]
    assert json.dumps(resumed.frontier_rows(), sort_keys=True) == \
        json.dumps(cold.frontier_rows(), sort_keys=True)
