from __future__ import annotations

import pytest

from tabattr import RankingOrder, random_order, run_deletion
from conftest import FlakyBackend, make_instance, oracle_backend

KEYS = ("a", "b", "c", "d")


@pytest.fixture
def instances():
    return [make_instance(i, KEYS, [f"v{i}{j}" for j in range(4)]) for i in range(3)]


def _rankings(instances):
    return {
        "random": {i.index: random_order(i, 7 + i.index) for i in instances},
        "external": {i.index: RankingOrder(i.index, "external", KEYS[::-1]) for i in instances},
    }


class TestRunDeletion:
    def test_step_zero_is_shared_by_every_source(self, instances, template, yes_no_vmap):
        backend = oracle_backend({"a": 1.5, "b": -0.7, "c": 0.4, "d": 0.1})
        run = run_deletion(instances, _rankings(instances), backend, template, yes_no_vmap)
        random_curve, external_curve = run.curves["random"], run.curves["external"]
        assert random_curve.mean_probs[0] == external_curve.mean_probs[0]
        for i in instances:
            assert random_curve.traces[i.index][0] == external_curve.traces[i.index][0]
        assert random_curve.mean_probs[1:] != external_curve.mean_probs[1:]

    def test_failing_instance_is_dropped_from_every_source(
        self, instances, template, yes_no_vmap
    ):
        backend = FlakyBackend(oracle_backend({"a": 1.5, "b": -0.7}), poison="v10")
        run = run_deletion(instances, _rankings(instances), backend, template, yes_no_vmap)
        assert run.dropped == (1,)
        for curve in run.curves.values():
            assert set(curve.traces) == {0, 2}
            assert curve.n_instances == 2
            assert curve.counts[0] == 2
