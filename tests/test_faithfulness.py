from __future__ import annotations

import json

import pytest

from tabattr import (
    Backend,
    SamplingConfig,
    evaluate,
    load_external_ranking,
    predicted_class,
    random_order,
    run_deletion,
    write_curves_csv,
    write_curves_json,
)
from tabattr.errors import BackendError, RankingError
from conftest import FlakyBackend, make_instance, oracle_backend
from reference import build_prompt, fields_at

KEYS = ("a", "b", "c", "d")


@pytest.fixture
def instances():
    return [make_instance(i, KEYS, [f"v{i}{j}" for j in range(4)]) for i in range(3)]


def _rankings(instances):
    return {
        "random": {i.index: random_order(i, 7 + i.index) for i in instances},
        "external": {i.index: KEYS[::-1] for i in instances},
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

    def test_every_instance_failing_is_a_backend_error(self, instances, template, yes_no_vmap):
        backend = FlakyBackend(oracle_backend({"a": 1.5}), poison="a:")
        with pytest.raises(BackendError, match="all 3 instances failed"):
            run_deletion(instances, _rankings(instances), backend, template, yes_no_vmap)

    def test_source_missing_an_instance_is_refused(self, instances, template, yes_no_vmap):
        rankings = _rankings(instances)
        del rankings["external"][2]
        with pytest.raises(RankingError, match="'external' has no ranking for instance 2"):
            run_deletion(instances, rankings, oracle_backend({"a": 1.0}), template, yes_no_vmap)

    @pytest.mark.parametrize(
        "order, named",
        [((), "'external' has no ranking for instance 2"),
         (("a", "b", "a"), "'external' repeats keys for instance 2: ['a', 'b', 'a']"),
         (["d", "z"], "'external' names keys absent from instance 2: ['z']")],
        ids=["empty", "repeated_key", "absent_key"],
    )
    def test_malformed_order_is_refused_before_any_query(
        self, order, named, instances, template, yes_no_vmap
    ):
        rankings = _rankings(instances)
        rankings["external"][2] = order
        backend = oracle_backend({"a": 1.0})
        with pytest.raises(RankingError) as caught:
            run_deletion(instances, rankings, backend, template, yes_no_vmap)
        assert named in str(caught.value)
        assert backend.calls == 0

    @pytest.mark.parametrize("max_removals", [0, -1])
    def test_max_removals_below_one_is_refused(
        self, max_removals, instances, template, yes_no_vmap
    ):
        with pytest.raises(ValueError, match="max_removals"):
            run_deletion(instances, _rankings(instances), oracle_backend({"a": 1.0}), template,
                         yes_no_vmap, max_removals=max_removals)

    def test_no_instances_is_refused(self, template, yes_no_vmap):
        with pytest.raises(ValueError, match="no instances"):
            run_deletion([], {}, oracle_backend({"a": 1.0}), template, yes_no_vmap)


class Logging(Backend):
    """Delegates to an inner backend and keeps every prompt it was sent."""

    def __init__(self, inner: Backend):
        super().__init__()
        self.inner = inner
        self.sent: list[str] = []

    def _fetch(self, prompt, k, wait):
        self.sent.append(prompt)
        return self.inner.query(prompt, k, wait)


def _files(run, tmp_path, name) -> tuple[bytes, bytes]:
    write_curves_csv(run, tmp_path / f"{name}.csv")
    write_curves_json(run, tmp_path / f"{name}.json")
    return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes()


class TestStoredRows:
    """Deletion rows an evaluation already answered are taken from it, not sent."""

    WEIGHTS = {"a": 1.5, "b": -0.7, "c": 0.4, "d": 0.1}

    def _evaluations(self, instances, template, vmap, ratio=0.4):
        config = SamplingConfig(ratio=ratio, max_coalitions=16, seed=2)
        backend = oracle_backend(self.WEIGHTS)
        return [evaluate(i, backend, template, vmap, config) for i in instances]

    def test_curves_are_the_same_bytes_and_only_the_other_rows_are_sent(
        self, instances, template, yes_no_vmap, tmp_path
    ):
        stored = self._evaluations(instances, template, yes_no_vmap)
        fresh = Logging(oracle_backend(self.WEIGHTS))
        without = run_deletion(instances, _rankings(instances), fresh, template, yes_no_vmap)
        backend = Logging(oracle_backend(self.WEIGHTS))
        with_store = run_deletion(instances, _rankings(instances), backend, template,
                                  yes_no_vmap, stored=stored)
        assert _files(with_store, tmp_path, "stored") == _files(without, tmp_path, "fresh")

        # No row the evaluations hold is sent: not the full row, not a
        # leave-one-out row, not a sampled row.
        held = {
            build_prompt(template, fields_at(i, e.membership[r].nonzero()[0]))
            for i, e in zip(instances, stored) for r in range(len(e.membership))
        } | {build_prompt(template, i.fields) for i in instances}
        assert backend.sent and not held & set(backend.sent)
        assert set(backend.sent) < set(fresh.sent)
        assert len(backend.sent) == len(set(backend.sent)) == with_store.queried_prompts
        assert with_store.stored_rows == len(set(fresh.sent) - set(backend.sent))
        assert (without.stored_rows, without.queried_prompts) == (0, len(fresh.sent))

    def test_an_instance_whose_rows_are_all_stored_sends_nothing(
        self, instances, template, yes_no_vmap, tmp_path
    ):
        stored = self._evaluations(instances, template, yes_no_vmap, ratio=1.0)
        down = FlakyBackend(oracle_backend(self.WEIGHTS), poison="")
        run = run_deletion(instances, _rankings(instances), down, template, yes_no_vmap,
                           stored=stored)
        without = run_deletion(instances, _rankings(instances), oracle_backend(self.WEIGHTS),
                               template, yes_no_vmap)
        assert down.calls == run.queried_prompts == 0 and run.dropped == ()
        assert _files(run, tmp_path, "stored") == _files(without, tmp_path, "fresh")

    def test_only_the_stored_instances_take_rows_from_the_store(
        self, instances, template, yes_no_vmap, tmp_path
    ):
        stored = self._evaluations(instances[:1], template, yes_no_vmap, ratio=1.0)
        backend = Logging(oracle_backend(self.WEIGHTS))
        run = run_deletion(instances, _rankings(instances), backend, template, yes_no_vmap,
                           stored=stored)
        values = {f"{key}:v0{j}" for j, key in enumerate(KEYS)}
        assert not any(value in prompt for prompt in backend.sent for value in values)
        assert build_prompt(template, instances[1].fields) in backend.sent
        without = run_deletion(instances, _rankings(instances), oracle_backend(self.WEIGHTS),
                               template, yes_no_vmap)
        assert _files(run, tmp_path, "stored") == _files(without, tmp_path, "fresh")

    def test_failing_instance_is_dropped_from_every_source_though_rows_were_stored(
        self, instances, template, yes_no_vmap
    ):
        stored = self._evaluations(instances, template, yes_no_vmap)
        backend = FlakyBackend(oracle_backend(self.WEIGHTS), poison="v1")
        run = run_deletion(instances, _rankings(instances), backend, template, yes_no_vmap,
                           stored=stored)
        assert run.dropped == (1,) and run.stored_rows > 0
        for curve in run.curves.values():
            assert set(curve.traces) == {0, 2}
            assert curve.n_instances == 2

    @pytest.mark.parametrize("top_k, keys", [(5, KEYS), (10, ("a", "b", "c", "e"))])
    def test_evaluation_of_other_keys_or_top_k_is_refused_before_any_query(
        self, top_k, keys, instances, template, yes_no_vmap
    ):
        config = SamplingConfig(max_coalitions=8, top_k=top_k)
        other = make_instance(0, keys, [f"v0{j}" for j in range(4)])
        evaluation = evaluate(other, oracle_backend(self.WEIGHTS), template, yes_no_vmap, config)
        backend = oracle_backend(self.WEIGHTS)
        with pytest.raises(ValueError, match="stored evaluation of instance 0"):
            run_deletion(instances, _rankings(instances), backend, template, yes_no_vmap,
                         stored=[evaluation])
        assert backend.calls == 0


class TestPredictedClass:
    @pytest.mark.parametrize(
        "dist, expected",
        [([0.2, 0.8], (1, False)), ([0.5, 0.5], (0, True)), ([0.2, 0.4, 0.4], (1, True)),
         ([0.45, 0.1, 0.45], (0, True)), ([1.0], (0, False))],
    )
    def test_argmax_and_tie_flag(self, dist, expected):
        assert tuple(predicted_class(dist)) == expected


class TestExternalRanking:
    @staticmethod
    def _write(tmp_path, payload) -> str:
        path = tmp_path / "ranking.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_unreadable_file_is_refused(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(RankingError, match="cannot load external ranking"):
            load_external_ranking(missing, KEYS)
        with pytest.raises(RankingError, match="cannot load external ranking"):
            load_external_ranking(self._write(tmp_path, "{not json"), KEYS)

    @pytest.mark.parametrize(
        "payload, named",
        [({"global": []}, "empty ranking for global"),
         ({"per_instance": {"3": []}}, "empty ranking for instance 3"),
         ({"global": ["a", "z"]}, "unknown feature keys for global: ['z']"),
         ({"per_instance": {"0": ["a"], "1": ["y"]}}, "unknown feature keys for instance 1"),
         ({"per_instance": {}}, "per_instance ranking is empty"),
         ({"order": ["a"]}, "expected a 'global' or 'per_instance'"),
         (["a", "b"], "expected a 'global' or 'per_instance'"),
         ({"per_instance": ["a"]}, "per_instance must map instance indices to rankings"),
         ({"global": 5}, "ranking for global must be a list of keys, got 5"),
         ({"per_instance": {"first": ["a"]}}, "keys are not instance indices: ['first']"),
         ({"global": "ab"}, "ranking for global must be a list of keys, got 'ab'"),
         ({"global": ["a", "a"]}, "repeated keys in ranking for global: ['a']")],
    )
    def test_malformed_ranking_is_refused(self, payload, named, tmp_path):
        path = self._write(tmp_path, payload)
        with pytest.raises(RankingError) as caught:
            load_external_ranking(path, KEYS)
        assert str(caught.value).startswith(f"{path}: ") and named in str(caught.value)

    def test_the_two_forms_load_as_a_tuple_and_a_dict(self, tmp_path):
        assert load_external_ranking(self._write(tmp_path, {"global": ["d", "a"]}), KEYS) == (
            "d", "a"
        )
        per_instance = {"per_instance": {"0": ["b"], "2": ["c", "a"]}}
        assert load_external_ranking(self._write(tmp_path, per_instance), KEYS) == {
            0: ("b",), 2: ("c", "a")
        }

    def test_per_instance_ranking_without_the_instance_is_refused(
        self, tmp_path, instances, template, yes_no_vmap
    ):
        ranking = load_external_ranking(self._write(tmp_path, {"per_instance": {"0": ["b"]}}), KEYS)
        with pytest.raises(RankingError, match="'external' has no ranking for instance 1"):
            run_deletion(instances, {"external": ranking}, oracle_backend({"a": 1.0}), template,
                         yes_no_vmap)

    def test_key_absent_from_the_instance_is_refused(self, tmp_path, template, yes_no_vmap):
        ranking = load_external_ranking(self._write(tmp_path, {"global": ["d", "a"]}), KEYS)
        narrow = make_instance(5, ("a", "b", "c"))
        with pytest.raises(RankingError, match=r"absent from instance 5: \['d'\]"):
            run_deletion([narrow], {"external": {5: ranking}}, oracle_backend({"a": 1.0}),
                         template, yes_no_vmap)
