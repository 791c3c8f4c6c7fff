from __future__ import annotations

import json

import numpy as np
import pytest

from tabattr import Evaluation, SamplingConfig, evaluate, load_or_evaluate
from tabattr.errors import BackendError, CacheError, CorruptCacheError, StaleCacheError
from conftest import make_instance, oracle_backend

KEYS = ("a", "b", "c")
CONFIG = SamplingConfig(max_coalitions=10)


@pytest.fixture
def evaluate_row(template, yes_no_vmap):
    backend = oracle_backend({"a": 1.0, "b": -0.5, "c": 0.25})

    def evaluate_idx(idx: int) -> Evaluation:
        instance = make_instance(idx, KEYS, [str(idx), "2", "3"])
        return evaluate(instance, backend, template, yes_no_vmap, CONFIG)

    return evaluate_idx


def _same(a: Evaluation, b: Evaluation) -> bool:
    arrays = ("membership", "class_dists", "degenerate", "full_dist")
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in arrays) and (
        (a.instance_index, a.feature_keys, a.full_degenerate)
        == (b.instance_index, b.feature_keys, b.full_degenerate)
    )


class TestLoadOrCompute:
    """The evaluation store: read what is stored, evaluate and append the rest."""

    def test_truncated_cache_reports_its_byte_offset(self, evaluate_row, tmp_path):
        # Damage before the last line is corruption, reported at its file offset.
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, [0, 1], evaluate_row, CONFIG, "f")
        lines = path.read_text().split("\n")
        lines[1] = lines[1][:200]
        path.write_text("\n".join(lines))
        with pytest.raises(json.JSONDecodeError) as parse_error:
            json.loads(lines[1])
        expected = len(lines[0]) + 1 + parse_error.value.pos
        with pytest.raises(CorruptCacheError) as error:
            load_or_evaluate(path, [0, 1], evaluate_row, CONFIG, "f")
        assert error.value.offset == expected
        assert f"byte offset {expected}" in str(error.value)

    def test_failure_keeps_finished_instances_and_a_rerun_computes_only_the_rest(
        self, evaluate_row, tmp_path
    ):
        path = tmp_path / "evaluations.jsonl"
        calls: list[int] = []

        def failing_on_1(idx: int):
            calls.append(idx)
            if idx == 1:
                raise BackendError("backend down")
            return evaluate_row(idx)

        with pytest.raises(BackendError):
            load_or_evaluate(path, [0, 1], failing_on_1, CONFIG, "f")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"fingerprint": "f"}
        assert [json.loads(line)["instance_index"] for line in lines[1:]] == [0]

        calls.clear()
        stored = load_or_evaluate(
            path, [0, 1], lambda idx: calls.append(idx) or evaluate_row(idx), CONFIG, "f"
        )
        assert calls == [1]
        assert [e.instance_index for e in stored] == [0, 1]
        assert _same(stored[0], evaluate_row(0))

    def test_torn_last_line_is_dropped_and_its_instance_recomputed(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, [0, 1], evaluate_row, CONFIG, "f")
        whole = path.read_bytes()
        path.write_bytes(whole[:-40])
        calls: list[int] = []
        stored = load_or_evaluate(
            path, [0, 1], lambda idx: calls.append(idx) or evaluate_row(idx), CONFIG, "f"
        )
        assert calls == [1]
        assert path.read_bytes() == whole
        assert all(_same(e, evaluate_row(e.instance_index)) for e in stored)

    def test_torn_header_leaves_an_empty_store(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        path.write_text('{"finger')
        stored = load_or_evaluate(path, [0], evaluate_row, CONFIG, "f")
        assert _same(stored[0], evaluate_row(0))
        assert path.read_text().splitlines()[0] == '{"fingerprint": "f"}'

    def test_other_fingerprint_is_stale(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, [0], evaluate_row, CONFIG, "f")
        with pytest.raises(StaleCacheError, match="does not match the current configuration"):
            load_or_evaluate(path, [0], evaluate_row, CONFIG, "g")

    def test_entry_outside_the_manifest_is_refused(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, [0, 1], evaluate_row, CONFIG, "f")
        with pytest.raises(CacheError, match=r"outside selected_test_indices: \[1\]"):
            load_or_evaluate(path, [0], evaluate_row, CONFIG, "f")

    @pytest.mark.parametrize("line", ['[1, 2]', '{"instance_index": 0}', '"x"'])
    def test_line_that_is_no_evaluation_is_corrupt(self, line, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, [0], evaluate_row, CONFIG, "f")
        header = path.read_text().splitlines()[0]
        path.write_text(f"{header}\n{line}\n")
        with pytest.raises(CorruptCacheError) as error:
            load_or_evaluate(path, [0], evaluate_row, CONFIG, "f")
        assert error.value.offset == len(header) + 1

    def test_membership_round_trips_beyond_63_features(self, tmp_path):
        rng = np.random.default_rng(3)
        m, n = 70, 9
        membership = rng.integers(0, 2, size=(n, m)).astype(bool)
        membership[:, 65] = True  # bits an int64 mask cannot hold
        dists = rng.dirichlet([1.0, 1.0], size=n)
        evaluation = Evaluation(
            instance_index=4, feature_keys=tuple(f"k{j}" for j in range(m)), config=CONFIG,
            membership=membership, class_dists=dists, degenerate=rng.random(n) < 0.3,
            full_dist=dists[0], full_degenerate=True,
        )
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, [4], lambda idx: evaluation, CONFIG, "f")
        [again] = load_or_evaluate(path, [4], lambda idx: pytest.fail("stored"), CONFIG, "f")
        assert _same(again, evaluation)
        assert again.membership.dtype == bool and again.degenerate.dtype == bool
