from __future__ import annotations

import base64
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from tabattr import (
    Evaluation,
    PromptTemplate,
    SamplingConfig,
    TabularInstance,
    VerbalizerMap,
    cache,
    config_fingerprint,
    evaluate,
    load_or_evaluate,
)
from tabattr.errors import BackendError, CacheError, CorruptCacheError, StaleCacheError
from conftest import make_instance, oracle_backend

KEYS = ("a", "b", "c")
CONFIG = SamplingConfig(max_coalitions=10)
GOLDEN_STORE = Path(__file__).resolve().parent / "data" / "golden_store.jsonl"
PINNED_FINGERPRINT = "b6427aa751b0e92e53397cee8eee72b0de8408848471a7a0a6ae3e5b9db8cc70"


def _floats(*values: float) -> str:
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


def _rows(*indices: int) -> list[TabularInstance]:
    """The instances over KEYS that ``evaluate_row`` evaluates."""
    return [make_instance(idx, KEYS, [str(idx), "2", "3"]) for idx in indices]


def _line(**changes) -> str:
    """A store line of instance 0: 2 coalitions over KEYS and 2 classes, the
    second coalition without mass, with ``changes``."""
    entry = {
        "instance_index": 0,
        "content": cache.content_digest(_rows(0)[0]),
        "feature_keys": list(KEYS),
        "membership": base64.b64encode(bytes([0b011, 0b110])).decode("ascii"),
        "classes": 2,
        "masses": _floats(0.2, 0.6, 0.45, 0.45, 0.0, 0.0),
        **changes,
    }
    return json.dumps(entry)


GOLDEN_INSTANCE = make_instance(7, tuple(f"k{j}" for j in range(70)))


def golden_evaluation() -> Evaluation:
    """The evaluation ``tests/data/golden_store.jsonl`` holds: M=70, C=3,
    a row without mass and the floats 0.0, 1.0 and 5e-324."""
    membership = np.zeros((4, 70), dtype=bool)
    membership[0] = True
    membership[0, 3] = False
    membership[1, ::3] = True
    membership[2, 64:] = True  # bits an int64 mask cannot hold
    membership[3, [0, 69]] = True
    masses = np.array([
        [0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [5e-324, 0.75, 0.25], [0.01, 0.02, 0.7]
    ])
    return Evaluation(
        instance_index=7, feature_keys=tuple(f"k{j}" for j in range(70)), config=CONFIG,
        membership=membership, masses=masses,
    )


@pytest.fixture
def evaluate_row(template, yes_no_vmap):
    backend = oracle_backend({"a": 1.0, "b": -0.5, "c": 0.25})

    def evaluate_instance(instance: TabularInstance) -> Evaluation:
        return evaluate(instance, backend, template, yes_no_vmap, CONFIG)

    return evaluate_instance


def _same(a: Evaluation, b: Evaluation) -> bool:
    arrays = ("membership", "masses")
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in arrays) and (
        (a.instance_index, a.feature_keys) == (b.instance_index, b.feature_keys)
    )


class TestLoadOrCompute:
    """The evaluation store: read what is stored, evaluate and append the rest."""

    def test_truncated_cache_reports_its_byte_offset(self, evaluate_row, tmp_path):
        # Damage before the last line is corruption, reported at its file offset.
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, _rows(0, 1), evaluate_row, CONFIG, "f")
        lines = path.read_text().split("\n")
        lines[1] = lines[1][:200]
        path.write_text("\n".join(lines))
        with pytest.raises(json.JSONDecodeError) as parse_error:
            json.loads(lines[1])
        expected = len(lines[0]) + 1 + parse_error.value.pos
        with pytest.raises(CorruptCacheError) as error:
            load_or_evaluate(path, _rows(0, 1), evaluate_row, CONFIG, "f")
        assert error.value.offset == expected
        assert f"byte offset {expected}" in str(error.value)

    def test_failure_keeps_finished_instances_and_a_rerun_computes_only_the_rest(
        self, evaluate_row, tmp_path
    ):
        path = tmp_path / "evaluations.jsonl"
        calls: list[int] = []

        def failing_on_1(row: TabularInstance):
            calls.append(row.index)
            if row.index == 1:
                raise BackendError("backend down")
            return evaluate_row(row)

        with pytest.raises(BackendError):
            load_or_evaluate(path, _rows(0, 1), failing_on_1, CONFIG, "f")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"fingerprint": "f", "backend": None}
        assert [json.loads(line)["instance_index"] for line in lines[1:]] == [0]

        calls.clear()
        stored = load_or_evaluate(
            path, _rows(0, 1), lambda row: calls.append(row.index) or evaluate_row(row), CONFIG, "f"
        )
        assert calls == [1]
        assert [e.instance_index for e in stored] == [0, 1]
        assert _same(stored[0], evaluate_row(_rows(0)[0]))

    def test_torn_last_line_is_dropped_and_its_instance_recomputed(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, _rows(0, 1), evaluate_row, CONFIG, "f")
        whole = path.read_bytes()
        path.write_bytes(whole[:-40])
        calls: list[int] = []
        stored = load_or_evaluate(
            path, _rows(0, 1), lambda row: calls.append(row.index) or evaluate_row(row), CONFIG, "f"
        )
        assert calls == [1]
        assert path.read_bytes() == whole
        assert all(_same(e, evaluate_row(row)) for e, row in zip(stored, _rows(0, 1)))

    def test_torn_header_leaves_an_empty_store(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        path.write_text('{"finger')
        stored = load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "f")
        assert _same(stored[0], evaluate_row(_rows(0)[0]))
        assert path.read_text().splitlines()[0] == '{"fingerprint": "f", "backend": null}'

    def test_other_fingerprint_is_stale(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "f")
        with pytest.raises(StaleCacheError, match="does not match the current configuration"):
            load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "g")

    def test_other_backend_is_stale_and_none_reads_any(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "f", "synthetic:aa")
        assert json.loads(path.read_text().splitlines()[0]) == {
            "fingerprint": "f", "backend": "synthetic:aa"
        }
        with pytest.raises(StaleCacheError, match="filled through backend 'synthetic:aa', "
                                                  "but this run uses 'synthetic:bb'"):
            load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "f", "synthetic:bb")
        assert cache.read_evaluations(path, _rows(0), CONFIG, "f").keys() == {0}

    def test_other_values_of_a_stored_instance_are_stale(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, _rows(0, 1), evaluate_row, CONFIG, "f")
        changed = [_rows(0)[0], make_instance(1, KEYS, ["1", "2", "4"])]
        with pytest.raises(StaleCacheError, match="instance 1 was evaluated over other values"):
            load_or_evaluate(path, changed, lambda row: pytest.fail("stored"), CONFIG, "f")
        with pytest.raises(StaleCacheError, match="instance 1 was evaluated over other values"):
            cache.read_evaluations(path, changed, CONFIG, "f")

    def test_content_digest_covers_every_key_and_value_in_order(self):
        digests = {
            cache.content_digest(make_instance(0, keys, values))
            for keys, values in [(KEYS, "123"), (KEYS, "124"), (("a", "c", "b"), "123"),
                                 (KEYS[:2], "12"), (KEYS, ["1", "2", "3_"])]
        }
        assert len(digests) == 5
        # The index is the line's own key, not content.
        assert cache.content_digest(make_instance(5, KEYS, "123")) == cache.content_digest(
            make_instance(0, KEYS, "123")
        )

    def test_entry_outside_the_manifest_is_refused(self, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, _rows(0, 1), evaluate_row, CONFIG, "f")
        with pytest.raises(CacheError, match=r"outside selected_test_indices: \[1\]"):
            load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "f")

    def test_hand_written_line_reads_back(self, tmp_path):
        # The base of the corrupt lines below is itself a valid line.
        path = tmp_path / "evaluations.jsonl"
        path.write_text(f'{{"fingerprint": "f"}}\n{_line()}\n')
        [stored] = load_or_evaluate(path, _rows(0), lambda row: pytest.fail("stored"), CONFIG, "f")
        assert stored.membership.tolist() == [[True, True, False], [False, True, True]]
        assert stored.masses.tolist() == [[0.2, 0.6], [0.45, 0.45], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "line",
        ['[1, 2]', '{"instance_index": 0}', '"x"']
        + [pytest.param(_line(classes=c), id=f"classes-{c}")
           for c in (0, -1, 3, 4, True, 2.0, "2", None)]
        + [pytest.param(_line(**{key: value}), id=name) for name, key, value in [
            ("bad-padding", "masses", _floats(0.2, 0.6, 0.45, 0.45, 0.0, 0.0)[:-1]),
            ("urlsafe-char", "masses", _floats(0.2, 0.6, 0.45, 0.45, 0.0, 0.0)[:-2] + "-="),
            ("newline", "membership", "Aw\nY="),
            ("decimal-list", "masses", [0.2, 0.6, 0.45, 0.45, 0.0, 0.0]),
            ("no-class", "masses", ""),
            ("partial-float", "masses", base64.b64encode(bytes(12)).decode("ascii")),
            ("partial-row", "masses", _floats(0.2, 0.6, 0.45, 0.45, 0.0)),
            ("extra-row", "masses", _floats(0.2, 0.6, 0.45, 0.45, 0.0, 0.0, 0.5, 0.5)),
            ("short-membership", "membership", base64.b64encode(bytes([3])).decode("ascii")),
            ("long-membership", "membership", base64.b64encode(bytes(3)).decode("ascii")),
            ("content-number", "content", 5),
        ]]
        + [pytest.param(_line().replace('"content"', '"contents"'), id="no-content")],
    )
    def test_line_that_is_no_evaluation_is_corrupt(self, line, evaluate_row, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "f")
        header = path.read_text().splitlines()[0]
        path.write_text(f"{header}\n{line}\n")
        with pytest.raises(CorruptCacheError) as error:
            load_or_evaluate(path, _rows(0), evaluate_row, CONFIG, "f")
        assert error.value.offset == len(header) + 1

    def test_membership_round_trips_beyond_63_features(self, tmp_path):
        rng = np.random.default_rng(3)
        m, n = 70, 9
        membership = rng.integers(0, 2, size=(n, m)).astype(bool)
        membership[:, 65] = True  # bits an int64 mask cannot hold
        masses = rng.random((n + 1, 2)) * (rng.random((n + 1, 1)) < 0.7)
        evaluation = Evaluation(
            instance_index=4, feature_keys=tuple(f"k{j}" for j in range(m)), config=CONFIG,
            membership=membership, masses=masses,
        )
        path = tmp_path / "evaluations.jsonl"
        row = make_instance(4, evaluation.feature_keys)
        load_or_evaluate(path, [row], lambda row: evaluation, CONFIG, "f")
        [again] = load_or_evaluate(path, [row], lambda row: pytest.fail("stored"), CONFIG, "f")
        assert _same(again, evaluation)
        assert again.membership.dtype == bool and again.masses.dtype == np.float64


class TestStoreFormat:
    """Arrays are stored as their raw bytes, so a stored evaluation reads back bit for bit."""

    def test_golden_store_decodes_bit_exactly_and_re_encodes_to_its_bytes(self, tmp_path):
        path = tmp_path / "evaluations.jsonl"
        shutil.copyfile(GOLDEN_STORE, path)
        [stored] = load_or_evaluate(
            path, [GOLDEN_INSTANCE], lambda row: pytest.fail("stored"), CONFIG, "golden"
        )
        expected = golden_evaluation()
        for name in ("membership", "masses"):
            got, want = getattr(stored, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert (stored.instance_index, stored.feature_keys) == (
            expected.instance_index, expected.feature_keys
        )
        line = GOLDEN_STORE.read_bytes().split(b"\n")[1] + b"\n"
        content = cache.content_digest(GOLDEN_INSTANCE)
        assert cache._encode(stored, content) == line
        assert cache._encode(expected, content) == line
        assert path.read_bytes() == GOLDEN_STORE.read_bytes()

    def test_fingerprint_is_pinned(self):
        # Any change to what the fingerprint hashes refuses every existing
        # store as stale; such a change must update this value on purpose.
        vmap = VerbalizerMap.from_mapping({"yes": ["yes", "Yes"], "no": ["no"]})
        assert config_fingerprint(SamplingConfig(), PromptTemplate(), vmap) == PINNED_FINGERPRINT
