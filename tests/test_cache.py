from __future__ import annotations

import json

import pytest

from tabattr import SamplingConfig, compute_attributions, load_or_compute
from tabattr.errors import BackendError, CorruptCacheError, StaleCacheError
from conftest import make_instance, oracle_backend

KEYS = ("a", "b", "c")


@pytest.fixture
def compute(template, yes_no_vmap):
    backend = oracle_backend({"a": 1.0, "b": -0.5, "c": 0.25})

    def attribute(idx: int, metric: str = "jsd"):
        instance = make_instance(idx, KEYS, [str(idx), "2", "3"])
        config = SamplingConfig(metric=metric, max_coalitions=10)
        return compute_attributions(instance, backend, template, yes_no_vmap, config)

    return attribute


class TestLoadOrCompute:
    def test_cache_of_another_metric_is_rejected(self, compute, tmp_path):
        path = tmp_path / "cache.json"
        load_or_compute(path, [0], "jsd", compute, fingerprint="f")
        with pytest.raises(StaleCacheError, match="holds metric 'jsd', not 'kl'"):
            load_or_compute(path, [0], "kl", lambda idx: compute(idx, "kl"), fingerprint="f")

    def test_truncated_cache_reports_its_byte_offset(self, compute, tmp_path):
        path = tmp_path / "cache.json"
        load_or_compute(path, [0], "jsd", compute, fingerprint="f")
        text = path.read_text()[:200]
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as parse_error:
            json.loads(text)
        with pytest.raises(CorruptCacheError) as error:
            load_or_compute(path, [0], "jsd", compute, fingerprint="f")
        assert error.value.offset == parse_error.value.pos
        assert f"byte offset {parse_error.value.pos}" in str(error.value)

    def test_failure_keeps_finished_instances_and_a_rerun_computes_only_the_rest(
        self, compute, tmp_path
    ):
        path = tmp_path / "cache.json"
        calls: list[int] = []

        def failing_on_1(idx: int):
            calls.append(idx)
            if idx == 1:
                raise BackendError("backend down")
            return compute(idx)

        with pytest.raises(BackendError):
            load_or_compute(path, [0, 1], "jsd", failing_on_1, fingerprint="f")
        assert set(json.loads(path.read_text())["entries"]) == {"0"}

        calls.clear()
        results = load_or_compute(
            path, [0, 1], "jsd", lambda idx: calls.append(idx) or compute(idx), fingerprint="f"
        )
        assert calls == [1]
        assert [r.instance_index for r in results] == [0, 1]
        assert results[0].to_payload() == compute(0).to_payload()
