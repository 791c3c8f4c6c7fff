from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tabattr import VerbalizerMap, canonicalize_token
from tabattr.errors import ConfigError
from conftest import logistic, make_instance, oracle_backend, topk_from
from reference import aggregate_raw, build_prompt, class_distribution, normalize_classes


class TestCanonicalizeToken:
    @pytest.mark.parametrize(
        "token,expected",
        [(" Yes", "yes"), ("no", "no"), ("  NO ", "no"), ("", ""), (" \t ", "")],
    )
    def test_strip_and_lowercase(self, token, expected):
        assert canonicalize_token(token) == expected


@pytest.fixture
def mixed_topk():
    return topk_from(
        {" yes": 0.6, "Yes": 0.2, " no": 0.1, "maybe": 0.05}, k=10
    )


class TestAggregateRaw:
    def test_spacing_and_casing_variants_pool(self, mixed_topk, yes_no_vmap):
        raw = aggregate_raw(mixed_topk, yes_no_vmap)
        assert raw == pytest.approx([0.8, 0.1], abs=1e-12)

    def test_no_class_tokens_gives_zeros(self, yes_no_vmap):
        topk = topk_from({"alpha": 0.4, "beta": 0.3}, k=5)
        assert aggregate_raw(topk, yes_no_vmap).tolist() == [0.0, 0.0]

    def test_single_match(self, yes_no_vmap):
        topk = topk_from({" no": 0.3}, k=5)
        raw = aggregate_raw(topk, yes_no_vmap)
        assert raw[0] == 0.0
        assert raw[1] == pytest.approx(0.3, abs=1e-12)

    def test_never_exceeds_topk_mass(self, mixed_topk, yes_no_vmap):
        total = sum(math.exp(lp) for lp in mixed_topk.logprobs)
        assert aggregate_raw(mixed_topk, yes_no_vmap).sum() <= total + 1e-12


class TestNormalizeClasses:
    def test_renormalizes_over_class_subspace(self):
        dist, degenerate = normalize_classes(np.array([0.8, 0.1]))
        assert dist == pytest.approx([8 / 9, 1 / 9], abs=1e-12)
        assert not degenerate

    def test_already_normalized_unchanged(self):
        dist, degenerate = normalize_classes(np.array([0.5, 0.5]))
        assert dist.tolist() == [0.5, 0.5]
        assert not degenerate

    def test_zero_mass_degenerates_to_uniform(self):
        dist, degenerate = normalize_classes(np.array([0.0, 0.0]))
        assert dist.tolist() == [0.5, 0.5]
        assert degenerate

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            normalize_classes(np.array([-0.1, 0.5]))

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=6).filter(
            lambda raw: sum(raw) > 1e-6
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, raw, scale):
        base, _ = normalize_classes(np.array(raw))
        scaled, _ = normalize_classes(np.array(raw) * scale)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestVerbalizerMap:
    def test_overlapping_surface_sets_rejected(self):
        with pytest.raises(ConfigError, match="claimed by both"):
            VerbalizerMap.from_mapping({"yes": ["y"], "no": ["Y "]})

    def test_empty_surface_set_rejected(self):
        with pytest.raises(ConfigError, match="empty surface set"):
            VerbalizerMap.from_mapping({"yes": [], "no": ["no"]})

    @pytest.mark.parametrize(
        "mapping, label",
        [({"yes": "yes", "no": ["no"]}, "yes"), ({"yes": ["yes"], "no": [3]}, "no"),
         ({"yes": ["yes"], "no": None}, "no")],
        ids=["string", "number-form", "null"],
    )
    def test_forms_must_be_a_list_of_strings(self, mapping, label):
        with pytest.raises(ConfigError, match=f"^class '{label}' needs a list of surface-form"):
            VerbalizerMap.from_mapping(mapping)

    def test_from_json(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"yes": ["Yes", " yes"], "no": ["No"]}')
        vmap = VerbalizerMap.from_json(path)
        assert vmap.classes == ("yes", "no")
        assert vmap.surface_sets["yes"] == frozenset({"yes"})

    def test_class_order_preserved(self):
        vmap = VerbalizerMap.from_mapping({"high": ["h"], "low": ["l"]})
        assert vmap.classes == ("high", "low")


class TestSyntheticPipelineAgreement:
    def test_aggregation_reproduces_analytic_probabilities(self, template, yes_no_vmap):
        backend = oracle_backend({"age": 1.3, "sex": -0.4}, bias=0.2)
        instance = make_instance(0, ["age", "sex", "race"])
        prompt = build_prompt(template, instance.fields)
        dist, degenerate = class_distribution(backend.query(prompt, 10), yes_no_vmap)
        expected = logistic(0.2 + 1.3 - 0.4)
        assert not degenerate
        assert dist[0] == pytest.approx(expected, abs=1e-9)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
