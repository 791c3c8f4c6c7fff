from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from tabattr import (
    METRICS,
    Backend,
    PromptTemplate,
    SamplingConfig,
    essential_coalitions,
    evaluate,
    n_extra,
    normalize_phi,
    sample_extra,
    score,
)
from tabattr.attribution import Evaluation
from tabattr.cache import load_or_evaluate
from tabattr.divergence import similarity_rows
from tabattr.errors import AttributionError, ConfigError
from conftest import FlakyBackend, attribute, brute_force_raw_phi, make_instance, oracle_backend
from reference import build_prompt


def _row_sets(rows) -> list[frozenset[int]]:
    return [frozenset(np.flatnonzero(row).tolist()) for row in rows]


class PromptLog(Backend):
    """Delegates to an inner backend and keeps every prompt it was asked."""

    def __init__(self, inner: Backend):
        super().__init__()
        self.inner = inner
        self.prompts: list[str] = []

    def _fetch(self, prompt, k, wait):
        self.prompts.append(prompt)
        return self.inner.query(prompt, k, wait)


class TestCoalitionRows:
    def test_evaluation_stacks_essential_then_sampled_rows(self, template, yes_no_vmap):
        instance = make_instance(0, [f"f{i}" for i in range(5)])
        config = SamplingConfig(ratio=0.5, seed=4)
        evaluation = evaluate(instance, oracle_backend({"f0": 1.0}), template, yes_no_vmap, config)
        extra = sample_extra(5, config.ratio, config.max_coalitions, config.seed)
        assert evaluation.membership.dtype == bool
        assert np.array_equal(evaluation.membership, np.vstack([essential_coalitions(5), extra]))
        assert evaluation.membership.any(axis=1).all()
        assert evaluation.masses.shape == (len(evaluation.membership) + 1, 2)

    def test_row_queries_its_members_in_field_order(self, template, yes_no_vmap):
        instance = make_instance(0, ["d", "b", "c", "a"])
        backend = PromptLog(oracle_backend({"a": 1.0}))
        evaluation = evaluate(
            instance, backend, template, yes_no_vmap, SamplingConfig(ratio=1.0, seed=2)
        )
        expected = {build_prompt(template, instance.fields)} | {
            build_prompt(template, tuple(f for f, keep in zip(instance.fields, row) if keep))
            for row in evaluation.membership
        }
        assert sorted(backend.prompts) == sorted(expected)


class TestSamplingConfig:
    def test_defaults_match_published_settings(self):
        config = SamplingConfig()
        assert (config.ratio, config.max_coalitions, config.top_k) == (0.4, 800, 10)

    @pytest.mark.parametrize("bad", [{"ratio": 0.0}, {"ratio": 1.2}, {"top_k": 0}, {"max_coalitions": 0}])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            SamplingConfig(**bad)


class TestEssentialCoalitions:
    def test_m3_leave_one_out(self):
        assert essential_coalitions(3).tolist() == [
            [False, True, True],
            [True, False, True],
            [True, True, False],
        ]

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            essential_coalitions(1)

    def test_m14_cardinality(self):
        rows = essential_coalitions(14)
        assert rows.shape == (14, 14)
        assert (rows.sum(axis=1) == 13).all()


class TestNExtra:
    def test_published_configuration_arithmetic(self):
        assert n_extra(14, 0.4, 800) == 786
        assert n_extra(13, 0.4, 800) == 787

    def test_small_m_full_ratio(self):
        assert n_extra(3, 1.0, 800) == 4

    def test_cap_floor_at_zero(self):
        assert n_extra(10, 0.5, 5) == 0


def _draw_by_draw(m: int, ratio: float, max_coalitions: int, seed: int) -> list[frozenset[int]]:
    """Reference sampler: one coalition per step, as plain sets."""
    target = n_extra(m, ratio, max_coalitions)
    rng = np.random.default_rng(seed)
    seen = {frozenset(range(m)) - {j} for j in range(m)}
    chosen: list[frozenset[int]] = []
    if 2**m - 1 <= 4 * max_coalitions:
        masks = np.arange(1, 2**m, dtype=np.int64)
        rng.shuffle(masks)
        for mask in masks:
            members = frozenset(j for j in range(m) if mask >> j & 1)
            if members not in seen and len(chosen) < target:
                chosen.append(members)
        return chosen
    while len(chosen) < target:
        members = frozenset(np.flatnonzero(rng.integers(0, 2, size=m)).tolist())
        if members and members not in seen:
            seen.add(members)
            chosen.append(members)
    return chosen


class TestSampleExtra:
    def test_m3_full_ratio_recovers_powerset(self):
        extra = sample_extra(3, 1.0, 800, seed=1)
        everything = set(_row_sets(essential_coalitions(3))) | set(_row_sets(extra))
        expected = {
            frozenset(s)
            for r in range(1, 4)
            for s in itertools.combinations(range(3), r)
        }
        assert everything == expected
        assert extra.shape == (4, 3)

    def test_distinct_nonempty_and_disjoint_from_essential(self):
        extra = sample_extra(14, 0.4, 800, seed=9)
        assert extra.shape == (786, 14)
        members = _row_sets(extra)
        assert len(set(members)) == len(members)
        assert all(m for m in members)
        assert not (set(members) & set(_row_sets(essential_coalitions(14))))

    def test_seed_reproducible(self):
        a = sample_extra(12, 0.3, 400, seed=42)
        b = sample_extra(12, 0.3, 400, seed=42)
        assert np.array_equal(a, b)
        c = sample_extra(12, 0.3, 400, seed=43)
        assert not np.array_equal(a, c)

    def test_cap_at_m_draws_nothing(self):
        assert sample_extra(10, 0.5, 10, seed=0).shape == (0, 10)  # enumerate branch
        assert sample_extra(26, 0.5, 26, seed=0).shape == (0, 26)  # coin-flip branch

    def test_rejection_branch_at_large_m(self):
        # 2^26 - 1 >> 4 * 120 forces the coin-flip path
        extra = sample_extra(26, 0.4, 120, seed=5)
        assert extra.shape == (120 - 26, 26)
        members = _row_sets(extra)
        assert len(set(members)) == len(members)
        assert all(0 < len(m) <= 26 for m in members)

    @pytest.mark.parametrize(
        "m, ratio, cap",
        [(2, 1.0, 800), (5, 0.6, 800), (10, 0.4, 800), (11, 1.0, 800), (13, 0.4, 800),
         (14, 0.4, 800), (14, 1.0, 60), (26, 0.4, 120)],
    )
    def test_same_coalitions_as_drawing_one_at_a_time(self, m, ratio, cap):
        # Both branches: the enumerate-and-shuffle one (2^M - 1 <= 4 * cap) and
        # the coin-flip one must pick the reference's coalitions, in order.
        for seed in range(4):
            expected = _draw_by_draw(m, ratio, cap, seed)
            assert _row_sets(sample_extra(m, ratio, cap, seed)) == expected


class TestNormalizePhi:
    def test_shift_and_scale(self):
        phi, fallback = normalize_phi(np.array([0.2, -0.1]))
        assert phi == pytest.approx([1.0, 0.0], abs=1e-12)
        assert not fallback

    def test_all_equal_falls_back_to_uniform(self):
        phi, fallback = normalize_phi(np.array([0.3, 0.3, 0.3]))
        assert phi == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)
        assert fallback

    def test_three_way_example(self):
        phi, _ = normalize_phi(np.array([0.3, 0.1, 0.0]))
        assert phi == pytest.approx([0.75, 0.25, 0.0], abs=1e-12)

    def test_short_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize_phi(np.array([1.0]))


@pytest.fixture
def dominant_setup(template, yes_no_vmap):
    # P(yes) = 0.9 iff feature 0 is present, else 0.5
    backend = oracle_backend({"a": math.log(9.0)})
    instance = make_instance(0, ["a", "b"])
    return backend, instance, template, yes_no_vmap


class TestComputeAttributions:
    def test_worked_two_feature_example(self, dominant_setup):
        backend, instance, template, vmap = dominant_setup
        config = SamplingConfig(ratio=1.0, seed=3)
        result = attribute(instance, backend, template, vmap, config)
        assert result.raw_phi == pytest.approx([0.146793, -0.073397], abs=1e-5)
        assert result.phi == pytest.approx([1.0, 0.0], abs=1e-9)
        assert len(result.membership) == 3
        assert result.feature_keys == ("a", "b")

    def test_constant_oracle_gives_uniform_fallback(self, template, yes_no_vmap):
        backend = oracle_backend({}, bias=0.7)
        instance = make_instance(0, ["a", "b", "c"])
        result = attribute(
            instance, backend, template, yes_no_vmap, SamplingConfig(ratio=1.0)
        )
        assert result.raw_phi == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
        assert result.uniform_fallback
        assert result.phi == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_seed_determinism_bit_identical(self, dominant_setup):
        backend, instance, template, vmap = dominant_setup
        config = SamplingConfig(ratio=1.0, seed=11)
        a = attribute(instance, backend, template, vmap, config)
        b = attribute(instance, backend, template, vmap, config)
        assert a.to_payload() == b.to_payload()

    def test_workers_do_not_change_the_result(self, template, yes_no_vmap):
        backend = oracle_backend({f"f{i}": 0.2 * i for i in range(6)}, bias=-0.5)
        instance = make_instance(0, [f"f{i}" for i in range(6)])
        config = SamplingConfig(ratio=0.5, seed=2)
        serial = attribute(instance, backend, template, yes_no_vmap, config)
        threaded = attribute(
            instance, backend, template, yes_no_vmap, config, workers=4
        )
        assert serial.to_payload() == threaded.to_payload()

    def test_permuting_fields_permutes_phi(self, template, yes_no_vmap):
        weights = {"a": 1.4, "b": -0.6, "c": 0.3, "d": 2.0, "e": 0.05}
        backend = oracle_backend(weights, bias=-0.8)
        keys = list(weights)
        instance = make_instance(0, keys)
        permutation = [3, 0, 4, 1, 2]
        permuted = make_instance(0, [keys[i] for i in permutation])
        config = SamplingConfig(ratio=1.0, seed=6)  # exhaustive: sampler-order free
        base = attribute(instance, backend, template, yes_no_vmap, config)
        moved = attribute(permuted, backend, template, yes_no_vmap, config)
        by_key_base = dict(zip(base.feature_keys, base.phi))
        by_key_moved = dict(zip(moved.feature_keys, moved.phi))
        for key in keys:
            assert by_key_moved[key] == pytest.approx(by_key_base[key], abs=1e-12)

    def test_single_feature_rejected(self, template, yes_no_vmap):
        backend = oracle_backend({"a": 1.0})
        with pytest.raises(ValueError, match="at least 2"):
            attribute(
                make_instance(0, ["a"]), backend, template, yes_no_vmap, SamplingConfig()
            )

    def test_cap_below_m_rejected(self, template, yes_no_vmap):
        backend = oracle_backend({"a": 1.0})
        instance = make_instance(0, [f"f{i}" for i in range(5)])
        with pytest.raises(ConfigError, match="max_coalitions"):
            attribute(
                instance, backend, template, yes_no_vmap, SamplingConfig(max_coalitions=4)
            )

    def test_backend_failure_aborts_instance(self, template, yes_no_vmap):
        inner = oracle_backend({"a": 1.0})
        backend = FlakyBackend(inner, poison="b:2")
        instance = make_instance(0, ["a", "b"])
        with pytest.raises(AttributionError, match="instance 0"):
            attribute(
                instance, backend, template, yes_no_vmap, SamplingConfig(ratio=1.0)
            )

    def test_ranking_orders_by_phi(self, template, yes_no_vmap):
        backend = oracle_backend({"weak": 0.1, "strong": 2.5, "mid": 0.8}, bias=-1.0)
        instance = make_instance(0, ["weak", "strong", "mid"])
        result = attribute(
            instance, backend, template, yes_no_vmap, SamplingConfig(ratio=1.0, seed=1)
        )
        assert result.ranking() == ("strong", "mid", "weak")


class TestExhaustiveEquivalence:
    def test_matches_brute_force_enumeration(self, template, yes_no_vmap):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5):
            weights = {f"f{i}": float(rng.normal()) for i in range(m)}
            backend = oracle_backend(weights, bias=float(rng.normal()) / 2)
            instance = make_instance(0, list(weights))
            config = SamplingConfig(ratio=1.0, max_coalitions=2**m, seed=int(rng.integers(1e6)))
            result = attribute(instance, backend, template, yes_no_vmap, config)
            expected = brute_force_raw_phi(instance, backend, template, yes_no_vmap)
            assert result.raw_phi == pytest.approx(expected, abs=1e-12)
            assert len(result.membership) == 2**m - 1


class TestEvaluateThenScore:
    def test_one_evaluation_serves_every_metric(self, template, yes_no_vmap):
        backend = PromptLog(oracle_backend({f"f{i}": 0.4 * i - 0.7 for i in range(7)}, bias=0.3))
        instance = make_instance(0, [f"f{i}" for i in range(7)])
        config = SamplingConfig(ratio=0.5, seed=8)
        evaluation = evaluate(instance, backend, template, yes_no_vmap, config)
        queried = len(backend.prompts)
        full_row_drawn = evaluation.membership.all(axis=1).any()
        assert queried == len(evaluation.membership) + 1 - full_row_drawn
        for metric in METRICS:
            scored = score(evaluation, metric)
            one_shot = attribute(instance, backend, template, yes_no_vmap, config, metric)
            assert scored.to_payload() == one_shot.to_payload()
            assert scored.to_payload()["config"]["metric"] == metric
        assert len(backend.prompts) == queried * (1 + len(METRICS))

    @pytest.mark.parametrize("seed", range(4))
    def test_means_equal_the_masked_means_exactly(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 15))
        drawn = rng.random((int(rng.integers(0, 800)), m)) < 0.5
        membership = np.vstack([essential_coalitions(m), drawn[drawn.any(axis=1)]])
        masses = rng.random((len(membership) + 1, 3))
        evaluation = Evaluation(
            instance_index=0, feature_keys=tuple(f"f{j}" for j in range(m)),
            config=SamplingConfig(), membership=membership, masses=masses,
        )
        dists = masses / masses.sum(axis=1, keepdims=True)
        for metric in METRICS:
            sims = similarity_rows(metric, dists[0], dists[1:])
            masked = [sims[column].mean() - sims[~column].mean() for column in membership.T]
            assert score(evaluation, metric).raw_phi.tolist() == masked

    def test_unknown_metric_rejected(self, dominant_setup):
        backend, instance, template, vmap = dominant_setup
        evaluation = evaluate(instance, backend, template, vmap, SamplingConfig(ratio=1.0))
        with pytest.raises(ConfigError):
            score(evaluation, "hellinger")

    def test_payload_arrays_round_trip(self, dominant_setup, tmp_path):
        # An evaluation read back from its store line scores exactly as the original.
        backend, instance, template, vmap = dominant_setup
        config = SamplingConfig(ratio=1.0, seed=5)
        evaluation = evaluate(instance, backend, template, vmap, config)
        path = tmp_path / "evaluations.jsonl"
        load_or_evaluate(path, [instance], lambda i: evaluation, config, "f")
        [again] = load_or_evaluate(path, [instance], lambda i: pytest.fail("stored"), config, "f")
        for name in ("membership", "masses"):
            assert np.array_equal(getattr(again, name), getattr(evaluation, name))
            assert getattr(again, name).dtype == getattr(evaluation, name).dtype
        assert (again.instance_index, again.feature_keys, again.config) == (0, ("a", "b"), config)
        for metric in METRICS:
            assert score(again, metric).to_payload() == score(evaluation, metric).to_payload()
