from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tabattr import LN2, METRICS, similarity_rows
from reference import jsd_nat, kl_nat, l1, similarity

_probs = st.floats(min_value=0.0, max_value=1.0)


def _binary(p):
    return np.array([p, 1.0 - p])


class TestJsd:
    def test_identical_is_zero(self):
        assert jsd_nat([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_support_is_ln2(self):
        assert jsd_nat([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_frozen_reference_value(self):
        # derived independently with a high-precision evaluation of the formula
        assert jsd_nat([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.10174922507919676, abs=1e-12)

    @given(_probs, _probs)
    def test_symmetry_and_bounds(self, p, q):
        a, b = _binary(p), _binary(q)
        assert abs(jsd_nat(a, b) - jsd_nat(b, a)) <= 1e-12
        assert 0.0 <= jsd_nat(a, b) <= LN2 + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            jsd_nat([1.0], [0.5, 0.5])

    def test_non_distribution_rejected(self):
        with pytest.raises(ValueError):
            jsd_nat([0.9, 0.4], [0.5, 0.5])
        with pytest.raises(ValueError):
            jsd_nat([-0.1, 1.1], [0.5, 0.5])


class TestKl:
    def test_identical_is_zero(self):
        assert kl_nat([0.3, 0.7], [0.3, 0.7]) <= 1e-12

    def test_point_mass_vs_uniform(self):
        # smoothing effect < 1e-9 here
        assert kl_nat([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-9)

    def test_frozen_reference_value(self):
        # KL(p||q) for p=(0.5,0.5), q=(0.9,0.1), re-derived with mpmath before freezing
        assert kl_nat([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.5108256237659907, abs=1e-9)

    def test_smoothing_absorbs_zeros_in_q(self):
        value = kl_nat([0.6, 0.4], [1.0, 0.0])
        assert math.isfinite(value)
        assert value > 1.0  # q gives ~zero mass where p has 0.4


class TestL1:
    def test_identical_is_zero(self):
        assert l1([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_disjoint_support_is_two(self):
        assert l1([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_manual_arithmetic(self):
        assert l1([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.8, abs=1e-12)


class TestSimilarity:
    def test_identity_maps_to_one(self):
        for metric in ("jsd", "kl", "l1"):
            assert similarity(metric, [0.7, 0.3], [0.7, 0.3]) == pytest.approx(1.0, abs=1e-12)

    def test_jsd_clamps_at_bound(self):
        assert similarity("jsd", [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_jsd_frozen_value(self):
        expected = 1.0 - 0.10174922507919676 / math.log(2)
        assert similarity("jsd", [0.9, 0.1], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)
        assert similarity("jsd", [0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.853207, abs=1e-6)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            similarity("hellinger", [0.5, 0.5], [0.5, 0.5])

    @given(_probs, _probs, st.sampled_from(["jsd", "kl", "l1"]))
    def test_always_in_unit_interval(self, p, q, metric):
        value = similarity(metric, _binary(p), _binary(q))
        assert 0.0 <= value <= 1.0

    @given(_probs, st.sampled_from(["jsd", "kl", "l1"]))
    def test_self_similarity_is_one(self, p, metric):
        value = similarity(metric, _binary(p), _binary(p))
        assert value == pytest.approx(1.0, abs=1e-12)


@st.composite
def _distribution(draw, c: int) -> np.ndarray:
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), _probs), min_size=c, max_size=c)))
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, c - 1))] = 1.0
    return weights / weights.sum()


@st.composite
def _full_and_rows(draw) -> tuple[np.ndarray, np.ndarray]:
    c = draw(st.integers(1, 12))
    full = draw(_distribution(c))
    count = draw(st.integers(1, 8))
    rows = [full.copy() if draw(st.booleans()) else draw(_distribution(c)) for _ in range(count)]
    return full, np.array(rows)


class TestSimilarityRows:
    @given(_full_and_rows(), st.sampled_from(METRICS))
    def test_matches_per_pair_bit_for_bit(self, case, metric):
        full, rows = case
        expected = np.array([similarity(metric, full, q) for q in rows])
        assert similarity_rows(metric, full, rows).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("metric", METRICS)
    def test_zeros_and_identity_rows(self, metric):
        full = np.array([0.7, 0.3, 0.0])
        rows = np.array([full, [0.0, 1.0, 0.0], [0.2, 0.0, 0.8], [0.0, 0.0, 1.0]])
        got = similarity_rows(metric, full, rows)
        assert got[0] == 1.0
        assert got.tobytes() == np.array([similarity(metric, full, q) for q in rows]).tobytes()

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [1.2, -0.2], [0.0, 0.0]])
    def test_non_distribution_row_rejected(self, bad):
        rows = np.array([[0.5, 0.5], bad, [1.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            similarity_rows("jsd", [0.5, 0.5], rows)
        with pytest.raises(ValueError):
            similarity("jsd", [0.5, 0.5], bad)

    def test_bad_full_or_shape_rejected(self):
        with pytest.raises(ValueError):
            similarity_rows("l1", [0.5, 0.6], np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            similarity_rows("l1", [0.5, 0.5], np.array([[0.2, 0.3, 0.5]]))
        with pytest.raises(ValueError):
            similarity_rows("l1", [0.5, 0.5], np.array([0.5, 0.5]))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            similarity_rows("hellinger", [0.5, 0.5], np.array([[0.5, 0.5]]))
