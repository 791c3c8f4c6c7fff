from __future__ import annotations

import math

import pytest

from tabattr import spearman_rho


class TestSpearmanRho:
    def test_tied_scores_share_their_average_rank(self):
        scores = {"a": 3.0, "b": 1.0, "c": 1.0, "d": 0.0}
        # Ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4): covariance 4.5, variances 4.5 and 5.
        expected = 4.5 / math.sqrt(4.5 * 5.0)
        assert spearman_rho(scores, ["a", "b", "c", "d"]) == pytest.approx(expected, abs=1e-12)
        assert spearman_rho(scores, ["a", "c", "b", "d"]) == pytest.approx(expected, abs=1e-12)

    def test_constant_ranking_gives_nan(self):
        scores = {"a": 0.5, "b": 0.5, "c": 0.5}
        assert math.isnan(spearman_rho(scores, ["a", "b", "c"]))
        assert math.isnan(spearman_rho(["c", "a", "b"], scores))
