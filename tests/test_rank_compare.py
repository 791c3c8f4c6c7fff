from __future__ import annotations

import math

import numpy as np
import pytest

from tabattr import AttributionResult, SamplingConfig, global_ranking, spearman_rho


def _result(index: int, phi: dict[str, float], metric: str = "jsd") -> AttributionResult:
    """A scored instance with the given phi; global_ranking reads nothing else."""
    values = np.array(list(phi.values()))
    return AttributionResult(
        instance_index=index, feature_keys=tuple(phi), config=SamplingConfig(),
        membership=np.ones((1, len(phi)), dtype=bool), class_dists=np.ones((1, 2)) / 2,
        degenerate=np.zeros(1, dtype=bool), full_dist=np.ones(2) / 2, full_degenerate=False,
        metric=metric, raw_phi=values, phi=values, uniform_fallback=False,
    )


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
        assert math.isnan(spearman_rho(scores, ("c", "a", "b")))

    @pytest.mark.parametrize("order", [["a", "b", "a"], ["a", "b"], ["a", "b", "c", "z"]])
    def test_order_over_other_keys_is_refused(self, order):
        with pytest.raises(ValueError, match="must list each scored key once"):
            spearman_rho({"a": 2.0, "b": 1.0, "c": 0.0}, order)


class TestGlobalRanking:
    def test_mean_phi_per_key_orders_the_keys(self):
        ranking = global_ranking([_result(0, {"a": 0.1, "b": 0.6, "c": 0.3}),
                                  _result(1, {"a": 0.5, "b": 0.4, "c": 0.1})])
        assert ranking.keys == ("b", "a", "c")
        assert ranking.scores == pytest.approx({"a": 0.3, "b": 0.5, "c": 0.2})
        assert (ranking.n_instances, ranking.metric, ranking.tie_flag) == (2, "jsd", False)

    def test_exact_ties_are_flagged_and_ordered_by_key(self):
        ranking = global_ranking([_result(0, {"c": 0.25, "a": 0.25, "d": 0.5, "b": 0.0})])
        assert ranking.keys == ("d", "a", "c", "b")
        assert ranking.tie_flag

    @pytest.mark.parametrize(
        "results, named",
        [([], "at least one"),
         ([_result(0, {"a": 1.0, "b": 0.0}), _result(1, {"a": 1.0, "b": 0.0}, "kl")],
          "mix metrics: ['jsd', 'kl']"),
         ([_result(0, {"a": 1.0, "b": 0.0}), _result(1, {"a": 1.0, "c": 0.0})],
          "one feature schema")],
    )
    def test_unrankable_results_are_refused(self, results, named):
        with pytest.raises(ValueError) as caught:
            global_ranking(results)
        assert named in str(caught.value)
