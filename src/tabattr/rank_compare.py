"""Global feature rankings, and Spearman rank correlation of scores against an order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .attribution import AttributionResult


@dataclass(frozen=True)
class GlobalRanking:
    """Feature keys ordered by mean normalized attribution, descending.

    Exact score ties are broken lexicographically by key and flagged.
    """

    entries: tuple[tuple[str, float], ...]
    n_instances: int
    metric: str
    tie_flag: bool

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def scores(self) -> dict[str, float]:
        return dict(self.entries)

    def to_payload(self) -> dict:
        return {
            "metric": self.metric,
            "n_instances": self.n_instances,
            "tie_flag": self.tie_flag,
            "ranking": [{"key": k, "mean_score": s} for k, s in self.entries],
        }


def global_ranking(results: Sequence[AttributionResult]) -> GlobalRanking:
    """Aggregate per-instance attributions by the mean of normalized phi per key."""
    if not results:
        raise ValueError("need at least one attribution result")
    metrics = {r.metric for r in results}
    if len(metrics) > 1:
        raise ValueError(f"results mix metrics: {sorted(metrics)}")
    key_set = {frozenset(r.feature_keys) for r in results}
    if len(key_set) > 1:
        raise ValueError("results do not share one feature schema")

    keys = results[0].feature_keys
    sums = {k: 0.0 for k in keys}
    for result in results:
        for k, value in zip(result.feature_keys, result.phi):
            sums[k] += float(value)
    means = {k: sums[k] / len(results) for k in keys}
    ordered = sorted(means.items(), key=lambda item: (-item[1], item[0]))
    scores = list(means.values())
    tie_flag = len(set(scores)) != len(scores)
    return GlobalRanking(
        entries=tuple(ordered),
        n_instances=len(results),
        metric=metrics.pop(),
        tie_flag=tie_flag,
    )


def spearman_rho(scores: Mapping[str, float], order: Sequence[str]) -> float:
    """Spearman rank correlation between key scores and an order of the same keys.

    ``order`` lists the keys most important first; the highest score ranks
    first, and tied scores share their average rank. Scores that all tie give
    ``nan``.
    """
    if sorted(order) != sorted(scores):
        raise ValueError(f"order {list(order)} must list each scored key once: {sorted(scores)}")
    if len(order) < 2:
        raise ValueError("need at least 2 keys for a rank correlation")
    keys = sorted(scores)
    values = np.array([float(scores[k]) for k in keys])
    higher = (values[None, :] > values[:, None]).sum(axis=1)
    tied = (values[None, :] == values[:, None]).sum(axis=1)
    score_ranks = higher + (tied + 1) / 2.0
    positions = {k: i + 1 for i, k in enumerate(order)}
    order_ranks = np.array([positions[k] for k in keys], dtype=float)
    if (score_ranks == score_ranks[0]).all():
        return float("nan")  # a constant ranking has no rank correlation
    # Pearson correlation of the ranks, in the column layout (and so with the
    # summation order) of scipy.stats.spearmanr.
    return float(np.corrcoef(np.column_stack((score_ranks, order_ranks)), rowvar=False)[1, 0])
