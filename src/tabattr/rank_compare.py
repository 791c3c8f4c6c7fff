"""Global feature rankings and Spearman rank correlation between them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

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


Ranking = Union[Sequence[str], Mapping[str, float], GlobalRanking]


def _rank_vector(ranking: Ranking, keys: Sequence[str]) -> np.ndarray:
    """Ranks aligned to ``keys``; rank 1 = most important, ties share the average."""
    if isinstance(ranking, GlobalRanking):
        ranking = ranking.scores
    if isinstance(ranking, Mapping):
        scores = np.array([float(ranking[k]) for k in keys])
        higher = (scores[None, :] > scores[:, None]).sum(axis=1)
        tied = (scores[None, :] == scores[:, None]).sum(axis=1)
        return higher + (tied + 1) / 2.0
    positions = {k: i + 1 for i, k in enumerate(ranking)}
    return np.array([positions[k] for k in keys], dtype=float)


def _ranking_keys(ranking: Ranking) -> set[str]:
    if isinstance(ranking, GlobalRanking):
        return set(ranking.keys)
    if isinstance(ranking, Mapping):
        return set(ranking)
    keys = list(ranking)
    if len(set(keys)) != len(keys):
        raise ValueError("ranking contains duplicate keys")
    return set(keys)


def spearman_rho(r1: Ranking, r2: Ranking) -> float:
    """Spearman rank correlation between two rankings of the same key set.

    Accepts ordered key sequences, key -> score mappings, or
    :class:`GlobalRanking` objects; score inputs get average-rank tie
    handling. A ranking whose keys all tie gives ``nan``.
    """
    keys1, keys2 = _ranking_keys(r1), _ranking_keys(r2)
    if keys1 != keys2:
        raise ValueError(
            f"rankings cover different keys: only-left={sorted(keys1 - keys2)} "
            f"only-right={sorted(keys2 - keys1)}"
        )
    if len(keys1) < 2:
        raise ValueError("need at least 2 keys for a rank correlation")
    keys = sorted(keys1)
    ranks1, ranks2 = _rank_vector(r1, keys), _rank_vector(r2, keys)
    if (ranks1 == ranks1[0]).all() or (ranks2 == ranks2[0]).all():
        return float("nan")  # a constant ranking has no rank correlation
    # Pearson correlation of the ranks, in the column layout (and so with the
    # summation order) of scipy.stats.spearmanr.
    return float(np.corrcoef(np.column_stack((ranks1, ranks2)), rowvar=False)[1, 0])
