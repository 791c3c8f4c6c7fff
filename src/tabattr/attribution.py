"""Sampled-coalition feature attribution.

A coalition is a row of a bool membership matrix (entry (i, j) is true when
coalition i holds feature j). The estimator always uses the M leave-one-out
("essential") rows and adds random distinct non-empty rows up to
``floor(((2^M - 1) - M) * r)``, capped at ``C_max - M``.

Repeated draws are recognized by each row's packed bytes (:func:`row_keys`),
for any M.

:func:`evaluate` works per instance, one pass per layer: one
:func:`~tabattr.tabular.build_prompts` call builds every row's prompt, each
distinct prompt is queried once, and one
:func:`~tabattr.verbalizer.class_masses` call turns the answers into each
row's raw class masses. :func:`score` normalizes them into class
distributions (:func:`~tabattr.verbalizer.normalize_masses`), then applies a
metric: each row's bounded similarity to the full-input distribution, and
per feature the mean similarity of the rows that include it minus that of
the rows that exclude it, shifted by the minimum and normalized to sum to
one. The normalization and the metric act only after the backend has
answered, so they are scoring choices, not sampling settings: one
:class:`Evaluation`, stored once per output directory (:mod:`tabattr.cache`),
serves every metric.

Averaging "with j minus without j" uniformly over sampled non-empty subsets
is a Banzhaf-style value of the similarity game, not a Shapley value, which
would weight each subset by its size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .backends import Backend, evaluate_prompts
from .divergence import METRICS, similarity_rows
from .errors import AttributionError, BackendError, ConfigError
from .tabular import PromptTemplate, TabularInstance, build_prompts
from .verbalizer import VerbalizerMap, class_masses, normalize_masses


@dataclass(frozen=True)
class SamplingConfig:
    """Estimator knobs. Defaults: ratio 0.4, cap 800 coalitions, top-10 logits.

    The metric is not one of them: it is chosen when an evaluation is scored.
    """

    ratio: float = 0.4
    max_coalitions: int = 800
    seed: int = 0
    top_k: int = 10

    def __post_init__(self):
        if not 0.0 < self.ratio <= 1.0:
            raise ConfigError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.max_coalitions < 1:
            raise ConfigError("max_coalitions must be positive")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Evaluation:
    """One instance's coalitions (N x M bool) and the raw class masses
    ((N + 1) x C) of the full prompt, first, and of each coalition, before
    they are normalized or any metric is applied."""

    instance_index: int
    feature_keys: tuple[str, ...]
    config: SamplingConfig
    membership: np.ndarray
    masses: np.ndarray


@dataclass(frozen=True)
class AttributionResult(Evaluation):
    """An evaluation scored under ``metric``, with its full-input class
    distribution and zero-mass flags. Its payload keeps these and the scores;
    the coalitions and their masses stay in the evaluation store, and
    ``score`` of the stored evaluation reproduces them exactly."""

    metric: str
    raw_phi: np.ndarray
    phi: np.ndarray
    uniform_fallback: bool
    full_dist: np.ndarray
    full_degenerate: bool
    degenerate_coalitions: int

    def ranking(self) -> tuple[str, ...]:
        """Feature keys most-important first; ties keep instance field order."""
        order = np.argsort(-self.phi, kind="stable")
        return tuple(self.feature_keys[i] for i in order)

    def to_payload(self) -> dict:
        return {
            "instance_index": self.instance_index,
            "metric": self.metric,
            "phi": {k: float(v) for k, v in zip(self.feature_keys, self.phi)},
            "raw_phi": [float(v) for v in self.raw_phi],
            "feature_keys": list(self.feature_keys),
            "full_dist": self.full_dist.tolist(),
            "seed": self.config.seed,
            "coalition_count": len(self.membership),
            "degeneracy_flags": {
                "uniform_phi_fallback": self.uniform_fallback,
                "full_prompt_degenerate": self.full_degenerate,
                "degenerate_coalitions": self.degenerate_coalitions,
            },
            "config": {**self.config.to_payload(), "metric": self.metric},
        }


def essential_coalitions(m: int) -> np.ndarray:
    """The M leave-one-out rows (M x M bool); row j omits exactly feature j.

    M = 1 is rejected: its only leave-one-out set would be empty, which the
    sampler never evaluates.
    """
    if m < 2:
        raise ValueError(f"leave-one-out coalitions need M >= 2, got {m}")
    return ~np.eye(m, dtype=bool)


def n_extra(m: int, ratio: float, max_coalitions: int) -> int:
    """Number of additional random coalitions beyond the M essential ones."""
    proposed = math.floor(((2**m - 1) - m) * ratio)
    return min(proposed, max(0, max_coalitions - m))


def row_keys(rows: np.ndarray) -> list[bytes]:
    """Each row's packed bytes: equal rows have equal keys, for any M."""
    packed = np.packbits(rows, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()


def _new_rows(rows: np.ndarray, seen: set[bytes] | None = None) -> np.ndarray:
    """First occurrence of each row, in order, minus empty and leave-one-out rows.

    ``seen`` holds the :func:`row_keys` of rows already taken; their repeats
    are dropped too, and the new rows' keys are added to it.
    """
    seen = set() if seen is None else seen
    sizes = rows.sum(axis=1)
    rows = rows[(sizes > 0) & (sizes != rows.shape[1] - 1)]
    first = []
    for i, key in enumerate(row_keys(rows)):
        if key not in seen:
            seen.add(key)
            first.append(i)
    return rows[first]


def sample_extra(m: int, ratio: float, max_coalitions: int, seed: int) -> np.ndarray:
    """Draw distinct non-empty coalitions uniformly, excluding the essential rows.

    Returns ``n_extra`` rows of M bools, in draw order and reproducible from
    ``seed``; the full coalition may be drawn. Small powersets are shuffled
    as bitmasks; otherwise each draw is M coin-flips, rejected if empty or
    already seen, so 2^M subsets are never materialized.
    """
    if m < 2:
        raise ValueError(f"sampling needs M >= 2, got {m}")
    target = n_extra(m, ratio, max_coalitions)
    rng = np.random.default_rng(seed)
    if 2**m - 1 <= 4 * max_coalitions:
        masks = np.arange(1, 2**m, dtype=np.int64)
        rng.shuffle(masks)
        # At most the M leave-one-out masks are skipped, so this prefix suffices.
        return _new_rows((masks[: target + m, None] >> np.arange(m) & 1).astype(bool))[:target]

    # Coin-flips come off the generator as one stream, so drawing them in
    # blocks picks the same coalitions as drawing one coalition at a time.
    seen: set[bytes] = set()
    chosen = [np.zeros((0, m), dtype=bool)]
    while len(seen) < target:
        chosen.append(_new_rows(rng.integers(0, 2, size=(target, m)).astype(bool), seen))
    return np.vstack(chosen)[:target]


def normalize_phi(raw: np.ndarray) -> tuple[np.ndarray, bool]:
    """Shift by the minimum and normalize to sum to one.

    An all-equal raw vector would shift to zeros; that degenerates to the
    uniform vector with the fallback flag set instead of dividing by zero.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError("raw scores must be a vector of length >= 2")
    shifted = raw - raw.min()
    total = shifted.sum()
    if total == 0.0:
        return np.full(raw.size, 1.0 / raw.size), True
    return shifted / total, False


def evaluate(
    instance: TabularInstance,
    backend: Backend,
    template: PromptTemplate,
    vmap: VerbalizerMap,
    config: SamplingConfig,
    workers: int = 1,
) -> Evaluation:
    """Sample the coalitions of one instance and query each prompt once.

    The result does not depend on ``workers``.

    Raises:
        ValueError: fewer than 2 features.
        ConfigError: ``max_coalitions`` below the instance's feature count.
        AttributionError: any backend failure; no partial result is kept.
    """
    m = instance.num_features
    if m < 2:
        raise ValueError(f"attribution needs at least 2 features, instance has {m}")
    if config.max_coalitions < m:
        raise ConfigError(
            f"max_coalitions={config.max_coalitions} is below M={m} for instance "
            f"{instance.index}; every essential coalition must fit"
        )

    extra = sample_extra(m, config.ratio, config.max_coalitions, config.seed)
    membership = np.vstack([essential_coalitions(m), extra])
    # The full prompt goes first, then one prompt per coalition row.
    full = np.ones((1, m), dtype=bool)
    prompts = build_prompts(template, instance, np.vstack([full, membership]))

    try:
        responses = evaluate_prompts(backend, prompts, config.top_k, workers)
    except BackendError as exc:
        raise AttributionError(f"instance {instance.index}: backend failed: {exc}") from exc

    return Evaluation(
        instance_index=instance.index,
        feature_keys=instance.keys,
        config=config,
        membership=membership,
        masses=class_masses([responses[prompt] for prompt in prompts], vmap),
    )


def score(evaluation: Evaluation, metric: str) -> AttributionResult:
    """Attribution scores of an evaluated instance under ``metric``."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; expected one of {METRICS}")
    dists, degenerate = normalize_masses(evaluation.masses)
    sims = similarity_rows(metric, dists[0], dists[1:])
    membership = evaluation.membership
    # Essential leave-one-out sets guarantee every feature is present in at
    # least one coalition and absent from at least one, so both means exist.
    # Each is sims[mask].mean() to the bit: the same pairwise sum, over the
    # same rows in the same order, divided by the count.
    with_rows = map(np.flatnonzero, membership.T)
    without_rows = map(np.flatnonzero, ~membership.T)
    with_mean = np.array([np.add.reduce(sims[rows]) / len(rows) for rows in with_rows])
    without_mean = np.array([np.add.reduce(sims[rows]) / len(rows) for rows in without_rows])
    raw_phi = with_mean - without_mean
    phi, fallback = normalize_phi(raw_phi)
    evaluated = {f.name: getattr(evaluation, f.name) for f in fields(Evaluation)}
    return AttributionResult(
        **evaluated,
        metric=metric, raw_phi=raw_phi, phi=phi, uniform_fallback=fallback,
        full_dist=dists[0], full_degenerate=bool(degenerate[0]),
        degenerate_coalitions=int(degenerate[1:].sum()),
    )
