"""Bounded similarities of class distributions to the full-input one.

:func:`similarity_rows` scores every coalition row of an instance against
the full-input distribution in one vectorized pass. All divergences use the
natural logarithm (nats). Similarities map a distance onto [0, 1] with
identity at 1:

* ``jsd``: 1 - min(JSD / ln 2, 1)
* ``kl`` : 1 - min(KL / ln 2, 1), KL taken against an epsilon-smoothed q
* ``l1`` : 1 - L1 / 2
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

#: Smoothing added to every entry of q before KL; top-K truncation routinely
#: produces exact zeros that the unsmoothed ratio cannot absorb.
KL_EPSILON = 1e-10

METRICS = ("jsd", "kl", "l1")

_SUM_TOLERANCE = 1e-6


def _checked_distribution(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"a distribution must be a non-empty 1-D vector, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("distribution has negative entries")
    if abs(p.sum() - 1.0) > _SUM_TOLERANCE:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p


def _kl_term_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # sum(p * ln(p / q)) per row, with 0 * ln(0/x) = 0 by convention. Callers
    # guarantee q > 0 wherever p > 0 up to float underflow (a subnormal p can
    # underflow the JSD mixture to exactly 0); such terms are bounded by
    # p * ln 2 < 1e-300 and are dropped. Each row's kept terms are summed as a
    # contiguous row of their own length, the same additions in the same
    # order as a 1-D sum of that row.
    keep = (p > 0) & (q > 0)
    terms = p[keep] * np.log(p[keep] / q[keep])
    counts = keep.sum(axis=1)
    starts = np.cumsum(counts) - counts
    sums = np.zeros(len(keep))
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        sums[rows] = terms[starts[rows, None] + np.arange(k)].sum(axis=1)
    return sums


def similarity_rows(metric: str, p_full, rows) -> np.ndarray:
    """Bounded similarity of every row of ``rows`` to ``p_full``.

    Identity maps to 1 for every metric; each result is clamped into [0, 1].
    The matrix is validated once; a row that is not a distribution raises
    ``ValueError``. KL short-circuits identical rows to exactly 0, so the
    identity holds bit-exactly even when the shared support has zeros.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    p = _checked_distribution(p_full)
    q = np.asarray(rows, dtype=float)
    if q.ndim != 2 or q.shape[1] != p.size:
        raise ValueError(f"rows must be a matrix of length-{p.size} rows, got {q.shape}")
    bad = np.flatnonzero(np.any(q < 0, axis=1) | (np.abs(q.sum(axis=1) - 1.0) > _SUM_TOLERANCE))
    if bad.size:
        raise ValueError(f"row {bad[0]} is not a distribution: {q[bad[0]].tolist()}")
    p = np.broadcast_to(p, q.shape)
    if metric == "l1":
        return 1.0 - np.minimum(np.abs(p - q).sum(axis=1) / 2.0, 1.0)
    if metric == "jsd":
        m = 0.5 * (p + q)
        d = 0.5 * _kl_term_rows(p, m) + 0.5 * _kl_term_rows(q, m)
    else:
        d = _kl_term_rows(p, (q + KL_EPSILON) / (1.0 + KL_EPSILON * q.shape[1]))
        d[np.all(p == q, axis=1)] = 0.0
    return 1.0 - np.minimum(np.where(d > 0.0, d, 0.0) / LN2, 1.0)
