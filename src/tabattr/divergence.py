"""Distribution distances and the bounded similarity maps built on them.

All divergences use the natural logarithm (nats). Similarities map a
distance onto [0, 1] with identity at 1:

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


def _checked_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distributions must be 1-D and same length, got {p.shape} vs {q.shape}")
    if p.size == 0:
        raise ValueError("distributions must be non-empty")
    for name, vec in (("p", p), ("q", q)):
        if np.any(vec < 0):
            raise ValueError(f"{name} has negative entries")
        if abs(vec.sum() - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"{name} sums to {vec.sum()}, not 1")
    return p, q


def _kl_terms(p: np.ndarray, q: np.ndarray) -> float:
    # 0 * ln(0/x) = 0 by convention. Callers guarantee q > 0 wherever p > 0
    # up to float underflow (a subnormal p can underflow the JSD mixture to
    # exactly 0); such terms are bounded by p * ln 2 < 1e-300 and are dropped.
    mask = (p > 0) & (q > 0)
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jsd_nat(p, q) -> float:
    """Jensen-Shannon divergence in nats, via the mixture m = (p + q) / 2.

    Symmetric, and bounded by ln 2 for any pair of distributions.
    """
    p, q = _checked_pair(p, q)
    m = 0.5 * (p + q)
    return max(0.0, 0.5 * _kl_terms(p, m) + 0.5 * _kl_terms(q, m))


def kl_nat(p, q, eps: float = KL_EPSILON) -> float:
    """KL(p || q) in nats after adding ``eps`` to every entry of q and renormalizing.

    Identical inputs short-circuit to exactly 0 so the similarity identity
    holds bit-exactly even when the shared support contains zeros.
    """
    p, q = _checked_pair(p, q)
    if np.array_equal(p, q):
        return 0.0
    q_smooth = (q + eps) / (1.0 + eps * q.size)
    return max(0.0, _kl_terms(p, q_smooth))


def l1(p, q) -> float:
    """Total variation style L1 distance, in [0, 2]."""
    p, q = _checked_pair(p, q)
    return float(np.abs(p - q).sum())


def similarity(metric: str, p_full, p_s) -> float:
    """Bounded similarity of a coalition distribution to the full-input one.

    Identity maps to 1 for every metric; the result is clamped into [0, 1].
    """
    if metric == "jsd":
        return 1.0 - min(jsd_nat(p_full, p_s) / LN2, 1.0)
    if metric == "kl":
        return 1.0 - min(kl_nat(p_full, p_s) / LN2, 1.0)
    if metric == "l1":
        return 1.0 - min(l1(p_full, p_s) / 2.0, 1.0)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _kl_term_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # _kl_terms per row. Each row's kept terms are summed as a contiguous row
    # of their own length, the same additions in the same order as the 1-D sum.
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
    """:func:`similarity` of every row of ``rows`` to ``p_full``, bit for bit.

    The matrix is validated once; a row that is not a distribution raises ``ValueError``.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    p, _ = _checked_pair(p_full, p_full)
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
