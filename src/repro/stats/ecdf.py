"""Empirical CDFs and CDF distances.

The paper's headline microscopic metric is the **maximum y-distance**
between two CDFs — the largest vertical gap between them, i.e. the
two-sample Kolmogorov–Smirnov statistic when both CDFs are empirical.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..distributions.base import ArrayLike, Distribution


def ecdf(samples: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of ``samples`` as ``(sorted values, P(X <= value))``."""
    arr = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if arr.size == 0:
        raise ValueError("cannot build an ECDF from zero samples")
    probs = np.arange(1, arr.size + 1, dtype=np.float64) / arr.size
    return arr, probs


def evaluate_ecdf(samples: ArrayLike, x: ArrayLike) -> np.ndarray:
    """Evaluate the right-continuous ECDF of ``samples`` at points ``x``."""
    arr = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if arr.size == 0:
        raise ValueError("cannot evaluate an ECDF from zero samples")
    x = np.asarray(x, dtype=np.float64)
    return np.searchsorted(arr, x, side="right") / arr.size


def max_y_distance(samples_a: ArrayLike, samples_b: ArrayLike) -> float:
    """Maximum vertical distance between two empirical CDFs.

    Equals the two-sample K–S statistic.  Both step functions are
    evaluated at every jump point of either, which checks the supremum
    on either side of each jump.  The grid is the two samples
    concatenated and merged by one stable sort, not deduplicated: at
    the last of a run of equal values the running counts are
    ``#a <= x`` and ``#b <= x``, the same integers a binary search
    would give, so the maximum is the same double as over the union of
    the samples.
    """
    a = np.sort(np.asarray(samples_a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(samples_b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("max_y_distance needs non-empty sample sets")
    grid = np.concatenate([a, b])
    order = np.argsort(grid, kind="stable")
    grid = grid[order]
    last = np.append(grid[1:] != grid[:-1], True)
    count_a = np.cumsum(order < a.size)[last]
    count_b = np.flatnonzero(last) + 1 - count_a
    return float(np.max(np.abs(count_a / a.size - count_b / b.size)))


def ks_distance_to(distribution: Distribution, samples: ArrayLike) -> float:
    """One-sample K–S statistic of ``samples`` against a model CDF.

    ``D = sup_x |F_n(x) - F(x)|`` computed exactly at the sample points
    (the supremum of the difference against a continuous CDF is attained
    at a jump of the ECDF, approaching from either side).
    """
    arr = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if arr.size == 0:
        raise ValueError("ks_distance_to needs non-empty samples")
    n = arr.size
    model = distribution.cdf(arr)
    upper = np.arange(1, n + 1) / n - model
    lower = model - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
