"""Grouped reductions that equal their per-group NumPy calls bit for bit.

The fitter reduces thousands of small sample groups (one per transition,
per cluster, per hour) at once.  Each helper here takes groups laid out
as contiguous slices of one flat array — ``starts``/``lengths`` — and
returns exactly what calling the per-group NumPy function on each slice
would, without the per-call dispatch:

* :func:`group_means` batches groups by size into one
  ``np.mean(..., axis=1)`` call each: a reduction over the contiguous
  last axis applies the same pairwise summation per row as a 1-D call;
* :func:`linear_quantiles` evaluates ``np.quantile(..., method="linear")``
  of every group in one pass of the same IEEE-754 operations;
* :func:`grouped_cumsum` is the per-group sequential ``np.cumsum``.

:func:`stable_order` (from :mod:`repro.trace.trace`) is the stable
group-by sort they all start from.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..trace.trace import stable_order  # noqa: F401 (the fitter's sort)


def group_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``keys``."""
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def group_means(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``np.mean`` of every non-empty group (NaN for empty groups)."""
    out = np.full(len(starts), np.nan)
    for size in np.unique(lengths).tolist():
        if size < 1:
            continue
        sel = np.flatnonzero(lengths == size)
        out[sel] = np.mean(values[starts[sel][:, None] + np.arange(size)], axis=1)
    return out


def linear_quantiles(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Per-group ``np.sort(np.quantile(group, q))``, one row per group.

    Every group's slice of ``values`` must be sorted ascending and
    non-empty.  The arithmetic is numpy's ``linear`` method step by step:
    virtual index ``(n-1)*q``, its floor (``-1`` at the top end, as
    ``_get_indexes`` sets it), ``gamma`` from that floor, and ``_lerp``'s
    two branches split at ``gamma >= 0.5``.
    """
    top = (np.asarray(lengths, dtype=np.int64) - 1)[:, None]
    virtual = top * q[None, :]
    prev = np.floor(virtual)
    above = virtual >= top
    prev[above] = -1.0
    gamma = virtual - prev
    lo = np.where(above, top, prev.astype(np.int64))
    hi = np.where(above, top, lo + 1)
    base = np.asarray(starts, dtype=np.int64)[:, None]
    a = values[base + lo]
    b = values[base + hi]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return np.sort(out, axis=1)


def grouped_knots(
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    max_points: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The stored CDF knots of every group, as ``(ptr, knots)``.

    Group ``g``'s knots are ``knots[ptr[g]:ptr[g+1]]``: its sorted
    samples, or — above ``max_points`` samples — the linear quantiles at
    ``np.linspace(0, 1, max_points)``, exactly as
    :meth:`repro.distributions.empirical.EmpiricalCDF.fit` stores them.
    Every group's slice of ``values`` must be sorted ascending.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    big = lengths > max_points
    if big.any():
        q = np.linspace(0.0, 1.0, max_points)
        if q.size == 0:  # EmpiricalCDF's error for zero knots
            raise ValueError("an empirical CDF needs at least one sample")
    out_len = np.minimum(lengths, max_points)
    ptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(out_len, out=ptr[1:])
    within = np.arange(ptr[-1]) - np.repeat(ptr[:-1], out_len)
    knots = values[np.repeat(starts, out_len) + within]
    if big.any():
        knots[np.repeat(big, out_len)] = linear_quantiles(
            values, starts[big], lengths[big], q
        ).ravel()
    return ptr, knots


def grouped_cumsum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-group ``np.cumsum`` of contiguous groups starting at ``starts``.

    Sums left to right within each group, as ``np.cumsum`` does, one
    vectorized step per position in the longest group.
    """
    out = np.asarray(values, dtype=np.float64).copy()
    if out.size == 0:
        return out
    first = np.zeros(out.size, dtype=bool)
    first[starts] = True
    pos = np.arange(out.size) - np.asarray(starts, dtype=np.int64)[
        np.cumsum(first) - 1
    ]
    for j in range(1, int(pos.max()) + 1):
        at = np.flatnonzero(pos == j)
        out[at] += out[at - 1]
    return out
