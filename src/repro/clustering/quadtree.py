"""Recursive adaptive clustering over the UE feature space (§5.3).

The scheme recursively cuts the feature space at the midpoints of the
current cell until either (a) every feature's spread within the cell is
below ``theta_f`` ("the UEs are similar"), or (b) the cell holds fewer
than ``theta_n`` UEs ("too few UEs to keep splitting").  With two
feature dimensions this is literally a quadtree; the implementation
generalizes to ``d`` dimensions by splitting into up to ``2^d``
children (the paper's 4-feature space yields a 16-way split).

The input is one feature row per UE and the output one cluster code per
row: the fitter keeps both in its device's sorted-UE order (a
device's rows of ``FitArrays.ues``), so no UE-keyed dict or
per-cluster object is built.  The paper's thresholds — ``theta_f = 5`` for every feature and
``theta_n = 1000`` — are the defaults.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

DEFAULT_THETA_F = 5.0
DEFAULT_THETA_N = 1000


def adaptive_cluster(
    features: np.ndarray,
    *,
    theta_f: float = DEFAULT_THETA_F,
    theta_n: int = DEFAULT_THETA_N,
) -> np.ndarray:
    """Partition the rows of ``features`` by the paper's midpoint splits.

    Parameters
    ----------
    features:
        ``(n, d)`` float matrix, one row per UE (any ``d``).
    theta_f:
        A cell stops splitting once ``max - min < theta_f`` holds for
        *every* feature within it.
    theta_n:
        A cell with fewer than ``theta_n`` UEs stops splitting.

    Returns
    -------
    ``int64`` array of ``n`` cluster codes ``0 .. C-1``, numbered in
    depth-first order of the final cells (children in ascending child
    index).  The codes depend only on the rows' values, not their order:
    permuting the rows permutes the codes the same way.
    """
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("features must be an (n, d) matrix")
    codes = np.empty(len(matrix), dtype=np.int64)
    if len(matrix) == 0:
        return codes
    dim_weights = 1 << np.arange(matrix.shape[1])
    num_clusters = 0

    # Depth-first traversal with an explicit stack: no recursion limit,
    # so arbitrarily fine partitions (tiny theta_f on huge populations)
    # cannot hit RecursionError.  Children are pushed in reverse child
    # order so pops visit them ascending — cluster codes come out in the
    # same order the recursive formulation produced.
    stack: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
        (np.arange(len(matrix)), matrix.min(axis=0), matrix.max(axis=0))
    ]
    while stack:
        rows, lower, upper = stack.pop()
        cell = matrix[rows]
        spread = cell.max(axis=0) - cell.min(axis=0)
        if len(rows) >= theta_n and not np.all(spread < theta_f):
            mid = (lower + upper) / 2.0
            # Child index: one bit per dimension (above / below the midpoint).
            child_index = (cell >= mid).astype(np.int64) @ dim_weights
            children = np.unique(child_index)
            # One child means midpoint splitting cannot separate the
            # rows further (degenerate cell): it stays a cluster.
            if len(children) > 1:
                for child in reversed(children):
                    above = (int(child) & dim_weights) != 0
                    stack.append(
                        (
                            rows[child_index == child],
                            np.where(above, mid, lower),
                            np.where(above, upper, mid),
                        )
                    )
                continue
        codes[rows] = num_clusters
        num_clusters += 1
    return codes
