"""The object form of the §5.3 adaptive clustering, kept as a test oracle.

Before clustering became one code array
(:func:`repro.clustering.adaptive_cluster`), it took a ``ue_id ->
feature vector`` dict and returned a :class:`ClusteringResult`: one
:class:`Cluster` per final cell, with its member UE ids and inclusive
cell corners, plus a ``ue_id -> cluster_id`` ``assignment`` dict.  The
reference fitter (``oracle.fit``) and §4 study (``oracle.gof``) still
cluster through it, and the cell-bound and ``theta_n`` stopping-rule
property tests read its corners.  Its ``assignment``, taken in sorted-UE
order, equals the production codes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.clustering import DEFAULT_THETA_F, DEFAULT_THETA_N


@dataclasses.dataclass(frozen=True)
class Cluster:
    """One final (unsplit) cell of the adaptive partition."""

    cluster_id: int
    ue_ids: Tuple[int, ...]
    lower: np.ndarray  #: inclusive lower corner of the cell
    upper: np.ndarray  #: inclusive upper corner of the cell

    @property
    def size(self) -> int:
        return len(self.ue_ids)


@dataclasses.dataclass(frozen=True)
class ClusteringResult:
    """The full partition plus the UE -> cluster index."""

    clusters: Tuple[Cluster, ...]
    assignment: Dict[int, int]  #: ue_id -> cluster_id

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, ue_id: int) -> Cluster:
        return self.clusters[self.assignment[ue_id]]

    def weights(self) -> np.ndarray:
        """Fraction of UEs in each cluster (sums to 1)."""
        total = sum(c.size for c in self.clusters)
        return np.asarray([c.size / total for c in self.clusters])


def adaptive_cluster(
    features: Mapping[int, np.ndarray],
    *,
    theta_f: float = DEFAULT_THETA_F,
    theta_n: int = DEFAULT_THETA_N,
) -> ClusteringResult:
    """Partition UEs by the paper's recursive midpoint-split scheme.

    Parameters
    ----------
    features:
        ``ue_id -> feature vector`` (equal lengths; any dimensionality).
    theta_f:
        A cell stops splitting once ``max - min < theta_f`` holds for
        *every* feature within it.
    theta_n:
        A cell with fewer than ``theta_n`` UEs stops splitting.
    """
    if not features:
        return ClusteringResult(clusters=(), assignment={})
    ue_ids = np.asarray(sorted(features), dtype=np.int64)
    matrix = np.vstack([features[int(ue)] for ue in ue_ids])
    if matrix.ndim != 2:
        raise ValueError("feature vectors must share one dimensionality")
    dims = matrix.shape[1]
    dim_weights = 1 << np.arange(dims)

    clusters: List[Cluster] = []
    cluster_of_row = np.empty(len(ue_ids), dtype=np.int64)

    def _finalize(rows: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        cluster_id = len(clusters)
        clusters.append(
            Cluster(
                cluster_id=cluster_id,
                ue_ids=tuple(ue_ids[rows].tolist()),
                lower=lower.copy(),
                upper=upper.copy(),
            )
        )
        cluster_of_row[rows] = cluster_id

    # Depth-first traversal with an explicit stack: no recursion limit,
    # so arbitrarily fine partitions (tiny theta_f on huge populations)
    # cannot hit RecursionError.  Children are pushed in reverse child
    # order so pops visit them ascending — cluster ids come out in the
    # same order the recursive formulation produced.
    stack: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
        (np.arange(len(ue_ids)), matrix.min(axis=0), matrix.max(axis=0))
    ]
    while stack:
        rows, lower, upper = stack.pop()
        cell = matrix[rows]
        spread = cell.max(axis=0) - cell.min(axis=0)
        if len(rows) < theta_n or bool(np.all(spread < theta_f)):
            _finalize(rows, lower, upper)
            continue
        mid = (lower + upper) / 2.0
        # Child index: one bit per dimension (above / below the midpoint).
        bits = (cell >= mid).astype(np.int64)
        child_index = bits @ dim_weights
        children = np.unique(child_index)
        if len(children) == 1:
            # Every UE falls in one child: midpoint splitting cannot
            # separate them further (degenerate cell); stop here.
            _finalize(rows, lower, upper)
            continue
        for child in reversed(children):
            child_rows = rows[child_index == child]
            child_bits = (int(child) >> np.arange(dims)) & 1
            child_lower = np.where(child_bits == 1, mid, lower)
            child_upper = np.where(child_bits == 1, upper, mid)
            stack.append((child_rows, child_lower, child_upper))

    assignment: Dict[int, int] = dict(
        zip(ue_ids.tolist(), cluster_of_row.tolist())
    )
    return ClusteringResult(clusters=tuple(clusters), assignment=assignment)


def single_cluster(ue_ids: Sequence[int], num_features: int) -> ClusteringResult:
    """A degenerate partition placing every UE in one cluster.

    Used by the ``Base`` baseline, which skips clustering (Table 3).
    """
    members = tuple(int(ue) for ue in sorted(ue_ids))
    cluster = Cluster(
        cluster_id=0,
        ue_ids=members,
        lower=np.zeros(num_features),
        upper=np.zeros(num_features),
    )
    return ClusteringResult(
        clusters=(cluster,), assignment={ue: 0 for ue in members}
    )
