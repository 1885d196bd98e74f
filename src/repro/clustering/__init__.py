"""Adaptive quadtree clustering of UEs by traffic similarity (§5.3)."""

from .features import FEATURE_NAMES, NUM_FEATURES
from .quadtree import (
    DEFAULT_THETA_F,
    DEFAULT_THETA_N,
    Cluster,
    ClusteringResult,
    adaptive_cluster,
    single_cluster,
)

__all__ = [
    "Cluster",
    "ClusteringResult",
    "DEFAULT_THETA_F",
    "DEFAULT_THETA_N",
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "adaptive_cluster",
    "single_cluster",
]
