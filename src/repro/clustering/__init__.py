"""Adaptive quadtree clustering of UEs by traffic similarity (§5.3)."""

from .features import FEATURE_NAMES, NUM_FEATURES
from .quadtree import DEFAULT_THETA_F, DEFAULT_THETA_N, adaptive_cluster

__all__ = [
    "DEFAULT_THETA_F",
    "DEFAULT_THETA_N",
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "adaptive_cluster",
]
