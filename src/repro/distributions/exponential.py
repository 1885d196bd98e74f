"""The exponential distribution (Poisson-process inter-arrival model).

A Poisson arrival process has i.i.d. exponential inter-arrival times,
``P(X > t) = exp(-lambda * t)``.  This is the reference model the paper
tests first (and the sojourn model of the Base/V1/V2 baselines).
"""

from __future__ import annotations

import numpy as np

from .base import ArrayLike, Distribution, FitError


class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (mean ``1/rate``)."""

    family = "poisson"

    def __init__(self, rate: float) -> None:
        if not (rate > 0 and np.isfinite(rate)):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.rate = float(rate)

    @classmethod
    def fit(cls, samples: ArrayLike) -> "Exponential":
        """MLE: ``rate = 1 / mean(samples)``."""
        arr = cls._clean_samples(samples, min_count=1)
        mean = float(arr.mean())
        if mean <= 0:
            raise FitError("cannot fit an exponential to all-zero samples")
        return cls(rate=1.0 / mean)

    def cdf(self, x: ArrayLike) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0, 0.0, 1.0 - np.exp(-self.rate * np.maximum(x, 0.0)))

    def ppf(self, q: ArrayLike) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            return -np.log1p(-q) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate
