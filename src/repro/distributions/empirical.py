"""The paper's non-parametric sojourn model: an empirical CDF.

Because no classic family survives the goodness-of-fit tests (§4, the
appendix tables), the proposed model stores "one CDF model for the
sojourn time of each transition" (§5.2).  This class is that model:
order statistics of the observed sojourn samples, with inverse-
transform sampling that linearly interpolates between them, so the
generator can draw durations spanning the full observed range —
including the long tails the parametric fits truncate.

For very large sample sets the CDF can be compressed to a fixed number
of quantile knots (``max_points``) without materially changing the
shape; compression is exact at the stored knots.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import ArrayLike, Distribution, FitError


class EmpiricalCDF(Distribution):
    """Empirical distribution with interpolated inverse-transform sampling."""

    family = "empirical"

    def __init__(self, quantiles: ArrayLike) -> None:
        arr = np.sort(np.asarray(quantiles, dtype=np.float64).ravel())
        if arr.size == 0:
            raise ValueError("an empirical CDF needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain non-finite values")
        if arr[0] < 0:
            raise ValueError("samples contain negative durations")
        self.quantiles = arr
        # Plotting positions for interpolation: the i-th order statistic
        # (0-based) sits at probability (i + 0.5) / n, so sampling covers
        # slightly beyond the observed extremes is avoided by clamping.
        n = arr.size
        self._probs = (np.arange(n) + 0.5) / n

    @classmethod
    def fit(
        cls, samples: ArrayLike, *, max_points: Optional[int] = None
    ) -> "EmpiricalCDF":
        """Store the sample order statistics (optionally compressed)."""
        arr = cls._clean_samples(samples, min_count=1)
        if max_points is not None and arr.size > max_points:
            probs = np.linspace(0.0, 1.0, max_points)
            arr = np.quantile(arr, probs)
        return cls(arr)

    # ------------------------------------------------------------------
    def cdf(self, x: ArrayLike) -> np.ndarray:
        """Right-continuous step ECDF of the stored points."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.quantiles, x, side="right")
        return idx / self.quantiles.size

    def ppf(self, q: ArrayLike) -> np.ndarray:
        """Interpolated inverse CDF (clamped to the observed range)."""
        q = np.asarray(q, dtype=np.float64)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        return np.interp(q, self._probs, self.quantiles)

    def mean(self) -> float:
        return float(self.quantiles.mean())

    # ------------------------------------------------------------------
    @property
    def support(self) -> tuple:
        """(min, max) of the stored samples."""
        return float(self.quantiles[0]), float(self.quantiles[-1])

    def to_list(self) -> List[float]:
        """The stored quantile knots (for JSON persistence)."""
        return [float(v) for v in self.quantiles]

    @classmethod
    def from_list(cls, values: List[float]) -> "EmpiricalCDF":
        """Rebuild from :meth:`to_list` output."""
        return cls(np.asarray(values, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.quantiles.size)
