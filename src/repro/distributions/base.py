"""Common interface for the probability models used by the paper.

Every distribution implements the same small protocol —
``fit`` / ``sample`` / ``cdf`` / ``ppf`` / ``mean`` — so the statistical
tests (K–S, A²) and the traffic generator can treat parametric families
(Poisson/exponential, Pareto, Weibull), the fixed-shape Tcplib table,
and the paper's non-parametric empirical CDF uniformly.

All distributions model non-negative durations (inter-arrival or
sojourn times, in seconds).
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

#: Smallest duration the fitters accept; matches the millisecond
#: timestamp granularity of the traces.  Zero durations (two events on
#: the same millisecond) are clipped up to this before fitting
#: positive-support families.
MIN_DURATION = 1e-3

ArrayLike = Union[np.ndarray, list, tuple, float]


class FitError(ValueError):
    """Raised when a sample set cannot be fitted (e.g. too few samples)."""


class Distribution(abc.ABC):
    """A one-dimensional distribution over non-negative durations."""

    #: Short family name used in reports ("poisson", "pareto", ...).
    family: str = "abstract"

    # -- fitting -------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def fit(cls, samples: ArrayLike) -> "Distribution":
        """Fit the family to ``samples`` (MLE unless documented otherwise)."""

    # -- evaluation ----------------------------------------------------
    @abc.abstractmethod
    def cdf(self, x: ArrayLike) -> np.ndarray:
        """P(X <= x), vectorized."""

    @abc.abstractmethod
    def ppf(self, q: ArrayLike) -> np.ndarray:
        """Quantile function (inverse CDF), vectorized over q in [0, 1]."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value (may be ``inf`` for heavy-tailed members)."""

    # -- sampling ------------------------------------------------------
    def sample(
        self, rng: np.random.Generator, size: Optional[int] = None
    ) -> Union[float, np.ndarray]:
        """Draw samples by inverse-transform sampling."""
        u = rng.random(size)
        out = self.ppf(u)
        if size is None:
            return float(out)
        return out

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _clean_samples(
        samples: ArrayLike, *, min_count: int = 1, positive: bool = False
    ) -> np.ndarray:
        """Validate and normalize a sample array for fitting."""
        arr = np.asarray(samples, dtype=np.float64).ravel()
        if arr.size < min_count:
            raise FitError(
                f"need at least {min_count} samples to fit, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise FitError("samples contain non-finite values")
        if arr.min() < 0:
            raise FitError("samples contain negative durations")
        if positive:
            arr = np.maximum(arr, MIN_DURATION)
        return arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{k}={v:.6g}"
            for k, v in sorted(vars(self).items())
            if isinstance(v, (int, float))
        )
        return f"{type(self).__name__}({params})"
