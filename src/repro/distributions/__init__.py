"""Probability models: classic candidate families and the empirical CDF."""

from typing import Dict, Type

from .base import MIN_DURATION, ArrayLike, Distribution, FitError
from .empirical import EmpiricalCDF
from .exponential import Exponential
from .pareto import Pareto
from .tcplib import Tcplib
from .weibull import Weibull

#: The classic families the paper tests (§4, Appendix A), by family name.
CLASSIC_FAMILIES: Dict[str, Type[Distribution]] = {
    Exponential.family: Exponential,
    Pareto.family: Pareto,
    Weibull.family: Weibull,
    Tcplib.family: Tcplib,
}


def fit_family(family: str, samples: ArrayLike) -> Distribution:
    """Fit one family by name (``"poisson"``/``"pareto"``/... or ``"empirical"``)."""
    if family == EmpiricalCDF.family:
        return EmpiricalCDF.fit(samples)
    try:
        cls = CLASSIC_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; known: "
            f"{sorted(CLASSIC_FAMILIES) + [EmpiricalCDF.family]}"
        ) from None
    return cls.fit(samples)


__all__ = [
    "ArrayLike",
    "CLASSIC_FAMILIES",
    "Distribution",
    "EmpiricalCDF",
    "Exponential",
    "FitError",
    "MIN_DURATION",
    "Pareto",
    "Tcplib",
    "Weibull",
    "fit_family",
]
