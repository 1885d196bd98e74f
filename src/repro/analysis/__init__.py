"""The paper's §4 measurement-study pipelines (Tables 8-10, Figs. 3-4)."""

from .burstiness import (
    FIG34_QUANTITIES,
    BurstinessReport,
    TailReport,
    burstiness_analysis,
    quantity_samples,
    tail_analysis,
    windowed_durations,
)
from .gof import EMM_ECM_STATES, MIN_SAMPLES, TESTS, GofResult, gof_study

__all__ = [
    "BurstinessReport",
    "EMM_ECM_STATES",
    "FIG34_QUANTITIES",
    "GofResult",
    "MIN_SAMPLES",
    "TESTS",
    "TailReport",
    "burstiness_analysis",
    "gof_study",
    "quantity_samples",
    "tail_analysis",
    "windowed_durations",
]
