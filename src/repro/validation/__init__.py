"""Validation metrics: macroscopic breakdowns and microscopic CDF distances.

Tables 4-6 compare one :class:`DeviceSummary` per (trace, device):
``compare(summarize(real, dt), summarize(synthesized, dt, num_ues=n))``.
:func:`summarize` is the one source of the §8 numbers: the breakdown
(:func:`breakdown_with_states` reads it) and the per-UE count and
sojourn samples (``summarize(trace, dt, num_ues=n).samples[...]``).
"""

from .aggregate import AggregateComparison, compare_aggregate, rate_curve
from .breakdown import BREAKDOWN_ROWS, breakdown_with_states
from .microscopic import MICRO_QUANTITIES
from .report import format_comparison, format_percent, format_ratio, format_table
from .summary import (
    ACTIVITY_THRESHOLD,
    Comparison,
    DeviceSummary,
    activity_split_ydistance,
    compare,
    summarize,
)

__all__ = [
    "ACTIVITY_THRESHOLD",
    "AggregateComparison",
    "compare_aggregate",
    "rate_curve",
    "BREAKDOWN_ROWS",
    "Comparison",
    "DeviceSummary",
    "MICRO_QUANTITIES",
    "activity_split_ydistance",
    "breakdown_with_states",
    "compare",
    "format_comparison",
    "format_percent",
    "format_ratio",
    "format_table",
    "summarize",
]
