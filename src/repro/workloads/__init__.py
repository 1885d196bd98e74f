"""Pre-canned workload scenarios for driving MCN evaluations."""

from .scenarios import inject_reattach_storm, storm_peak_rate

__all__ = [
    "inject_reattach_storm",
    "storm_peak_rate",
]
