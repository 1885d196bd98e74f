"""Descriptive statistics over traces.

These back the paper's characterization study: the event breakdown of
Table 1, the per-device-hour box plots of Figure 2, and the peak/slow
hour ratios quoted in §4.1.1.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from .events import (
    ALL_DEVICE_TYPES,
    ALL_EVENT_TYPES,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    DeviceType,
    EventType,
)
from .trace import Trace


@dataclasses.dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus mean, as drawn in the paper's box plots."""

    minimum: float
    lower_quartile: float
    median: float
    upper_quartile: float
    maximum: float
    mean: float
    count: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxStats":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            return cls(math.nan, math.nan, math.nan, math.nan, math.nan, math.nan, 0)
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        return cls(
            minimum=float(arr.min()),
            lower_quartile=float(q1),
            median=float(med),
            upper_quartile=float(q3),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
            count=int(arr.size),
        )


def event_breakdown(
    trace: Trace, device_type: Optional[DeviceType] = None
) -> Dict[EventType, float]:
    """Fraction of each event type, optionally for one device type.

    This is the quantity tabulated in Table 1 of the paper.
    """
    sub = trace if device_type is None else trace.filter_device(device_type)
    return sub.breakdown()


def breakdown_table(trace: Trace) -> Dict[DeviceType, Dict[EventType, float]]:
    """Table 1: breakdown per device type."""
    return {dt: event_breakdown(trace, dt) for dt in ALL_DEVICE_TYPES}


def events_per_device_hour(
    trace: Trace,
    device_type: DeviceType,
    event_type: EventType,
) -> Dict[int, List[int]]:
    """Per-UE event counts for every hour-of-day (0..23).

    For each hour-of-day, counts are collected per (UE, day) pair over
    all days in the trace, matching how Figure 2 pools multiple days.
    UEs with zero events in an hour contribute a zero sample.
    """
    sub = trace.filter_device(device_type)
    index = sub.ue_index()
    num_days = max(1, int(math.ceil((trace.duration + 1e-9) / SECONDS_PER_DAY)))
    hours = (sub.times[index.order] // SECONDS_PER_HOUR).astype(np.int64)
    day = hours // 24
    # One (hour-of-day, UE, day) cell per sample; days past the last
    # counted one are dropped.
    rows = (sub.event_types[index.order] == int(event_type)) & (day < num_days)
    cell = (hours % 24 * len(index.ues) + index.codes()) * num_days + day
    counts = np.bincount(
        cell[rows], minlength=24 * len(index.ues) * num_days
    ).reshape(24, -1)
    return {h: counts[h].tolist() for h in range(24)}


def diurnal_box_stats(
    trace: Trace,
    device_type: DeviceType,
    event_type: EventType,
) -> Dict[int, BoxStats]:
    """Figure 2: per-hour box statistics of per-UE event counts."""
    samples = events_per_device_hour(trace, device_type, event_type)
    return {h: BoxStats.from_samples(s) for h, s in samples.items()}


def peak_to_trough_ratio(
    trace: Trace,
    device_type: DeviceType,
    event_type: EventType,
) -> float:
    """Ratio of the busiest to the slowest hour's mean per-UE volume.

    The paper reports drops of 2.27x-86.15x (phones), 3.43x-1309.33x
    (connected cars) and 1.45x-90.06x (tablets) for the four dominant
    event types.  Hours with zero mean volume are ignored as troughs
    (the ratio would be infinite and uninformative).
    """
    stats = diurnal_box_stats(trace, device_type, event_type)
    means = [s.mean for s in stats.values() if s.count > 0 and not math.isnan(s.mean)]
    positive = [m for m in means if m > 0]
    if not positive:
        return math.nan
    return max(positive) / min(positive)


def busiest_hour(trace: Trace) -> int:
    """Hour-of-day (0..23) with the most events, pooled over all days."""
    if len(trace) == 0:
        raise ValueError("cannot find the busiest hour of an empty trace")
    hour_of_day = ((trace.times // SECONDS_PER_HOUR) % 24).astype(np.int64)
    counts = np.bincount(hour_of_day, minlength=24)
    return int(np.argmax(counts))


def hourly_event_counts(trace: Trace) -> np.ndarray:
    """Total events in each 1-hour interval of the trace (index 0 = first hour)."""
    if len(trace) == 0:
        return np.zeros(0, dtype=np.int64)
    hours = (trace.times // SECONDS_PER_HOUR).astype(np.int64)
    return np.bincount(hours)

