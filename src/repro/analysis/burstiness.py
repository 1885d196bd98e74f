"""The burstiness and tail analyses of §4.2 (Figures 3 and 4).

Both analyses pick one UE cluster, pool a per-cluster quantity over a
window — sojourn entries into CONNECTED/IDLE, or HO/TAU arrivals — and
compare the pooled point process / distribution against a Poisson model
fitted by MLE on the same data.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distributions.exponential import Exponential
from ..statemachines import lte
from ..statemachines.compiled_replay import replay_trace
from ..stats.variance_time import (
    DEFAULT_SCALES,
    VarianceTimeCurve,
    burstiness_gap,
    poisson_reference_curve,
    variance_time_curve,
)
from ..trace.events import DeviceType, EventType
from ..trace.trace import Trace

#: The four quantities Figures 3 and 4 analyse for phones.
FIG34_QUANTITIES = ("CONNECTED", "IDLE", "HO", "TAU")


def quantity_samples(
    trace: Trace,
    device_type: DeviceType,
    quantity: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(durations, occurrence_times)`` of one Fig. 3/4 quantity.

    For states the durations are sojourn times and the occurrence times
    are state-entry instants; for events the durations are per-UE
    inter-arrival times and the occurrences the event arrivals.
    """
    sub = trace.filter_device(device_type)
    if quantity in (lte.CONNECTED, lte.IDLE):
        return replay_trace(sub).state_visits(quantity)
    index = sub.ue_index()
    rows = index.order[sub.event_types[index.order] == int(EventType[quantity])]
    same_ue = sub.ue_ids[rows[1:]] == sub.ue_ids[rows[:-1]]
    return np.diff(sub.times[rows])[same_ue], sub.times[rows]


@dataclasses.dataclass
class BurstinessReport:
    """Fig. 3 for one quantity: observed vs fitted-Poisson curves."""

    quantity: str
    observed: VarianceTimeCurve
    reference: VarianceTimeCurve
    log_gap: np.ndarray  #: per-scale log10 gap (positive = burstier)


def burstiness_analysis(
    trace: Trace,
    device_type: DeviceType,
    quantity: str,
    *,
    duration: Optional[float] = None,
    scales: Sequence[float] = DEFAULT_SCALES,
    seed: int = 0,
) -> BurstinessReport:
    """Variance–time comparison of one quantity vs its Poisson fit."""
    _, occurrences = quantity_samples(trace, device_type, quantity)
    if occurrences.size < 10:
        raise ValueError(
            f"too few {quantity} occurrences ({occurrences.size}) for a curve"
        )
    if duration is None:
        duration = float(trace.times.max()) + 1.0
    observed = variance_time_curve(occurrences, duration=duration, scales=scales)
    rate = occurrences.size / duration
    rng = np.random.default_rng(seed)
    reference = poisson_reference_curve(rate, duration, rng, scales=scales)
    return BurstinessReport(
        quantity=quantity,
        observed=observed,
        reference=reference,
        log_gap=burstiness_gap(observed, reference),
    )


@dataclasses.dataclass
class TailReport:
    """Fig. 4 for one quantity: observed range vs fitted-Poisson range.

    The fitted range is taken over a synthetic sample of the same size,
    mirroring how the paper contrasts observed extremes against what the
    exponential fit can produce.
    """

    quantity: str
    observed_min: float
    observed_max: float
    fitted_min: float
    fitted_max: float
    fitted_rate: float

    @property
    def upper_tail_ratio(self) -> float:
        """How far the real maximum exceeds the fitted maximum."""
        return self.observed_max / self.fitted_max if self.fitted_max > 0 else np.inf

    @property
    def fit_covers_range(self) -> bool:
        """Whether the fitted sample spans the observed range.

        The paper's Fig. 4 finding is that it does not: either the
        observed maximum exceeds the fitted one (heavy upper tail) or
        the observed minimum undercuts it (sub-second burst gaps).
        """
        return (
            self.fitted_min <= self.observed_min
            and self.fitted_max >= self.observed_max
        )


def windowed_durations(
    trace: Trace,
    device_type: DeviceType,
    quantity: str,
    hour: int,
    *,
    trace_start_hour: int = 0,
) -> np.ndarray:
    """Durations of one quantity within each day's ``hour``-of-day window.

    This matches how Fig. 4 pools "the same 1-hour interval": every
    sample is bounded by the hour length, and the same hour of multiple
    days is pooled.
    """
    from ..trace.events import SECONDS_PER_HOUR

    duration = float(trace.times.max()) if len(trace) else 0.0
    total_slots = int(np.ceil((duration + 1e-9) / SECONDS_PER_HOUR))
    pooled: List[float] = []
    for slot in range(max(total_slots, 1)):
        if (trace_start_hour + slot) % 24 != hour % 24:
            continue
        window = trace.window(
            slot * SECONDS_PER_HOUR, (slot + 1) * SECONDS_PER_HOUR
        )
        if len(window) == 0:
            continue
        durations, _ = quantity_samples(window, device_type, quantity)
        pooled.extend(durations.tolist())
    return np.asarray(pooled, dtype=np.float64)


def tail_analysis(
    trace: Trace,
    device_type: DeviceType,
    quantity: str,
    *,
    seed: int = 0,
    hour: Optional[int] = None,
    trace_start_hour: int = 0,
) -> TailReport:
    """Compare the observed duration range against an exponential fit.

    With ``hour`` set, durations are pooled from that hour-of-day's
    windows only (the paper's Fig. 4 methodology); otherwise the whole
    trace is used.
    """
    if hour is not None:
        durations = windowed_durations(
            trace, device_type, quantity, hour, trace_start_hour=trace_start_hour
        )
    else:
        durations, _ = quantity_samples(trace, device_type, quantity)
    if durations.size < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"too few {quantity} durations ({durations.size}) for tail analysis"
        )
    fitted = Exponential.fit(durations)
    rng = np.random.default_rng(seed)
    synthetic = fitted.sample(rng, durations.size)
    return TailReport(
        quantity=quantity,
        observed_min=float(durations.min()),
        observed_max=float(durations.max()),
        fitted_min=float(synthetic.min()),
        fitted_max=float(synthetic.max()),
        fitted_rate=fitted.rate,
    )


MIN_TAIL_SAMPLES = 20
