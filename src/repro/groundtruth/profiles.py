"""Behavioural profiles of the three device types.

The paper's input data is a proprietary carrier trace.  This repo
substitutes a *mechanism-driven* simulator: UEs run app sessions, move,
and power-cycle, and control events fall out of that behaviour via the
3GPP state machines.  The profiles below encode the per-device-type
behaviour; their constants are calibrated so the resulting traces match
the qualitative structure the paper reports:

* event breakdowns in the vicinity of Table 1 (connected cars have the
  most HO/TAU and the fewest service requests; tablets the fewest HO);
* strong diurnal swings (Fig. 2), with a commute double-peak for cars
  and an evening peak for phones/tablets;
* heavy-tailed, bursty sojourn and inter-arrival times that defeat
  Poisson/Pareto/Weibull/Tcplib fits (§4, Appendix A);
* large cross-UE diversity (lognormal activity skew).

All durations are seconds.  Every distribution here is a lognormal or a
mixture of lognormals — deliberately *outside* the candidate families
the paper tests, so model fitting is a real exercise.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, Tuple

import numpy as np

from ..trace.events import DeviceType


@dataclasses.dataclass(frozen=True)
class LognormalSpec:
    """Parameters of one lognormal component (median given in seconds)."""

    median: float
    sigma: float

    @functools.cached_property
    def mu(self) -> float:
        return math.log(self.median)


@dataclasses.dataclass(frozen=True)
class MixtureSpec:
    """A finite mixture of lognormal components."""

    weights: Tuple[float, ...]
    components: Tuple[LognormalSpec, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.components):
            raise ValueError("weights and components must align")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")

    @functools.cached_property
    def cdf(self) -> Tuple[float, ...]:
        """Cumulative weights, built as ``Generator.choice`` builds them
        (``cumsum``, then divide by the last entry), so that
        ``bisect_right(cdf, rng.random())`` picks the component
        ``rng.choice(len(weights), p=weights)`` would."""
        cdf = np.asarray(self.weights, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        return tuple(cdf.tolist())


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """Full behavioural specification of one device type."""

    device_type: DeviceType

    #: Hour-of-day activity multipliers (24 values; 1.0 = reference).
    diurnal: Tuple[float, ...]

    #: Cross-UE activity skew: per-UE multiplier ~ Lognormal(0, sigma).
    activity_sigma: float

    #: CONNECTED dwell time (data burst vs. browsing vs. long session).
    connected_sojourn: MixtureSpec

    #: IDLE gap within a usage burst (short re-connects).
    idle_burst_gap: LognormalSpec
    #: IDLE gap between usage bursts (scaled by 1/(activity * diurnal)).
    idle_long_gap: LognormalSpec
    #: Probability the next idle gap stays within the current burst.
    burst_probability: float

    #: Mean of the per-UE mobility level (Beta(2, 2/m - 2)-like, in [0,1]).
    mobility_mean: float
    #: HO inter-arrival while moving and CONNECTED.
    ho_interarrival: LognormalSpec
    #: Probability a HO crosses a tracking-area border (TAU follows).
    tau_after_ho_probability: float
    #: Delay between a border-crossing HO and its TAU.
    tau_after_ho_delay: LognormalSpec

    #: Probability a TAU is immediately followed by another TAU (retry /
    #: re-registration chains; gives TAU inter-arrivals their sub-10s
    #: lower tail, cf. Fig. 4's observed 0.62 s minimum).
    tau_burst_probability: float
    #: Delay between chained TAUs.
    tau_burst_delay: LognormalSpec

    #: Periodic TAU timer (3GPP T3412-like), per UE.
    periodic_tau_period: LognormalSpec
    #: Delay between an idle TAU and the S1 release that follows it.
    idle_tau_release_delay: LognormalSpec
    #: Probability an idle TAU is mobility-triggered rather than periodic
    #: (moving UEs re-select tracking areas while idle).
    idle_mobility_tau_rate_scale: float

    #: Mean time between power cycles (DTCH ... ATCH), seconds.
    power_cycle_period: LognormalSpec
    #: Time spent powered off.
    off_duration: LognormalSpec
    #: Probability a fresh UE starts the trace powered off.
    start_off_probability: float


def _evening_peak_curve() -> Tuple[float, ...]:
    """Phones/tablets: night trough, daytime ramp, evening peak."""
    base = [
        0.10, 0.06, 0.05, 0.05, 0.06, 0.10,  # 0-5
        0.22, 0.45, 0.62, 0.70, 0.72, 0.75,  # 6-11
        0.80, 0.78, 0.74, 0.72, 0.76, 0.85,  # 12-17
        0.95, 1.00, 1.00, 0.90, 0.55, 0.25,  # 18-23
    ]
    return tuple(base)


def _commute_curve() -> Tuple[float, ...]:
    """Connected cars: commute double peak, near-silent night."""
    base = [
        0.020, 0.008, 0.005, 0.005, 0.010, 0.060,  # 0-5
        0.350, 0.900, 1.000, 0.600, 0.450, 0.480,  # 6-11
        0.520, 0.500, 0.480, 0.550, 0.800, 1.000,  # 12-17
        0.900, 0.600, 0.350, 0.180, 0.090, 0.040,  # 18-23
    ]
    return tuple(base)


def _tablet_curve() -> Tuple[float, ...]:
    """Tablets: flat-ish daytime, evening couch peak, shallow night."""
    base = [
        0.15, 0.09, 0.07, 0.07, 0.08, 0.10,  # 0-5
        0.18, 0.30, 0.40, 0.48, 0.55, 0.60,  # 6-11
        0.62, 0.60, 0.58, 0.60, 0.66, 0.75,  # 12-17
        0.90, 1.00, 1.00, 0.85, 0.50, 0.25,  # 18-23
    ]
    return tuple(base)


PHONE_PROFILE = DeviceProfile(
    device_type=DeviceType.PHONE,
    diurnal=_evening_peak_curve(),
    activity_sigma=1.10,
    connected_sojourn=MixtureSpec(
        weights=(0.55, 0.35, 0.10),
        components=(
            LognormalSpec(median=6.0, sigma=0.9),     # push / keep-alive burst
            LognormalSpec(median=45.0, sigma=1.0),    # interactive use
            LognormalSpec(median=420.0, sigma=1.1),   # streaming / calls
        ),
    ),
    idle_burst_gap=LognormalSpec(median=4.0, sigma=0.9),
    idle_long_gap=LognormalSpec(median=110.0, sigma=1.25),
    burst_probability=0.38,
    mobility_mean=0.15,
    ho_interarrival=LognormalSpec(median=120.0, sigma=1.0),
    tau_after_ho_probability=0.15,
    tau_after_ho_delay=LognormalSpec(median=2.0, sigma=0.6),
    tau_burst_probability=0.12,
    tau_burst_delay=LognormalSpec(median=2.0, sigma=0.8),
    periodic_tau_period=LognormalSpec(median=2.6 * 3600.0, sigma=0.5),
    idle_tau_release_delay=LognormalSpec(median=1.2, sigma=0.4),
    idle_mobility_tau_rate_scale=1.5,
    power_cycle_period=LognormalSpec(median=1.5 * 86400.0, sigma=0.8),
    off_duration=LognormalSpec(median=1800.0, sigma=1.0),
    start_off_probability=0.01,
)

CONNECTED_CAR_PROFILE = DeviceProfile(
    device_type=DeviceType.CONNECTED_CAR,
    diurnal=_commute_curve(),
    activity_sigma=1.30,
    connected_sojourn=MixtureSpec(
        weights=(0.50, 0.40, 0.10),
        components=(
            LognormalSpec(median=8.0, sigma=0.8),     # telemetry ping
            LognormalSpec(median=90.0, sigma=0.9),    # navigation refresh
            LognormalSpec(median=400.0, sigma=0.9),   # full drive session
        ),
    ),
    idle_burst_gap=LognormalSpec(median=6.0, sigma=0.8),
    idle_long_gap=LognormalSpec(median=260.0, sigma=1.35),
    burst_probability=0.30,
    mobility_mean=0.35,
    ho_interarrival=LognormalSpec(median=165.0, sigma=1.0),
    tau_after_ho_probability=0.30,
    tau_after_ho_delay=LognormalSpec(median=2.5, sigma=0.6),
    tau_burst_probability=0.15,
    tau_burst_delay=LognormalSpec(median=2.5, sigma=0.8),
    periodic_tau_period=LognormalSpec(median=2.4 * 3600.0, sigma=0.5),
    idle_tau_release_delay=LognormalSpec(median=1.5, sigma=0.4),
    idle_mobility_tau_rate_scale=1.0,
    power_cycle_period=LognormalSpec(median=11.0 * 3600.0, sigma=0.7),  # ignition
    off_duration=LognormalSpec(median=2.5 * 3600.0, sigma=1.0),
    start_off_probability=0.15,
)

TABLET_PROFILE = DeviceProfile(
    device_type=DeviceType.TABLET,
    diurnal=_tablet_curve(),
    activity_sigma=1.20,
    connected_sojourn=MixtureSpec(
        weights=(0.53, 0.35, 0.12),
        components=(
            LognormalSpec(median=7.0, sigma=0.9),
            LognormalSpec(median=70.0, sigma=1.0),
            LognormalSpec(median=500.0, sigma=1.0),   # video sessions
        ),
    ),
    idle_burst_gap=LognormalSpec(median=5.0, sigma=0.9),
    idle_long_gap=LognormalSpec(median=170.0, sigma=1.30),
    burst_probability=0.34,
    mobility_mean=0.08,
    ho_interarrival=LognormalSpec(median=130.0, sigma=1.0),
    tau_after_ho_probability=0.25,
    tau_after_ho_delay=LognormalSpec(median=2.0, sigma=0.6),
    tau_burst_probability=0.12,
    tau_burst_delay=LognormalSpec(median=2.0, sigma=0.8),
    periodic_tau_period=LognormalSpec(median=2.6 * 3600.0, sigma=0.5),
    idle_tau_release_delay=LognormalSpec(median=1.2, sigma=0.4),
    idle_mobility_tau_rate_scale=0.10,
    power_cycle_period=LognormalSpec(median=7.0 * 3600.0, sigma=0.8),
    off_duration=LognormalSpec(median=4.0 * 3600.0, sigma=0.9),
    start_off_probability=0.05,
)

DEFAULT_PROFILES: Dict[DeviceType, DeviceProfile] = {
    DeviceType.PHONE: PHONE_PROFILE,
    DeviceType.CONNECTED_CAR: CONNECTED_CAR_PROFILE,
    DeviceType.TABLET: TABLET_PROFILE,
}

#: UE population mix of the paper's collection (§4: 23,388 phones,
#: 9,308 connected cars, 4,629 tablets out of 37,325).
PAPER_DEVICE_MIX: Dict[DeviceType, float] = {
    DeviceType.PHONE: 23388 / 37325,
    DeviceType.CONNECTED_CAR: 9308 / 37325,
    DeviceType.TABLET: 4629 / 37325,
}
