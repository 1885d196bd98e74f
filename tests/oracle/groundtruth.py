"""Scalar reference ground-truth simulator, the statistical oracle.

The ground-truth model of :mod:`repro.groundtruth.simulator` written
as a per-UE simulator on NumPy ``Generator`` methods
(``Generator.choice``, ``Generator.lognormal``, ``Generator.uniform``),
one :class:`Trace` per UE.  It draws other random streams than the
production lockstep engine, so the two are compared in distribution:
``tests/test_groundtruth.py::TestOracleEquality`` gates per-device
statistics of both on the median over three seeds.  Its own output is
pinned by ``GROUND_TRUTH_HASHES`` in ``tests/test_ue_index.py`` and
feeds ``tests/test_hour_tables.py::pin_traces``, so the fitting and
generation pins there do not move with the engine's streams.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.trace.events import (
    SECONDS_PER_HOUR,
    DeviceType,
    EventType,
    quantize_timestamp,
)
from repro.trace.trace import Trace
from repro.groundtruth.profiles import (
    DEFAULT_PROFILES,
    PAPER_DEVICE_MIX,
    DeviceProfile,
    LognormalSpec,
    MixtureSpec,
)


@dataclasses.dataclass(frozen=True)
class UEArchetype:
    """Per-UE behavioural parameters drawn once from the device profile."""

    activity: float        #: usage intensity multiplier (lognormal across UEs)
    mobility: float        #: in [0, 1]; probability a connection is "on the move"
    tau_period: float      #: this UE's periodic TAU timer, seconds
    power_period: float    #: mean seconds between power cycles
    phase_jitter: float    #: per-UE shift of the diurnal curve, hours


def sample_archetype(profile: DeviceProfile, rng: np.random.Generator) -> UEArchetype:
    """Draw one UE's archetype from a device profile."""
    activity = float(rng.lognormal(0.0, profile.activity_sigma))
    # Beta-shaped mobility with the profile's mean; clamp parameters sane.
    mean = min(max(profile.mobility_mean, 0.02), 0.98)
    concentration = 4.0
    a = mean * concentration
    b = (1.0 - mean) * concentration
    mobility = float(rng.beta(a, b))
    tau_period = _sample_lognormal(profile.periodic_tau_period, rng)
    power_period = _sample_lognormal(profile.power_cycle_period, rng)
    phase_jitter = float(rng.normal(0.0, 0.7))
    return UEArchetype(
        activity=activity,
        mobility=mobility,
        tau_period=tau_period,
        power_period=power_period,
        phase_jitter=phase_jitter,
    )


def _sample_lognormal(spec: LognormalSpec, rng: np.random.Generator) -> float:
    return float(rng.lognormal(spec.mu, spec.sigma))


def _sample_mixture(spec: MixtureSpec, rng: np.random.Generator) -> float:
    idx = rng.choice(len(spec.weights), p=spec.weights)
    return _sample_lognormal(spec.components[idx], rng)


class _UESimulator:
    """Simulates one UE over ``[0, duration)`` seconds."""

    def __init__(
        self,
        profile: DeviceProfile,
        archetype: UEArchetype,
        duration: float,
        start_hour: float,
        rng: np.random.Generator,
    ) -> None:
        self.profile = profile
        self.arch = archetype
        self.duration = duration
        self.start_hour = start_hour
        self.rng = rng
        self.times: List[float] = []
        self.events: List[int] = []

    # -- helpers -------------------------------------------------------
    def _diurnal(self, t: float) -> float:
        hour = (self.start_hour + self.arch.phase_jitter + t / SECONDS_PER_HOUR) % 24
        curve = self.profile.diurnal
        lo = int(hour) % 24
        hi = (lo + 1) % 24
        frac = hour - int(hour)
        return curve[lo] * (1 - frac) + curve[hi] * frac

    def _emit(self, t: float, event: EventType) -> None:
        self.times.append(quantize_timestamp(t))
        self.events.append(int(event))

    # -- phases --------------------------------------------------------
    def run(self) -> Tuple[List[float], List[int]]:
        rng = self.rng
        profile = self.profile
        t = 0.0
        # Stagger the periodic-TAU and power-cycle timers for stationarity.
        next_periodic_tau = t + rng.uniform(0.0, self.arch.tau_period)
        next_power_off = t + self.arch.power_period * rng.uniform(0.2, 1.0)

        if rng.random() < profile.start_off_probability:
            state = "OFF"
        else:
            state = "IDLE"
            # Burn a random fraction of an idle gap so UEs desynchronize.
            t += rng.uniform(0.0, _sample_lognormal(profile.idle_long_gap, rng))

        while t < self.duration:
            if state == "OFF":
                t_on = t + _sample_lognormal(profile.off_duration, rng)
                if t_on >= self.duration:
                    break
                self._emit(t_on, EventType.ATCH)
                next_power_off = t_on + self.arch.power_period * rng.uniform(0.5, 1.5)
                t = t_on
                state = "CONNECTED"
            elif state == "CONNECTED":
                t, state, next_periodic_tau = self._connected_phase(
                    t, next_power_off, next_periodic_tau
                )
            else:  # IDLE
                t, state, next_periodic_tau = self._idle_phase(
                    t, next_power_off, next_periodic_tau
                )
            if state == "OFF" and t < self.duration:
                continue  # DTCH was emitted by the phase handler
        return self.times, self.events

    def _connected_phase(
        self, t: float, next_power_off: float, next_periodic_tau: float
    ) -> Tuple[float, str, float]:
        """One CONNECTED dwell: HO/TAU activity, then release or power-off."""
        rng = self.rng
        profile = self.profile
        # Fast-forward the periodic timer past any time skipped while the
        # UE was powered off — stale firings must not be emitted.
        while next_periodic_tau < t:
            next_periodic_tau += self.arch.tau_period
        dwell = _sample_mixture(profile.connected_sojourn, rng)
        end = t + dwell
        cutoff = min(end, next_power_off, self.duration)

        pending: List[Tuple[float, EventType]] = []

        def _chain_taus(first_tau: float) -> None:
            """A TAU plus possible rapid retry/follow-up TAUs."""
            tau_t = first_tau
            while tau_t < cutoff:
                pending.append((tau_t, EventType.TAU))
                if rng.random() >= profile.tau_burst_probability:
                    break
                tau_t = tau_t + _sample_lognormal(profile.tau_burst_delay, rng)

        if rng.random() < self.arch.mobility:
            s = t + _sample_lognormal(profile.ho_interarrival, rng)
            while s < cutoff:
                pending.append((s, EventType.HO))
                if rng.random() < profile.tau_after_ho_probability:
                    _chain_taus(s + _sample_lognormal(profile.tau_after_ho_delay, rng))
                s += _sample_lognormal(profile.ho_interarrival, rng)
        # Periodic TAU can fire while connected too.
        while next_periodic_tau < cutoff:
            _chain_taus(next_periodic_tau)
            next_periodic_tau += self.arch.tau_period

        for ev_t, ev in sorted(pending):
            self._emit(ev_t, ev)

        if next_power_off < end and next_power_off < self.duration:
            self._emit(next_power_off, EventType.DTCH)
            return next_power_off, "OFF", next_periodic_tau
        if end >= self.duration:
            return self.duration, "CONNECTED", next_periodic_tau
        self._emit(end, EventType.S1_CONN_REL)
        return end, "IDLE", next_periodic_tau

    def _idle_phase(
        self, t: float, next_power_off: float, next_periodic_tau: float
    ) -> Tuple[float, str, float]:
        """One IDLE gap: TAU/S1-release pairs, then service request."""
        rng = self.rng
        profile = self.profile
        while next_periodic_tau < t:
            next_periodic_tau += self.arch.tau_period
        if rng.random() < profile.burst_probability:
            gap = _sample_lognormal(profile.idle_burst_gap, rng)
        else:
            modulation = max(self.arch.activity * self._diurnal(t), 1e-3)
            gap = _sample_lognormal(profile.idle_long_gap, rng) / modulation
        end = t + gap
        cutoff = min(end, next_power_off, self.duration)

        tau_times: List[float] = []
        while next_periodic_tau < cutoff:
            tau_times.append(next_periodic_tau)
            next_periodic_tau += self.arch.tau_period
        # Mobility-triggered idle TAUs (tracking-area reselection).
        # Tracking-area crossings cluster while the user is actually on
        # the move, so they form a bursty lognormal renewal process, not
        # a Poisson one (consistent with §4's findings).
        rate = (
            profile.idle_mobility_tau_rate_scale
            * self.arch.mobility
            * self._diurnal(t)
            / SECONDS_PER_HOUR
        )
        if rate > 0 and cutoff > t:
            sigma = 1.2
            median = (1.0 / rate) / math.exp(sigma * sigma / 2.0)
            s = t + rng.lognormal(math.log(median), sigma) * rng.uniform(0.0, 1.0)
            while s < cutoff:
                tau_times.append(s)
                s += rng.lognormal(math.log(median), sigma)
        tau_times.sort()

        # Each idle TAU is followed by the S1 release of its signaling
        # connection; both must land before the next TAU / gap end to
        # keep the event stream valid under the two-level machine.
        prev_release = t
        for i, tau_t in enumerate(tau_times):
            limit = tau_times[i + 1] if i + 1 < len(tau_times) else cutoff
            if tau_t <= prev_release:
                continue
            while True:
                release = tau_t + _sample_lognormal(
                    profile.idle_tau_release_delay, rng
                )
                if release >= limit:
                    break
                self._emit(tau_t, EventType.TAU)
                self._emit(release, EventType.S1_CONN_REL)
                prev_release = release
                # Rapid retry/follow-up TAU (same signaling burst).
                if rng.random() >= profile.tau_burst_probability:
                    break
                tau_t = release + _sample_lognormal(profile.tau_burst_delay, rng)
                if tau_t >= limit:
                    break

        if next_power_off < end and next_power_off < self.duration:
            if next_power_off > prev_release:
                self._emit(next_power_off, EventType.DTCH)
                return next_power_off, "OFF", next_periodic_tau
            # Power-off fell inside a TAU exchange; push it just after.
            push = prev_release + 0.5
            if push < self.duration:
                self._emit(push, EventType.DTCH)
                return push, "OFF", next_periodic_tau
            return self.duration, "IDLE", next_periodic_tau
        if end >= self.duration:
            return self.duration, "IDLE", next_periodic_tau
        self._emit(end, EventType.SRV_REQ)
        return end, "CONNECTED", next_periodic_tau


def simulate_ue(
    ue_id: int,
    profile: DeviceProfile,
    duration: float,
    *,
    start_hour: float = 0.0,
    rng: np.random.Generator,
    archetype: Optional[UEArchetype] = None,
) -> Trace:
    """Simulate one UE and return its trace."""
    if archetype is None:
        archetype = sample_archetype(profile, rng)
    sim = _UESimulator(profile, archetype, duration, start_hour, rng)
    times, events = sim.run()
    n = len(times)
    return Trace(
        np.full(n, ue_id, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
        np.asarray(events, dtype=np.int8),
        np.full(n, int(profile.device_type), dtype=np.int8),
    )


DeviceCounts = Union[int, Mapping[DeviceType, int]]


def resolve_device_counts(num_ues: DeviceCounts) -> Dict[DeviceType, int]:
    """Expand a total UE count into per-device counts via the paper's mix."""
    if isinstance(num_ues, Mapping):
        counts = {DeviceType(k): int(v) for k, v in num_ues.items()}
    else:
        total = int(num_ues)
        counts = {
            dt: int(round(total * frac)) for dt, frac in PAPER_DEVICE_MIX.items()
        }
        # Fix rounding drift on the dominant type.
        counts[DeviceType.PHONE] += total - sum(counts.values())
    if min(counts.values(), default=0) < 0:
        raise ValueError(f"num_ues must not be negative, got {num_ues!r}")
    return counts


def simulate_ground_truth(
    num_ues: DeviceCounts,
    duration: float,
    *,
    start_hour: float = 0.0,
    seed: int = 0,
    profiles: Optional[Mapping[DeviceType, DeviceProfile]] = None,
) -> Trace:
    """Simulate a full "real" trace for a UE population.

    Parameters
    ----------
    num_ues:
        Either a total (split by the paper's device mix) or explicit
        per-device counts.
    duration:
        Trace length in seconds (the paper's collection: 7 days).
    start_hour:
        Hour-of-day at ``t = 0`` (affects diurnal behaviour).
    seed:
        Every UE gets an independent, reproducible substream.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    if profiles is None:
        profiles = DEFAULT_PROFILES
    counts = resolve_device_counts(num_ues)
    seed_seq = np.random.SeedSequence(seed)
    total = sum(counts.values())
    streams = seed_seq.spawn(total)

    traces: List[Trace] = []
    ue_id = 0
    for device_type in sorted(counts, key=int):
        profile = profiles[device_type]
        for _ in range(counts[device_type]):
            rng = np.random.default_rng(streams[ue_id])
            traces.append(
                simulate_ue(
                    ue_id, profile, duration, start_hour=start_hour, rng=rng
                )
            )
            ue_id += 1
    return Trace.concatenate(traces)
