"""Behaviour-driven ground-truth trace simulator.

Stands in for the paper's proprietary carrier trace (37,325 UEs, one
week, 196.8M events).  Each UE is an *agent*: it runs app sessions,
moves through cells and tracking areas, and power-cycles.  Control
events are a by-product of that behaviour and always conform to the
two-level state machine of Fig. 5 — the simulator walks the machine
explicitly, so ``replay`` recovers the trajectory exactly.

The statistics of the output are intentionally outside every candidate
family the paper tests: sojourns are lognormal mixtures, idle gaps are
burst-modulated, activity is lognormally skewed across UEs, and rates
swing with the hour of day.

**Exact draws.**  UE ``i`` draws from its own stream,
``SeedSequence(seed).spawn(n)[i]``, so a UE's events depend only on the
seed, its index and its own draw order — not on which process
simulates it or on what the other UEs drew.  The scalar draws below
reproduce NumPy's ``Generator`` methods bit for bit at a fraction of the
call cost (NumPy's C code computes exactly these expressions):

- ``rng.choice(k, p=w)`` is ``bisect_right(cdf, rng.random())`` on the
  cached :attr:`MixtureSpec.cdf`;
- ``rng.lognormal(mu, s)`` is ``exp(mu + s * rng.standard_normal())``;
- ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()``.

``tests/oracle/groundtruth.py`` keeps the simulator that calls the
``Generator`` methods, and the suite checks the two agree row for row.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..jobs import Job, check_processes, run_jobs
from ..telemetry import get_telemetry
from ..trace.events import (
    SECONDS_PER_HOUR,
    DeviceCounts,
    DeviceType,
    EventType,
    check_counts,
    quantize_times,
)
from ..trace.trace import Trace
from .profiles import (
    DEFAULT_PROFILES,
    PAPER_DEVICE_MIX,
    DeviceProfile,
    LognormalSpec,
    MixtureSpec,
)

_ATCH = int(EventType.ATCH)
_DTCH = int(EventType.DTCH)
_SRV_REQ = int(EventType.SRV_REQ)
_S1_CONN_REL = int(EventType.S1_CONN_REL)
_HO = int(EventType.HO)
_TAU = int(EventType.TAU)


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
    return math.exp(spec.mu + spec.sigma * rng.standard_normal())


def _sample_uniform(lo: float, hi: float, rng: np.random.Generator) -> float:
    return lo + (hi - lo) * rng.random()


def _sample_mixture(spec: MixtureSpec, rng: np.random.Generator) -> float:
    idx = bisect_right(spec.cdf, rng.random())
    return _sample_lognormal(spec.components[idx], rng)


class _UESimulator:
    """Simulates one UE over ``[0, duration)`` seconds, appending its raw
    (unquantized) event times and event codes to ``times``/``events``."""

    def __init__(
        self,
        profile: DeviceProfile,
        archetype: UEArchetype,
        duration: float,
        start_hour: float,
        rng: np.random.Generator,
        times: array,
        events: array,
    ) -> None:
        self.profile = profile
        self.arch = archetype
        self.duration = duration
        self.start_hour = start_hour
        self.rng = rng
        self.times = times
        self.events = events

    # -- helpers -------------------------------------------------------
    def _diurnal(self, t: float) -> float:
        hour = (self.start_hour + self.arch.phase_jitter + t / SECONDS_PER_HOUR) % 24
        curve = self.profile.diurnal
        lo = int(hour) % 24
        hi = (lo + 1) % 24
        frac = hour - int(hour)
        return curve[lo] * (1 - frac) + curve[hi] * frac

    def _emit(self, t: float, event: int) -> None:
        self.times.append(t)
        self.events.append(event)

    # -- phases --------------------------------------------------------
    def run(self) -> None:
        rng = self.rng
        profile = self.profile
        t = 0.0
        # Stagger the periodic-TAU and power-cycle timers for stationarity.
        next_periodic_tau = t + _sample_uniform(0.0, self.arch.tau_period, rng)
        next_power_off = t + self.arch.power_period * _sample_uniform(0.2, 1.0, rng)

        if rng.random() < profile.start_off_probability:
            state = "OFF"
        else:
            state = "IDLE"
            # Burn a random fraction of an idle gap so UEs desynchronize.
            t += _sample_uniform(0.0, _sample_lognormal(profile.idle_long_gap, rng), rng)

        while t < self.duration:
            if state == "OFF":
                t_on = t + _sample_lognormal(profile.off_duration, rng)
                if t_on >= self.duration:
                    break
                self._emit(t_on, _ATCH)
                next_power_off = t_on + self.arch.power_period * _sample_uniform(
                    0.5, 1.5, rng
                )
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

        pending: List[Tuple[float, int]] = []

        def _chain_taus(first_tau: float) -> None:
            """A TAU plus possible rapid retry/follow-up TAUs."""
            tau_t = first_tau
            while tau_t < cutoff:
                pending.append((tau_t, _TAU))
                if rng.random() >= profile.tau_burst_probability:
                    break
                tau_t = tau_t + _sample_lognormal(profile.tau_burst_delay, rng)

        if rng.random() < self.arch.mobility:
            s = t + _sample_lognormal(profile.ho_interarrival, rng)
            while s < cutoff:
                pending.append((s, _HO))
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
            self._emit(next_power_off, _DTCH)
            return next_power_off, "OFF", next_periodic_tau
        if end >= self.duration:
            return self.duration, "CONNECTED", next_periodic_tau
        self._emit(end, _S1_CONN_REL)
        return end, "IDLE", next_periodic_tau

    def _idle_phase(
        self, t: float, next_power_off: float, next_periodic_tau: float
    ) -> Tuple[float, str, float]:
        """One IDLE gap: TAU/S1-release pairs, then service request."""
        rng = self.rng
        profile = self.profile
        while next_periodic_tau < t:
            next_periodic_tau += self.arch.tau_period
        diurnal = self._diurnal(t)
        if rng.random() < profile.burst_probability:
            gap = _sample_lognormal(profile.idle_burst_gap, rng)
        else:
            modulation = max(self.arch.activity * diurnal, 1e-3)
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
            * diurnal
            / SECONDS_PER_HOUR
        )
        if rate > 0 and cutoff > t:
            sigma = 1.2
            median = (1.0 / rate) / math.exp(sigma * sigma / 2.0)
            mu = math.log(median)
            # rng.uniform(0.0, 1.0) is rng.random() exactly.
            s = t + math.exp(mu + sigma * rng.standard_normal()) * rng.random()
            while s < cutoff:
                tau_times.append(s)
                s += math.exp(mu + sigma * rng.standard_normal())
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
                self._emit(tau_t, _TAU)
                self._emit(release, _S1_CONN_REL)
                prev_release = release
                # Rapid retry/follow-up TAU (same signaling burst).
                if rng.random() >= profile.tau_burst_probability:
                    break
                tau_t = release + _sample_lognormal(profile.tau_burst_delay, rng)
                if tau_t >= limit:
                    break

        if next_power_off < end and next_power_off < self.duration:
            if next_power_off > prev_release:
                self._emit(next_power_off, _DTCH)
                return next_power_off, "OFF", next_periodic_tau
            # Power-off fell inside a TAU exchange; push it just after.
            push = prev_release + 0.5
            if push < self.duration:
                self._emit(push, _DTCH)
                return push, "OFF", next_periodic_tau
            return self.duration, "IDLE", next_periodic_tau
        if end >= self.duration:
            return self.duration, "IDLE", next_periodic_tau
        self._emit(end, _SRV_REQ)
        return end, "CONNECTED", next_periodic_tau


def _columns(
    times: array, events: array, ue_ids: np.ndarray, devices: array, per_ue: array
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four (unsorted) trace columns of UEs simulated in ``ue_ids``
    order into ``times``/``events``; UE ``k`` emitted ``per_ue[k]`` rows
    and is of device type ``devices[k]``."""
    counts = np.frombuffer(per_ue, dtype=np.int64)
    return (
        np.repeat(ue_ids, counts),
        quantize_times(np.frombuffer(times, dtype=np.float64)),
        np.frombuffer(events, dtype=np.int8).copy(),
        np.repeat(np.frombuffer(devices, dtype=np.int8), counts),
    )


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
    times, events = array("d"), array("b")
    _UESimulator(profile, archetype, duration, start_hour, rng, times, events).run()
    columns = _columns(
        times,
        events,
        np.array([ue_id], dtype=np.int64),
        array("b", [int(profile.device_type)]),
        array("q", [len(times)]),
    )
    return Trace(*columns)


def resolve_device_counts(num_ues: DeviceCounts) -> Dict[DeviceType, int]:
    """Expand a total UE count into per-device counts via the paper's mix.

    Every count must be a whole, non-negative number; anything else
    raises ``ValueError`` naming ``num_ues``.
    """
    total = check_counts(num_ues)
    if isinstance(total, dict):
        return total
    counts = {
        dt: int(round(total * frac)) for dt, frac in PAPER_DEVICE_MIX.items()
    }
    # Fix rounding drift on the dominant type.
    counts[DeviceType.PHONE] += total - sum(counts.values())
    return counts


def _simulate_range(
    ctx: dict,
    lo: int,
    hi: int,
    duration: float,
    start_hour: float,
    entropy: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One job: the unsorted trace columns of UEs ``[lo, hi)``.

    ``ctx["population"]`` lists ``(device_type, count)`` in UE order and
    ``ctx["profiles"]`` maps each device type to its profile.  UE ``i``
    draws from ``SeedSequence(entropy, spawn_key=(i,))``, which is
    ``SeedSequence(entropy).spawn(n)[i]``.
    """
    times, events = array("d"), array("b")
    devices, per_ue = array("b"), array("q")
    first = 0
    for device_type, n in ctx["population"]:
        profile = ctx["profiles"][device_type]
        for ue_id in range(max(lo, first), min(hi, first + n)):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy, spawn_key=(ue_id,))
            )
            before = len(times)
            _UESimulator(
                profile,
                sample_archetype(profile, rng),
                duration,
                start_hour,
                rng,
                times,
                events,
            ).run()
            devices.append(int(device_type))
            per_ue.append(len(times) - before)
        first += n
    tele = get_telemetry()
    tele.count("ue_hours", (hi - lo) * math.ceil(duration / SECONDS_PER_HOUR))
    tele.count("events_emitted", len(times))
    return _columns(times, events, np.arange(lo, hi, dtype=np.int64), devices, per_ue)


def simulate_ground_truth(
    num_ues: DeviceCounts,
    duration: float,
    *,
    start_hour: float = 0.0,
    seed: int = 0,
    profiles: Optional[Mapping[DeviceType, DeviceProfile]] = None,
    processes: Optional[int] = 1,
) -> Trace:
    """Simulate a full "real" trace for a UE population.

    Parameters
    ----------
    num_ues:
        Either a whole total (split by the paper's device mix) or
        explicit whole per-device counts.
    duration:
        Trace length in seconds (the paper's collection: 7 days).
    start_hour:
        Hour-of-day at ``t = 0`` (affects diurnal behaviour).
    seed:
        Every UE gets an independent, reproducible substream.
    profiles:
        Behaviour per device type (default :data:`DEFAULT_PROFILES`);
        it must cover every device type with UEs.
    processes:
        ``None``/``1`` simulates in this process, ``0`` on all CPUs and
        ``>= 2`` on that many workers, each taking a contiguous range
        of UEs through :func:`repro.jobs.run_jobs` (stage
        ``"simulate"``).  Every UE keeps its own substream, so the
        trace is the same bits for every ``processes``.

    The ambient telemetry collector gets a ``simulate`` span and the
    counters ``ue_hours`` (UEs × started hours) and ``events_emitted``.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    if not math.isfinite(start_hour):
        raise ValueError(f"start_hour must be finite, got {start_hour!r}")
    if profiles is None:
        profiles = DEFAULT_PROFILES
    counts = resolve_device_counts(num_ues)
    population = [(dt, counts[dt]) for dt in sorted(counts, key=int) if counts[dt]]
    missing = [dt.name for dt, _ in population if dt not in profiles]
    if missing:
        raise ValueError(f"profiles has no profile for device types {missing}")
    workers = check_processes(processes)
    total = sum(n for _, n in population)
    # The root entropy, drawn once here, so that seed=None still gives
    # every UE a substream of one common root.
    entropy = np.random.SeedSequence(seed).entropy
    size = max(1, -(-total // workers))
    jobs = [
        Job(
            (lo, min(lo + size, total), duration, start_hour, entropy),
            {"UEs": (lo, min(lo + size, total))},
        )
        for lo in range(0, total, size)
    ]
    tele = get_telemetry()
    with tele.span("simulate"):
        parts: List[tuple] = [()] * len(jobs)
        for i, columns in run_jobs(
            _simulate_range,
            jobs,
            shared={
                "population": population,
                "profiles": {dt: profiles[dt] for dt, _ in population},
            },
            processes=workers,
            stage="simulate",
        ):
            parts[i] = columns
        if not parts:
            return Trace.empty()
        columns = (
            parts[0]
            if len(parts) == 1
            else [np.concatenate(column) for column in zip(*parts)]
        )
        del parts
        return Trace(*columns)
