"""Model fitting pipeline (§5): trace -> per-(cluster, hour, device) models.

The pipeline mirrors the paper end to end:

1. slice the input trace into non-overlapping one-hour segments per UE,
   pooling the same hour-of-day across days;
2. extract per-UE features and run the adaptive clustering scheme for
   every (device type, hour) combination (§5.3) — or skip clustering
   for the ``Base`` baseline;
3. replay every segment through the configured state machine and fit,
   per cluster, the semi-Markov transition probabilities and sojourn
   distributions (§5.2) plus the first-event model (§5.4);
4. for the EMM–ECM baselines, additionally fit per-UE Poisson overlay
   rates for the ``HO``/``TAU`` events the machine cannot express.

Steps 2–4 run array-at-a-time per (device, hour) in
:mod:`repro.model.compiled_fit`, one :func:`repro.jobs.run_jobs` job
each, optionally fanned across processes;
``cache_dir`` additionally enables the content-addressed disk cache
(:mod:`repro.model.fit_cache`).  The per-segment helpers kept below
(:func:`_build_segments`, :func:`_replay_segments`,
:func:`_hour_features`) serve the §4 goodness-of-fit study.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..clustering.quadtree import DEFAULT_THETA_F, DEFAULT_THETA_N
from ..jobs import Job, check_processes, run_jobs
from ..statemachines import lte
from ..statemachines.fsm import StateMachine
from ..statemachines.replay import TransitionRecord, replay_ue, top_level_intervals
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import SECONDS_PER_HOUR, DeviceType, EventType
from ..trace.trace import Trace
from . import compiled_fit
from .fit_cache import fit_cache_key, load_cached, store_cached
from .model_set import HourModel, ModelSet

#: Events the EMM–ECM machine can express; the rest are overlaid.
_CATEGORY1_SET = frozenset(
    {EventType.ATCH, EventType.DTCH, EventType.SRV_REQ, EventType.S1_CONN_REL}
)


@dataclasses.dataclass
class _Segment:
    """One (UE, hour-slot) piece of the trace, in slot-relative time."""

    ue_id: int
    slot: int
    event_types: np.ndarray
    times: np.ndarray  #: relative to the slot start, in [0, 3600)
    records: List[TransitionRecord] = dataclasses.field(default_factory=list)


def fit_model_set(
    trace: Trace,
    *,
    machine_kind: str = "two_level",
    family: str = "empirical",
    clustered: bool = True,
    theta_f: float = DEFAULT_THETA_F,
    theta_n: int = DEFAULT_THETA_N,
    trace_start_hour: int = 0,
    max_cdf_points: int = 512,
    processes: Optional[int] = None,
    cache_dir: "Optional[str | Path]" = None,
    telemetry: Optional[RunTelemetry] = None,
) -> ModelSet:
    """Fit the full model set from a control-plane trace.

    Parameters
    ----------
    trace:
        The training trace ("real" data).
    machine_kind:
        ``"two_level"`` (the paper's model, Fig. 5) or ``"emm_ecm"``
        (the Base/V1 baselines; ``HO``/``TAU`` become Poisson overlays).
    family:
        Sojourn-time model: ``"empirical"`` (the paper) or ``"poisson"``
        (the Base/V1/V2 baselines).
    clustered:
        Apply the adaptive clustering scheme (off for ``Base``).
    theta_f, theta_n:
        Clustering thresholds (§5.3).
    trace_start_hour:
        Hour-of-day at trace time 0, so hour slots map onto the diurnal
        clock correctly.
    max_cdf_points:
        Compression limit for stored empirical CDFs.
    processes:
        ``None`` or ``1`` fits serially in-process; ``0`` fans
        per-(device, hour) jobs across all CPUs; ``>= 2`` uses that
        many worker processes (see :func:`repro.jobs.run_jobs`).  A job
        that keeps failing raises :class:`repro.jobs.JobFailedError`
        (stage ``"fit"``).
    cache_dir:
        Directory of the content-addressed model cache.  ``None``
        (default) disables caching; a hit returns the stored model set
        without refitting (telemetry counter ``cache_hits``).
    telemetry:
        Explicit collector; defaults to the ambient one.  Fit phases
        record spans plus the ``segments_replayed``,
        ``transitions_counted`` and ``cache_hits``/``cache_misses``
        counters.
    """
    if machine_kind not in ("two_level", "emm_ecm"):
        raise ValueError(f"unknown machine_kind {machine_kind!r}")
    if family not in ("empirical", "poisson"):
        raise ValueError(f"unknown sojourn family {family!r}")
    check_processes(processes)
    if len(trace) == 0:
        raise ValueError("cannot fit a model set to an empty trace")

    tele = telemetry if telemetry is not None else get_telemetry()
    with use_telemetry(tele), tele.span("fit"):
        key = None
        if cache_dir is not None:
            with tele.span("fit-cache-lookup"):
                key = fit_cache_key(
                    trace,
                    machine_kind=machine_kind,
                    family=family,
                    clustered=clustered,
                    theta_f=theta_f,
                    theta_n=theta_n,
                    trace_start_hour=trace_start_hour,
                    max_cdf_points=max_cdf_points,
                )
                cached = load_cached(cache_dir, key)
            if cached is not None:
                tele.count("cache_hits")
                return cached
            tele.count("cache_misses")

        model_set = _fit_all(
            trace,
            machine_kind=machine_kind,
            family=family,
            clustered=clustered,
            theta_f=theta_f,
            theta_n=theta_n,
            trace_start_hour=trace_start_hour,
            max_cdf_points=max_cdf_points,
            processes=processes,
        )

        if cache_dir is not None and key is not None:
            with tele.span("fit-cache-store"):
                store_cached(cache_dir, key, model_set)
        return model_set


def _fit_all(
    trace: Trace,
    *,
    machine_kind: str,
    family: str,
    clustered: bool,
    theta_f: float,
    theta_n: int,
    trace_start_hour: int,
    max_cdf_points: int,
    processes: Optional[int],
) -> ModelSet:
    """Plan and run the per-(device, hour) fit jobs for one model set."""
    total_slots = int(math.ceil((float(trace.times.max()) + 1e-9) / SECONDS_PER_HOUR))
    total_slots = max(total_slots, 1)
    slots_by_hour: Dict[int, List[int]] = {}
    for slot in range(total_slots):
        slots_by_hour.setdefault((trace_start_hour + slot) % 24, []).append(slot)
    hour_plan = sorted(slots_by_hour.items())

    device_ues: Dict[DeviceType, List[int]] = {}
    for device_type in DeviceType:
        sub = trace.filter_device(device_type)
        if len(sub) == 0:
            continue
        device_ues[device_type] = [int(u) for u in sub.unique_ues()]

    plan = [(dt, hour, slots) for dt in device_ues for hour, slots in hour_plan]
    jobs = [
        Job((int(dt), tuple(slots)), {"device": dt.name, "hour": hour})
        for dt, hour, slots in plan
    ]
    shared = {
        "trace": trace,
        "total_slots": total_slots,
        "fit": {
            "machine_kind": machine_kind,
            "family": family,
            "clustered": clustered,
            "theta_f": theta_f,
            "theta_n": theta_n,
            "max_cdf_points": max_cdf_points,
        },
    }
    fitted = dict(
        run_jobs(
            compiled_fit.fit_job,
            jobs,
            shared=shared,
            processes=processes,
            stage="fit",
        )
    )
    models: Dict[DeviceType, Dict[int, HourModel]] = {}
    for i, (dt, hour, _) in enumerate(plan):
        models.setdefault(dt, {})[hour] = fitted[i]

    return ModelSet(
        machine_kind=machine_kind,
        family=family,
        clustered=clustered,
        models=models,
        device_ues=device_ues,
        theta_f=theta_f,
        theta_n=theta_n,
    )


# ---------------------------------------------------------------------------
# Segment construction and replay
# ---------------------------------------------------------------------------

def _build_segments(
    per_ue: Mapping[int, Trace],
    ues: Sequence[int],
    slots: Sequence[int],
) -> List[_Segment]:
    """Slice each UE's events into the requested hour slots."""
    segments: List[_Segment] = []
    for ue in ues:
        sub = per_ue[ue]
        times = sub.times
        for slot in slots:
            start = slot * SECONDS_PER_HOUR
            lo = int(np.searchsorted(times, start, side="left"))
            hi = int(np.searchsorted(times, start + SECONDS_PER_HOUR, side="left"))
            if lo == hi:
                continue
            segments.append(
                _Segment(
                    ue_id=ue,
                    slot=slot,
                    event_types=sub.event_types[lo:hi],
                    times=times[lo:hi] - start,
                )
            )
    return segments


def _replay_segments(
    segments: Sequence[_Segment], machine: StateMachine, machine_kind: str
) -> None:
    """Replay every segment in place (filtering to Category-1 for EMM–ECM)."""
    for seg in segments:
        if machine_kind == "emm_ecm":
            mask = np.isin(seg.event_types, [int(e) for e in _CATEGORY1_SET])
            events = seg.event_types[mask]
            times = seg.times[mask]
        else:
            events = seg.event_types
            times = seg.times
        seg.records = replay_ue(events, times, machine).records


# ---------------------------------------------------------------------------
# Clustering features
# ---------------------------------------------------------------------------

def _hour_features(
    segments: Sequence[_Segment], ues: Sequence[int], machine: StateMachine
) -> Dict[int, np.ndarray]:
    """Per-UE clustering features pooled over the hour's slots.

    Counts are per-slot averages (so multi-day traces stay on the same
    scale as single hours); sojourn stds pool complete CONNECTED/IDLE
    intervals across slots.
    """
    srv_counts: Dict[int, int] = {ue: 0 for ue in ues}
    rel_counts: Dict[int, int] = {ue: 0 for ue in ues}
    slots_seen: Dict[int, set] = {ue: set() for ue in ues}
    connected: Dict[int, List[float]] = {ue: [] for ue in ues}
    idle: Dict[int, List[float]] = {ue: [] for ue in ues}

    for seg in segments:
        ue = seg.ue_id
        slots_seen[ue].add(seg.slot)
        srv_counts[ue] += int(np.count_nonzero(seg.event_types == int(EventType.SRV_REQ)))
        rel_counts[ue] += int(
            np.count_nonzero(seg.event_types == int(EventType.S1_CONN_REL))
        )
        for interval in top_level_intervals(seg.records, machine):
            if not interval.complete:
                continue
            if interval.state == lte.CONNECTED:
                connected[ue].append(interval.duration)
            elif interval.state == lte.IDLE:
                idle[ue].append(interval.duration)

    def _std(values: List[float]) -> float:
        if len(values) < 2:
            return 0.0
        return float(np.std(np.asarray(values)))

    features = {}
    for ue in ues:
        slots = max(1, len(slots_seen[ue]))
        features[ue] = np.asarray(
            [
                srv_counts[ue] / slots,
                rel_counts[ue] / slots,
                _std(connected[ue]),
                _std(idle[ue]),
            ],
            dtype=np.float64,
        )
    return features
