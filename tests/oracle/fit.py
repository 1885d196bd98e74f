"""Per-segment reference fitting (§5), the exact-equality oracle.

This is the original fitting pipeline: slice each UE's events into
(UE, hour-slot) segments, replay every segment through the state
machine one ``TransitionRecord`` at a time, cluster the UEs on pooled
per-UE features, and fit each cluster's chain, first-event model and
(for EMM–ECM) Poisson overlay rates from Python lists.  The production
fitter (:mod:`repro.model.compiled_fit`) computes the same reductions
as flat-array group-bys and must produce a ``ModelSet`` whose
``to_dict()`` compares equal to this one's.

The segment helpers (``_build_segments``, ``_replay_segments``,
``_hour_features``) are shared with the §4 goodness-of-fit oracle
(``oracle.gof``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.clustering import DEFAULT_THETA_F, DEFAULT_THETA_N
from repro.clustering.features import NUM_FEATURES
from repro.distributions.base import FitError
from repro.distributions.empirical import EmpiricalCDF
from repro.distributions.exponential import Exponential
from repro.model.model_set import HourModel, ModelSet, build_machine
from repro.statemachines import lte
from repro.statemachines.fsm import StateMachine
from repro.trace.events import SECONDS_PER_HOUR, DeviceType, EventType
from repro.trace.trace import Trace

from .clustering import ClusteringResult, adaptive_cluster, single_cluster
from .objects import (
    ClusterModel,
    Edge,
    FirstEventModel,
    SemiMarkovChain,
    StateModel,
    from_clusters,
)
from .replay import TransitionRecord, replay_ue, top_level_intervals

#: Fallback sojourn when a transition was observed but never with a
#: known entry time (e.g. always the first event of a segment).
_FALLBACK_MEAN_SOJOURN = 60.0

_OVERLAY_EVENTS = (EventType.HO, EventType.TAU)

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
) -> ModelSet:
    """The reference counterpart of :func:`repro.model.fit_model_set`."""
    if machine_kind not in ("two_level", "emm_ecm"):
        raise ValueError(f"unknown machine_kind {machine_kind!r}")
    if family not in ("empirical", "poisson"):
        raise ValueError(f"unknown sojourn family {family!r}")
    slots_by_hour = _slots_by_hour(trace, trace_start_hour)
    machine = build_machine(machine_kind)
    models: Dict[DeviceType, Dict[int, HourModel]] = {}
    device_ues: Dict[DeviceType, List[int]] = {}
    for device_type in DeviceType:
        if len(trace.filter_device(device_type)) == 0:
            continue
        ues, per_ue = _reference_device_context(trace, device_type)
        device_ues[device_type] = ues
        models[device_type] = {
            hour: _reference_fit_device_hour(
                per_ue,
                ues,
                slots,
                machine=machine,
                machine_kind=machine_kind,
                family=family,
                clustered=clustered,
                theta_f=theta_f,
                theta_n=theta_n,
                max_cdf_points=max_cdf_points,
            )
            for hour, slots in sorted(slots_by_hour.items())
        }
    return ModelSet(
        machine_kind=machine_kind,
        family=family,
        clustered=clustered,
        models=models,
        device_ues=device_ues,
        theta_f=theta_f,
        theta_n=theta_n,
    )


def _slots_by_hour(trace: Trace, trace_start_hour: int) -> Dict[int, List[int]]:
    """The trace's one-hour slots, grouped by hour of day."""
    total_slots = int(math.ceil((float(trace.times.max()) + 1e-9) / SECONDS_PER_HOUR))
    total_slots = max(total_slots, 1)
    slots_by_hour: Dict[int, List[int]] = {}
    for slot in range(total_slots):
        slots_by_hour.setdefault((trace_start_hour + slot) % 24, []).append(slot)
    return slots_by_hour


def _reference_device_context(
    trace: Trace, device_type: DeviceType
) -> Tuple[List[int], Dict[int, Trace]]:
    """Per-device inputs of the pipeline (UE list, per-UE traces)."""
    sub = trace.filter_device(device_type)
    ues = [int(u) for u in sub.unique_ues()]
    per_ue = {ue: seg for ue, seg in sub.per_ue()}
    return ues, per_ue


def _reference_fit_device_hour(
    per_ue: Mapping[int, Trace],
    ues: Sequence[int],
    slots: Sequence[int],
    *,
    machine: StateMachine,
    machine_kind: str,
    family: str,
    clustered: bool,
    theta_f: float,
    theta_n: int,
    max_cdf_points: int,
) -> HourModel:
    """One (device, hour) of the per-segment pipeline."""
    segments = _build_segments(per_ue, ues, slots)
    _replay_segments(segments, machine, machine_kind)
    return _fit_hour(
        segments,
        ues,
        num_slots=len(slots),
        machine=machine,
        machine_kind=machine_kind,
        family=family,
        clustered=clustered,
        theta_f=theta_f,
        theta_n=theta_n,
        max_cdf_points=max_cdf_points,
    )


def _fit_hour(
    segments: List[_Segment],
    ues: Sequence[int],
    *,
    num_slots: int,
    machine: StateMachine,
    machine_kind: str,
    family: str,
    clustered: bool,
    theta_f: float,
    theta_n: int,
    max_cdf_points: int,
) -> HourModel:
    clustering = _cluster_ues(segments, ues, clustered, theta_f, theta_n, machine)
    by_cluster: Dict[int, List[_Segment]] = {c.cluster_id: [] for c in clustering.clusters}
    for seg in segments:
        by_cluster[clustering.assignment[seg.ue_id]].append(seg)

    cluster_models = []
    for cluster in clustering.clusters:
        cluster_models.append(
            _fit_cluster(
                by_cluster[cluster.cluster_id],
                num_ues=cluster.size,
                num_segments=cluster.size * num_slots,
                machine=machine,
                machine_kind=machine_kind,
                family=family,
                max_cdf_points=max_cdf_points,
            )
        )
    return from_clusters(cluster_models, clustering.assignment, machine_kind)


def _cluster_ues(
    segments: Sequence[_Segment],
    ues: Sequence[int],
    clustered: bool,
    theta_f: float,
    theta_n: int,
    machine: StateMachine,
) -> ClusteringResult:
    if not clustered:
        return single_cluster(ues, NUM_FEATURES)
    features = _hour_features(segments, ues, machine)
    return adaptive_cluster(features, theta_f=theta_f, theta_n=theta_n)



def _fit_cluster(
    segments: Sequence[_Segment],
    *,
    num_ues: int,
    num_segments: int,
    machine: StateMachine,
    machine_kind: str,
    family: str,
    max_cdf_points: int,
) -> ClusterModel:
    chain = _fit_chain(segments, machine, family, max_cdf_points)
    first_event = _fit_first_event(
        segments, num_segments, max_cdf_points, machine_kind=machine_kind
    )
    overlay = (
        _fit_overlay(segments, num_segments)
        if machine_kind == "emm_ecm"
        else {}
    )
    return ClusterModel(
        chain=chain,
        first_event=first_event,
        overlay_rates=overlay,
        num_ues=num_ues,
        num_segments=num_segments,
    )


def _fit_chain(
    segments: Sequence[_Segment],
    machine: StateMachine,
    family: str,
    max_cdf_points: int,
) -> SemiMarkovChain:
    counts: Dict[Tuple[str, EventType, str], int] = {}
    sojourns: Dict[Tuple[str, EventType], List[float]] = {}
    by_event: Dict[EventType, List[float]] = {}

    for seg in segments:
        for rec in seg.records:
            if rec.forced and rec.enter_time is not None:
                continue  # mid-stream violation: untrustworthy transition
            key = (rec.source, rec.event, rec.target)
            counts[key] = counts.get(key, 0) + 1
            if rec.sojourn is not None and not rec.forced:
                sojourns.setdefault((rec.source, rec.event), []).append(rec.sojourn)
                by_event.setdefault(rec.event, []).append(rec.sojourn)

    states: Dict[str, StateModel] = {}
    sources = sorted({src for (src, _, _) in counts})
    for source in sources:
        outgoing = [
            (event, target, n)
            for (src, event, target), n in counts.items()
            if src == source
        ]
        total = sum(n for _, _, n in outgoing)
        edges = []
        for event, target, n in sorted(outgoing, key=lambda x: int(x[0])):
            samples = sojourns.get((source, event), [])
            dist = _fit_sojourn(
                samples, by_event.get(event, []), family, max_cdf_points
            )
            edges.append(
                Edge(
                    event=event,
                    target=target,
                    probability=n / total,
                    sojourn=dist,
                )
            )
        states[source] = StateModel(edges=tuple(edges))
    return SemiMarkovChain(states)


def _fit_sojourn(
    samples: Sequence[float],
    event_pool: Sequence[float],
    family: str,
    max_cdf_points: int,
):
    """Fit one F_xy, falling back through pooled samples to a default."""
    source = samples if samples else event_pool
    if not source:
        return Exponential(rate=1.0 / _FALLBACK_MEAN_SOJOURN)
    if family == "empirical":
        return EmpiricalCDF.fit(source, max_points=max_cdf_points)
    try:
        return Exponential.fit(source)
    except FitError:
        return Exponential(rate=1.0 / _FALLBACK_MEAN_SOJOURN)


def _fit_first_event(
    segments: Sequence[_Segment],
    num_segments: int,
    max_cdf_points: int,
    *,
    machine_kind: str = "two_level",
) -> FirstEventModel:
    first_events = []
    for seg in segments:
        events = seg.event_types
        times = seg.times
        if machine_kind == "emm_ecm":
            # The EMM-ECM machine cannot start on HO/TAU (those come
            # from the overlay); its first event is the first Category-1.
            mask = np.isin(events, [int(e) for e in _CATEGORY1_SET])
            events = events[mask]
            times = times[mask]
        if len(times) > 0:
            first_events.append((EventType(int(events[0])), float(times[0])))
    # Guard: clustering counts UEs once, but a UE contributes one segment
    # per slot; num_segments can undercount if data is inconsistent.
    num_segments = max(num_segments, len(first_events))
    return FirstEventModel.fit(
        first_events, num_segments, max_cdf_points=max_cdf_points
    )


def _fit_overlay(
    segments: Sequence[_Segment], num_segments: int
) -> Dict[EventType, float]:
    """Poisson rates for the events the EMM–ECM machine cannot express.

    Following the paper's baseline: merge the per-UE inter-arrival
    times of each event type across UEs and fit an exponential by MLE;
    the resulting rate drives an independent per-UE Poisson process.
    UEs with fewer than two events contribute no inter-arrival sample,
    so bursty traffic inflates the rate — the source of the baseline's
    large breakdown error in Tables 4/11.
    """
    rates: Dict[EventType, float] = {}
    for event in _OVERLAY_EVENTS:
        interarrivals: List[float] = []
        count = 0
        for seg in segments:
            mask = seg.event_types == int(event)
            times = seg.times[mask]
            count += int(times.size)
            if times.size >= 2:
                interarrivals.extend(np.diff(times).tolist())
        if interarrivals:
            mean = float(np.mean(interarrivals))
            rates[event] = 1.0 / max(mean, 1e-3)
        elif count > 0 and num_segments > 0:
            rates[event] = count / (num_segments * SECONDS_PER_HOUR)
        else:
            rates[event] = 0.0
    return rates


# ---------------------------------------------------------------------------
# Segment construction, replay and clustering features
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
