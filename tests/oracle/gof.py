"""Per-segment reference §4 goodness-of-fit study, the exact-equality oracle.

This is the original study: slice each UE's events into (UE, hour-slot)
segments, replay every segment one ``TransitionRecord`` at a time,
cluster with the fit oracle's per-segment features, and pool each
cluster's samples from Python lists in segment order.  The production
study (:func:`repro.analysis.gof_study`) pools the same samples with
array group-bys and must return an equal ``GofResult``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.gof import EMM_ECM_STATES, MIN_SAMPLES, TESTS, GofResult, _run_tests
from repro.clustering import DEFAULT_THETA_F, DEFAULT_THETA_N
from repro.statemachines import lte
from repro.statemachines.lte import SECOND_LEVEL_TRANSITIONS, two_level_machine
from repro.trace.events import DeviceType, EventType
from repro.trace.trace import Trace

from .clustering import adaptive_cluster, single_cluster
from .fit import (
    _build_segments,
    _hour_features,
    _replay_segments,
    _slots_by_hour,
)
from .replay import top_level_intervals


def _interarrivals_by_event(segments) -> Dict[EventType, List[float]]:
    """Merge within-UE inter-arrival times per event type (§4.1.1)."""
    pooled: Dict[EventType, List[float]] = {e: [] for e in EventType}
    for seg in segments:
        for event in EventType:
            times = seg.times[seg.event_types == int(event)]
            if times.size >= 2:
                pooled[event].extend(np.diff(times).tolist())
    return pooled


def _state_sojourns(segments, machine) -> Dict[str, List[float]]:
    """Pool sojourn durations of the four EMM/ECM states.

    CONNECTED / IDLE / DEREGISTERED come straight from the replay's
    complete intervals; REGISTERED spans maximal runs of
    CONNECTED+IDLE, counted only when the run's start and end were both
    observed — a run that begins with the segment's leading interval
    started at an unknown time and is dropped.
    """
    pooled: Dict[str, List[float]] = {s: [] for s in EMM_ECM_STATES}
    for seg in segments:
        in_run = False
        run_start: Optional[float] = None
        for interval in top_level_intervals(seg.records, machine):
            if interval.complete:
                if interval.state in (lte.CONNECTED, lte.IDLE):
                    pooled[interval.state].append(interval.duration)
                elif interval.state == lte.DEREGISTERED:
                    pooled["DEREGISTERED"].append(interval.duration)
            if interval.state in (lte.CONNECTED, lte.IDLE):
                if not in_run:
                    in_run = True
                    run_start = interval.start
            else:
                if in_run and run_start is not None:
                    pooled["REGISTERED"].append(interval.start - run_start)
                in_run = False
    return pooled


def _transition_sojourns(segments) -> Dict[Tuple[str, EventType], List[float]]:
    """Pool sojourns of the nine second-level transitions (Table 10)."""
    pooled: Dict[Tuple[str, EventType], List[float]] = {
        k: [] for k in SECOND_LEVEL_TRANSITIONS
    }
    for seg in segments:
        for rec in seg.records:
            key = (rec.source, rec.event)
            if key in pooled and rec.sojourn is not None and not rec.forced:
                pooled[key].append(rec.sojourn)
    return pooled


def gof_study(
    trace: Trace,
    device_type: DeviceType,
    *,
    clustered: bool,
    theta_f: float = DEFAULT_THETA_F,
    theta_n: int = DEFAULT_THETA_N,
    trace_start_hour: int = 0,
    quantities: str = "events_and_states",
    min_samples: int = MIN_SAMPLES,
) -> GofResult:
    """The reference counterpart of :func:`repro.analysis.gof_study`."""
    if quantities not in ("events_and_states", "transitions"):
        raise ValueError(f"unknown quantities {quantities!r}")
    machine = two_level_machine()
    sub = trace.filter_device(device_type)
    if len(sub) == 0:
        raise ValueError(f"trace has no {device_type.name} events")
    ues = [int(u) for u in sub.unique_ues()]
    per_ue = {ue: seg for ue, seg in sub.per_ue()}

    passes: Dict[str, Dict[str, int]] = {t: {} for t in TESTS}
    combos: Dict[str, int] = {}

    for _, slots in sorted(_slots_by_hour(trace, trace_start_hour).items()):
        segments = _build_segments(per_ue, ues, slots)
        if not segments:
            continue
        _replay_segments(segments, machine, "two_level")
        if clustered:
            features = _hour_features(segments, ues, machine)
            clustering = adaptive_cluster(features, theta_f=theta_f, theta_n=theta_n)
        else:
            clustering = single_cluster(ues, 4)
        by_cluster: Dict[int, List] = {c.cluster_id: [] for c in clustering.clusters}
        for seg in segments:
            by_cluster[clustering.assignment[seg.ue_id]].append(seg)

        for cluster_segments in by_cluster.values():
            if not cluster_segments:
                continue
            if quantities == "events_and_states":
                pooled: Dict[str, List[float]] = {}
                for event, values in _interarrivals_by_event(cluster_segments).items():
                    pooled[event.name] = values
                for state, values in _state_sojourns(cluster_segments, machine).items():
                    pooled[state] = values
            else:
                pooled = {
                    f"{src}-{ev.name}": values
                    for (src, ev), values in _transition_sojourns(
                        cluster_segments
                    ).items()
                }
            for quantity, values in pooled.items():
                if len(values) < min_samples:
                    continue
                combos[quantity] = combos.get(quantity, 0) + 1
                for test, ok in _run_tests(values).items():
                    if ok:
                        passes[test][quantity] = passes[test].get(quantity, 0) + 1

    rates = {
        test: {
            quantity: passes[test].get(quantity, 0) / n
            for quantity, n in combos.items()
        }
        for test in TESTS
    }
    return GofResult(device_type=device_type, rates=rates, combos=combos)
