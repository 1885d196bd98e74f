"""Per-event reference replay of whole traces, the exact-equality oracle.

Every UE is walked through :func:`repro.statemachines.replay.replay_ue`
one ``TransitionRecord`` at a time, and the §8 quantities are built
from Python lists.  The production replay
(:func:`repro.statemachines.replay_trace`, a flat-array
:class:`~repro.statemachines.TraceReplay`) must produce exactly the
same keys, counts and samples, in the same order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.statemachines import lte
from repro.statemachines.fsm import HierarchicalStateMachine
from repro.statemachines.replay import ReplayResult, replay_ue, top_level_intervals
from repro.trace.events import EventType
from repro.trace.trace import Trace


def replay_trace(
    trace: Trace,
    machine: Optional[HierarchicalStateMachine] = None,
) -> Dict[int, ReplayResult]:
    """Replay every UE of ``trace`` independently: ``{ue: ReplayResult}``."""
    if machine is None:
        machine = lte.two_level_machine()
    return {
        ue: replay_ue(sub.event_types, sub.times, machine)
        for ue, sub in trace.per_ue()
    }


def sojourn_samples(
    results: Dict[int, ReplayResult],
    *,
    include_forced: bool = False,
) -> Dict[Tuple[str, EventType], np.ndarray]:
    """Group sojourn durations by (source state, triggering event).

    Records whose enter time is unknown, or that the decoder had to
    force (unless ``include_forced``), are skipped.
    """
    grouped: Dict[Tuple[str, EventType], List[float]] = {}
    for result in results.values():
        for rec in result.records:
            if rec.sojourn is None:
                continue
            if rec.forced and not include_forced:
                continue
            grouped.setdefault((rec.source, rec.event), []).append(rec.sojourn)
    return {
        key: np.asarray(values, dtype=np.float64)
        for key, values in grouped.items()
    }


def transition_counts(
    results: Dict[int, ReplayResult],
) -> Dict[Tuple[str, EventType, str], int]:
    """Count observed (source, event, target) transitions across UEs."""
    counts: Dict[Tuple[str, EventType, str], int] = {}
    for result in results.values():
        for rec in result.records:
            key = (rec.source, rec.event, rec.target)
            counts[key] = counts.get(key, 0) + 1
    return counts


def top_state_sojourns(
    results: Dict[int, ReplayResult],
    machine: Optional[HierarchicalStateMachine] = None,
) -> Dict[str, np.ndarray]:
    """Durations of complete top-level state visits, grouped by state."""
    if machine is None:
        machine = lte.two_level_machine()
    grouped: Dict[str, List[float]] = {}
    for result in results.values():
        for interval in top_level_intervals(result.records, machine):
            if interval.complete:
                grouped.setdefault(interval.state, []).append(interval.duration)
    return {
        state: np.asarray(values, dtype=np.float64)
        for state, values in grouped.items()
    }


def device_sojourns(trace: Trace, device_type) -> Dict[str, np.ndarray]:
    """Reference twin of :func:`repro.validation.microscopic.device_sojourns`."""
    return top_state_sojourns(replay_trace(trace.filter_device(device_type)))


def classify_category2_events(trace: Trace) -> Dict[Tuple[EventType, str], int]:
    """Count ``HO``/``TAU`` events by the top-level state they occur in.

    The top-level state is tracked leniently from Category-1 events
    only, one event at a time per UE.
    """
    counts: Dict[Tuple[EventType, str], int] = {
        (EventType.HO, lte.CONNECTED): 0,
        (EventType.HO, lte.IDLE): 0,
        (EventType.TAU, lte.CONNECTED): 0,
        (EventType.TAU, lte.IDLE): 0,
    }
    force_to = {
        EventType.ATCH: lte.CONNECTED,
        EventType.DTCH: lte.DEREGISTERED,
        EventType.SRV_REQ: lte.CONNECTED,
        EventType.S1_CONN_REL: lte.IDLE,
    }
    for _, sub in trace.per_ue():
        state = _infer_initial_top_state(sub.event_types)
        for raw in sub.event_types:
            event = EventType(int(raw))
            if event in force_to:
                state = force_to[event]
            else:
                key = (event, state if state != lte.DEREGISTERED else lte.IDLE)
                if key in counts:
                    counts[key] += 1
    return counts


def _infer_initial_top_state(event_types: Sequence[int]) -> str:
    """Back-infer a UE's top-level state before its first Category-1 event."""
    for raw in event_types:
        event = EventType(int(raw))
        if event == EventType.ATCH:
            return lte.DEREGISTERED
        if event == EventType.SRV_REQ:
            return lte.IDLE
        if event in (EventType.S1_CONN_REL, EventType.DTCH):
            return lte.CONNECTED
    # Only HO/TAU events: HO implies CONNECTED; an all-TAU UE could be in
    # either state, and CONNECTED is the conservative choice for HO counting.
    for raw in event_types:
        if EventType(int(raw)) == EventType.HO:
            return lte.CONNECTED
    return lte.IDLE
