"""Per-event reference replay of whole traces, the exact-equality oracle.

Every UE is walked through :func:`replay_ue` one
:class:`TransitionRecord` at a time, and the §8 quantities are built
from Python lists.  The production replay
(:func:`repro.statemachines.replay_trace`, a flat-array
:class:`~repro.statemachines.TraceReplay`) must produce exactly the
same keys, counts and samples, in the same order; :func:`decode` turns
its arrays back into this module's records for comparison.

Replays are lenient: an event that is invalid in the current (or
unknown) state forces the state to a canonical source for that event,
counts a violation, and marks the record ``forced``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.statemachines import lte
from repro.statemachines.compiled_replay import TraceReplay, _canonical_source_for
from repro.statemachines.fsm import HierarchicalStateMachine
from repro.trace.events import DeviceType, EventType
from repro.trace.trace import Trace


@dataclasses.dataclass(frozen=True)
class TransitionRecord:
    """One observed transition of a replayed UE."""

    source: str
    event: EventType
    target: str
    enter_time: Optional[float]  #: when ``source`` was entered (None if unknown)
    fire_time: float             #: when ``event`` fired
    forced: bool                 #: True if the decoder had to correct the state

    @property
    def sojourn(self) -> Optional[float]:
        """Time spent in ``source``, if the enter time is known."""
        if self.enter_time is None:
            return None
        return self.fire_time - self.enter_time


@dataclasses.dataclass(frozen=True)
class StateInterval:
    """A maximal interval a UE spent in one top-level state."""

    state: str
    start: Optional[float]  #: None when the interval began before the trace
    end: Optional[float]    #: None when the interval outlives the trace

    @property
    def complete(self) -> bool:
        """Whether both endpoints were observed."""
        return self.start is not None and self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return (self.end - self.start) if self.complete else None


@dataclasses.dataclass
class ReplayResult:
    """Everything extracted from replaying one UE's event sequence."""

    records: List[TransitionRecord]
    violations: int
    final_state: Optional[str]


def replay_ue(
    event_types: Sequence[int],
    times: Sequence[float],
    machine: Optional[HierarchicalStateMachine] = None,
    *,
    initial_state: Optional[str] = None,
) -> ReplayResult:
    """Replay one UE's chronological event sequence through ``machine``.

    ``event_types`` may be raw integers or :class:`EventType` members;
    ``machine`` defaults to the LTE two-level machine.  With
    ``initial_state=None`` the state is unknown: the first record is
    forced, carries ``enter_time=None``, and its source is inferred
    from the first event.  A supplied initial state's entry time is
    unknown too.
    """
    if machine is None:
        machine = lte.two_level_machine()
    if len(event_types) != len(times):
        raise ValueError("event_types and times must have equal length")

    records: List[TransitionRecord] = []
    violations = 0
    state = initial_state
    entered_at: Optional[float] = None

    for raw_event, t in zip(event_types, times):
        event = EventType(int(raw_event))
        forced = False
        if state is None or not machine.can_fire(state, event):
            if state is not None:
                violations += 1
            forced = True
            state = _canonical_source_for(machine, event)
            entered_at = None
        target = machine.next_state(state, event)
        records.append(
            TransitionRecord(
                source=state,
                event=event,
                target=target,
                enter_time=entered_at,
                fire_time=float(t),
                forced=forced,
            )
        )
        state = target
        entered_at = float(t)

    return ReplayResult(records=records, violations=violations, final_state=state)


def top_level_intervals(
    records: Sequence[TransitionRecord],
    machine=None,
    *,
    end_time: Optional[float] = None,
) -> List[StateInterval]:
    """Project a replayed record stream onto top-level state intervals.

    For hierarchical machines states project onto their parents; for
    flat machines (e.g. EMM-ECM) every state is its own top level.  The
    first interval's start is unknown (``None``); the last interval's
    end is ``end_time`` (or ``None`` if not supplied).
    """
    if machine is None:
        machine = lte.two_level_machine()
    parent = getattr(machine, "parent", lambda state: state)
    intervals: List[StateInterval] = []
    current: Optional[str] = None
    current_start: Optional[float] = None
    for rec in records:
        src_top = parent(rec.source)
        dst_top = parent(rec.target)
        if current is None:
            current = src_top
            current_start = rec.enter_time
        if src_top != dst_top:
            intervals.append(
                StateInterval(state=current, start=current_start, end=rec.fire_time)
            )
            current = dst_top
            current_start = rec.fire_time
    if current is not None:
        intervals.append(StateInterval(state=current, start=current_start, end=end_time))
    return intervals


def decode(replay: TraceReplay) -> Dict[int, ReplayResult]:
    """Decode a production :class:`TraceReplay` to ``{ue: ReplayResult}``.

    Each UE's entry must compare equal to :func:`replay_ue` on that
    UE's events.
    """
    out: Dict[int, ReplayResult] = {}
    names = replay.table.names
    starts = np.flatnonzero(replay.first)
    bounds = np.append(starts, len(replay.events))
    for seg in range(len(starts)):
        lo, hi = int(bounds[seg]), int(bounds[seg + 1])
        records: List[TransitionRecord] = []
        violations = 0
        for i in range(lo, hi):
            forced = bool(replay.forced[i])
            if forced and i > lo:
                violations += 1
            records.append(
                TransitionRecord(
                    source=names[int(replay.sources[i])],
                    event=EventType(int(replay.events[i])),
                    target=names[int(replay.targets[i])],
                    enter_time=None if forced else float(replay.times[i - 1]),
                    fire_time=float(replay.times[i]),
                    forced=forced,
                )
            )
        out[int(replay.ues[seg])] = ReplayResult(
            records=records,
            violations=violations,
            final_state=names[int(replay.targets[hi - 1])],
        )
    return out


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


class ReferenceReplay:
    """The per-event replay of a trace, behind the
    :class:`~repro.statemachines.TraceReplay` methods the §8 summary
    reads; patch it in for ``repro.validation.summary.replay_trace``."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.results = replay_trace(trace)

    def top_state_sojourns(self) -> Dict[str, np.ndarray]:
        return top_state_sojourns(self.results)

    def device_top_state_sojourns(self) -> Dict[DeviceType, Dict[str, np.ndarray]]:
        device_of = self.trace.device_of()
        return {
            device: top_state_sojourns(
                {ue: r for ue, r in self.results.items() if device_of[ue] == device}
            )
            for device in sorted(set(device_of.values()))
        }


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


def classify_category2_by_device(
    trace: Trace,
) -> Dict[DeviceType, Dict[Tuple[EventType, str], int]]:
    """:func:`classify_category2_events` of each device type's cut of
    ``trace``, for every device type present."""
    return {
        device: classify_category2_events(trace.filter_device(device))
        for device in sorted(set(trace.device_of().values()))
    }


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
