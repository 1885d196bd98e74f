"""Replaying one UE's events through a state machine.

The modeling pipeline never observes UE states directly — only events.
Replay reconstructs the state trajectory of each UE by walking its
event sequence through a state machine, which yields:

* **sojourn samples** per (source state, triggering event) — the raw
  material for the Semi-Markov sojourn CDFs;
* **transition counts** — the raw material for ``p_xy``;
* **top-level state intervals** — used to compute CONNECTED/IDLE
  sojourn distributions and to classify ``HO``/``TAU`` events by the
  top-level state they occurred in (the ``HO (CONN.)`` / ``HO (IDLE)``
  rows of Tables 4 and 11).

Replays are *lenient*: a trace that violates the machine (e.g. a
baseline-synthesized trace firing ``HO`` in IDLE) does not abort the
replay.  Instead the decoder forces the state to a canonical source for
the offending event, counts a violation, and marks the produced record
as ``forced`` so fitting can exclude it.

:func:`replay_ue` walks one UE record by record; whole traces replay
as flat arrays through
:func:`repro.statemachines.compiled_replay.replay_trace`, which
produces exactly the same transitions.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..trace.events import EventType
from . import lte
from .fsm import HierarchicalStateMachine


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


# Canonical source state to force when an event is invalid in the
# current (or unknown) state of the two-level machine.
_CANONICAL_SOURCE = {
    EventType.ATCH: lte.DEREGISTERED,
    EventType.DTCH: lte.S1_REL_S_1,
    EventType.SRV_REQ: lte.S1_REL_S_1,
    EventType.S1_CONN_REL: lte.SRV_REQ_S,
    EventType.HO: lte.SRV_REQ_S,
    EventType.TAU: lte.S1_REL_S_1,
}


def replay_ue(
    event_types: Sequence[int],
    times: Sequence[float],
    machine: Optional[HierarchicalStateMachine] = None,
    *,
    initial_state: Optional[str] = None,
) -> ReplayResult:
    """Replay one UE's chronological event sequence through ``machine``.

    Parameters
    ----------
    event_types, times:
        Parallel sequences (chronological).  ``event_types`` may be raw
        integers or :class:`EventType` members.
    machine:
        Defaults to the LTE two-level machine.
    initial_state:
        State of the UE at the start of the sequence.  ``None`` means
        unknown: the first record carries ``enter_time=None`` and its
        source is inferred from the first event.
    """
    if machine is None:
        machine = lte.two_level_machine()
    if len(event_types) != len(times):
        raise ValueError("event_types and times must have equal length")

    records: List[TransitionRecord] = []
    violations = 0
    state = initial_state
    entered_at: Optional[float] = None
    if initial_state is not None:
        entered_at = None  # entering time of a supplied state is unknown

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


def _canonical_source_for(
    machine: HierarchicalStateMachine, event: EventType
) -> str:
    """A state from which ``event`` is guaranteed valid in ``machine``."""
    candidate = _CANONICAL_SOURCE.get(event)
    if candidate is not None and candidate in machine.states:
        if machine.can_fire(candidate, event):
            return candidate
    # Fall back to any state with an outgoing edge for this event.
    for state in sorted(machine.states):
        if machine.can_fire(state, event):
            return state
    raise ValueError(f"event {event.name} has no source state in {machine.name}")


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

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
