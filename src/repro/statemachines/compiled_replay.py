"""Whole-trace replay: array-at-a-time state reconstruction.

The modeling pipeline never observes UE states directly — only events.
Replay reconstructs each UE's state trajectory by walking its events
through a state machine.  Replays are *lenient*: an event that is
invalid in the current (or unknown) state forces the state to a
canonical source for that event, counts a violation, and marks the
step ``forced`` so fitting can exclude it.

This module lowers each state machine to small integer lookup tables
once (:class:`MachineTable`, shared with :mod:`repro.model.compiled_fit`
and :mod:`repro.analysis.gof`) and replays a whole trace as flat
arrays:

* rows are visited in ``(ue, time)`` order through the trace's one
  per-UE index (:meth:`repro.trace.trace.Trace.ue_index`);
* the state trajectory of every UE is read off the tables
  (:func:`_replay_codes`): the state after a *barrier* row — a UE's
  first row, or an event that reaches one state from every source —
  is seeded directly; the short runs of source-dependent rows between
  barriers are resolved forward from their predecessors in a few
  frontier passes; and runs still unresolved after those fall back to
  a segmented Hillis–Steele function-composition scan over just their
  rows, ``O(m log L)`` for ``m`` rows in runs of at most ``L``;
* the §8 evaluation quantities — sojourn samples per (state, event),
  transition counts, complete top-level state intervals, and the
  Category-2 (``HO``/``TAU``) state classification — are extracted with
  ``bincount`` / ``searchsorted`` group-bys instead of per-record dict
  appends.

Every extraction is **exactly** equal to a per-UE, per-event walk's
— same keys, same counts, same sample values in the same order —
because the ``(ue, time)`` order reproduces the per-UE iteration order
and every group-by uses a stable argsort.  That walk is kept as a test
oracle (``tests/oracle/replay.py``); equality is pinned per machine ×
device in the tests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..trace.events import DeviceType, EventType
from ..trace.trace import Trace
from . import lte
from .fsm import HierarchicalStateMachine

_NUM_EVENTS = int(max(EventType)) + 1


# ---------------------------------------------------------------------------
# Machine lowering
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MachineTable:
    """A state machine lowered to integer lookup tables.

    State codes index ``names`` (sorted state names, so code order ==
    the fitter's name-sorted source order).  ``-1`` marks
    invalid entries throughout.
    """

    machine_name: str
    names: Tuple[str, ...]
    next_state: np.ndarray     #: (S, E) target code, -1 if cannot fire
    canon: np.ndarray          #: (E,) canonical forced source, -1 if none
    fallback_next: np.ndarray  #: (E,) target code after forcing
    total: np.ndarray          #: (E, S) forced-apply function table
    const_target: np.ndarray   #: (E,) target if source-independent, else -1
    parent_names: Tuple[str, ...]
    parent_code: np.ndarray    #: (S,) top-level state code per state
    connected_code: int        #: parent code of CONNECTED (-1 if absent)
    idle_code: int             #: parent code of IDLE (-1 if absent)

    @property
    def num_states(self) -> int:
        return len(self.names)

    @property
    def num_events(self) -> int:
        return _NUM_EVENTS


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


def lower_machine(machine) -> MachineTable:
    """Lower ``machine`` to the integer tables the compiled replay uses."""
    names = tuple(sorted(machine.states))
    code = {name: i for i, name in enumerate(names)}
    num_states = len(names)
    next_state = np.full((num_states, _NUM_EVENTS), -1, dtype=np.int16)
    for s_i, state in enumerate(names):
        for event in EventType:
            if machine.can_fire(state, event):
                next_state[s_i, int(event)] = code[machine.next_state(state, event)]
    canon = np.full(_NUM_EVENTS, -1, dtype=np.int16)
    for event in EventType:
        try:
            canon[int(event)] = code[_canonical_source_for(machine, event)]
        except ValueError:
            pass  # event has no source state in this machine
    fallback_next = np.where(
        canon >= 0,
        next_state[np.maximum(canon, 0), np.arange(_NUM_EVENTS)],
        np.int16(-1),
    ).astype(np.int16)
    # total[e, s]: the state reached by firing e from s, forcing to the
    # canonical source when the transition is invalid — the *total*
    # function the lenient replay applies per event.
    total = np.where(
        next_state.T >= 0, next_state.T, fallback_next[:, None]
    ).astype(np.int16)
    # Events whose total row is constant (same target from every source)
    # are reset points: the state after one is known without looking
    # left, so the replay scan never has to compose across them.  In
    # the paper's machines most events are like this — all of them for
    # emm_ecm and nr_sa, everything but S1_CONN_REL/TAU for two_level.
    const_target = np.where(
        (canon >= 0) & (total == total[:, :1]).all(axis=1),
        total[:, 0],
        np.int16(-1),
    ).astype(np.int16)

    parent_fn = getattr(machine, "parent", lambda state: state)
    parent_names = tuple(sorted({parent_fn(state) for state in names}))
    parent_of = {name: i for i, name in enumerate(parent_names)}
    parent_code = np.asarray(
        [parent_of[parent_fn(state)] for state in names], dtype=np.int16
    )
    return MachineTable(
        machine_name=machine.name,
        names=names,
        next_state=next_state,
        canon=canon,
        fallback_next=fallback_next,
        total=total,
        const_target=const_target,
        parent_names=parent_names,
        parent_code=parent_code,
        connected_code=parent_of.get(lte.CONNECTED, -1),
        idle_code=parent_of.get(lte.IDLE, -1),
    )


#: Lowered tables cached by machine name (machine builders are pure, so
#: two machines with the same name are structurally identical).
_TABLE_CACHE: Dict[str, MachineTable] = {}


def table_for(machine) -> MachineTable:
    """Cached :func:`lower_machine` keyed on ``machine.name``."""
    table = _TABLE_CACHE.get(machine.name)
    if table is None:
        table = lower_machine(machine)
        _TABLE_CACHE[machine.name] = table
    return table


# ---------------------------------------------------------------------------
# Vectorized replay core
# ---------------------------------------------------------------------------

def _replay_codes(
    events: np.ndarray, first: np.ndarray, table: MachineTable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay a segmented event stream; returns (source, target, forced).

    ``events`` is an int array of event codes, ``first`` flags the first
    event of each segment (each segment replays independently, from an
    unknown initial state); row 0 must start one.

    The state after a *barrier* row is read straight from the tables:
    a segment's first row is forced to the event's canonical source,
    and a constant-row event reaches the same state from every source.
    Only the runs of source-dependent rows between barriers need their
    predecessor's state; :func:`_resolve_runs` walks them forward.
    """
    n = len(events)
    empty = np.empty(0, dtype=np.int16)
    if n == 0:
        return empty, empty, np.empty(0, dtype=bool)
    bad = table.canon[events] < 0
    if bad.any():
        event = EventType(int(events[int(np.argmax(bad))]))
        raise ValueError(
            f"event {event.name} has no source state in {table.machine_name}"
        )

    # Barriers: a segment's first row is forced to its canonical
    # source, and a constant-row event reaches one state from any
    # source, so the state after either is known without looking left.
    # Every other row is -1 until resolved.
    state_after = np.where(
        first, table.fallback_next[events], table.const_target[events]
    )
    loose = np.flatnonzero(state_after < 0)
    if loose.size:
        if loose[0] == 0:
            raise ValueError("the first row must start a segment")
        _resolve_runs(state_after, events, loose, table)

    # The source is the predecessor's state, except where the event is
    # invalid there (or the row starts a segment): then it is forced to
    # the event's canonical source.
    prev = np.empty(n, dtype=np.int16)
    prev[0] = 0
    prev[1:] = state_after[:-1]
    prev[first] = 0
    invalid = (table.next_state < 0).ravel()
    forced = first | invalid[prev.astype(np.intp) * _NUM_EVENTS + events]
    source = np.where(forced, table.canon[events], prev)
    return source, state_after, forced


#: Frontier passes before :func:`_resolve_runs` falls back to doubling.
#: Each pass resolves one more row of every source-dependent run; on
#: ground-truth traces runs average about one row.
_WALK_PASSES = 4


def _resolve_runs(
    state_after: np.ndarray,
    events: np.ndarray,
    loose: np.ndarray,
    table: MachineTable,
) -> None:
    """Fill ``state_after`` at the ``loose`` rows, in place.

    ``loose`` lists, ascending, the rows whose state depends on their
    predecessor's; every run of them follows a resolved row.  A few
    frontier passes resolve each run's leading rows from their
    predecessors.  The rows still unresolved after that (long runs
    only) go through a segmented Hillis–Steele composition of their
    total-function rows, compacted to those rows: ``O(m log L)`` work
    for ``m`` rows in runs of at most ``L``.
    """
    total = table.total
    flat = total.ravel()
    num_states = table.num_states
    for _ in range(_WALK_PASSES):
        # One gather reads every predecessor before any write, so a pass
        # resolves exactly the rows next to a resolved one.
        prev = state_after[loose - 1]
        ready = prev >= 0
        rows = loose[ready]
        state_after[rows] = flat[events[rows] * num_states + prev[ready]]
        loose = loose[~ready]
        if not loose.size:
            return
    m = loose.size
    idx = np.arange(m)
    head = np.ones(m, dtype=bool)
    head[1:] = loose[1:] != loose[:-1] + 1
    # Row j's map; a run's head composes with its resolved predecessor
    # into the constant map "state after this row".
    rows_f = total[events[loose]]  # (m, S)
    heads = loose[head]
    rows_f[head] = total[events[heads], state_after[heads - 1]][:, None]
    start_of = np.maximum.accumulate(np.where(head, idx, 0))
    stride = 1
    while True:
        rows = np.flatnonzero(idx - stride >= start_of)
        if rows.size == 0:
            break
        # Compose: new[j](s) = F_j(F_{j-stride}(s)).  Both gathers read
        # pre-update values before the assignment writes back.
        rows_f[rows] = np.take_along_axis(
            rows_f[rows], rows_f[rows - stride].astype(np.intp), axis=1
        )
        stride *= 2
    state_after[loose] = rows_f[:, 0]


# ---------------------------------------------------------------------------
# Whole-trace replay
# ---------------------------------------------------------------------------

def _interval_bounds(
    table: MachineTable,
    sources: np.ndarray,
    targets: np.ndarray,
    segment: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows that open and close every complete top-level interval.

    A row whose source and target have different top-level parents is a
    boundary.  Consecutive boundaries within one ``segment`` open and
    close an interval whose state is the opening row's target parent.
    A segment's leading interval starts at an unknown time and its
    trailing one never ends, so neither is complete — pairing
    consecutive boundaries drops both.
    """
    bpos = np.flatnonzero(table.parent_code[sources] != table.parent_code[targets])
    same = segment[bpos[1:]] == segment[bpos[:-1]]
    return bpos[:-1][same], bpos[1:][same]


def _group_arrays(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Group ``values`` by integer ``keys``, preserving in-group order."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_vals = values[order]
    present, starts = np.unique(sorted_keys, return_index=True)
    bounds = np.append(starts, len(sorted_keys))
    groups = [sorted_vals[bounds[i]: bounds[i + 1]] for i in range(len(present))]
    return present, groups


def _split(keys: np.ndarray, values: np.ndarray):
    """``(key, values[keys == key])`` for each key present, ascending;
    each group keeps the values' order.  For a handful of keys."""
    for key in np.flatnonzero(np.bincount(keys)).tolist():
        yield key, values[keys == key]


@dataclasses.dataclass
class TraceReplay:
    """Every UE of one trace replayed, kept as flat arrays.

    Rows are in ``(ue, time)`` order — the order a per-UE, per-event
    walk visits records in — segmented by ``first`` flags at UE
    boundaries.  All derived quantities are exactly equal to that
    walk's (same keys, same values, same in-group sample order).
    """

    ues: np.ndarray        #: sorted distinct UE ids
    ue_code: np.ndarray    #: (n,) per-row index into ``ues``
    events: np.ndarray     #: (n,) event codes
    times: np.ndarray      #: (n,) fire times (absolute)
    sources: np.ndarray    #: (n,) source state codes
    targets: np.ndarray    #: (n,) target state codes
    forced: np.ndarray     #: (n,) bool
    first: np.ndarray      #: (n,) bool, True at each UE's first row
    devices: np.ndarray    #: (U,) device-type code of each UE in ``ues``
    table: MachineTable

    def __len__(self) -> int:
        return len(self.events)

    @property
    def num_ues(self) -> int:
        return len(self.ues)

    @property
    def violations(self) -> int:
        """Forced steps after a UE's first event, summed over UEs."""
        return int(np.count_nonzero(self.forced & ~self.first))

    # -- derived quantities (flat-array group-bys) --------------------
    def sojourn_samples(self) -> Dict[Tuple[str, EventType], np.ndarray]:
        """Sojourn durations grouped by (source state, triggering event).

        Forced records are excluded: the decoder reset their source, so
        their enter time is unknown.
        """
        valid = np.flatnonzero(~self.forced)
        durations = self.times[valid] - self.times[valid - 1]
        keys = (
            self.sources[valid].astype(np.int64) * self.table.num_events
            + self.events[valid]
        )
        present, groups = _group_arrays(keys, durations)
        names = self.table.names
        return {
            (
                names[int(key) // self.table.num_events],
                EventType(int(key) % self.table.num_events),
            ): group
            for key, group in zip(present, groups)
        }

    def transition_counts(self) -> Dict[Tuple[str, EventType, str], int]:
        """Count observed (source, event, target) transitions across UEs."""
        num_states = self.table.num_states
        num_events = self.table.num_events
        keys = (
            self.sources.astype(np.int64) * num_events + self.events
        ) * num_states + self.targets
        counts = np.bincount(keys, minlength=num_states * num_events * num_states)
        names = self.table.names
        out: Dict[Tuple[str, EventType, str], int] = {}
        for key in np.flatnonzero(counts):
            tgt = int(key) % num_states
            src_ev = int(key) // num_states
            out[
                (
                    names[src_ev // num_events],
                    EventType(src_ev % num_events),
                    names[tgt],
                )
            ] = int(counts[key])
        return out

    def _interval_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Complete top-level intervals as (state_parent, start, duration,
        ue_code)."""
        open_b, close_b = _interval_bounds(
            self.table, self.sources, self.targets, self.ue_code
        )
        return (
            self.table.parent_code[self.targets[open_b]],
            self.times[open_b],
            self.times[close_b] - self.times[open_b],
            self.ue_code[open_b],
        )

    def top_state_sojourns(self) -> Dict[str, np.ndarray]:
        """Durations of complete top-level state visits, grouped by state.

        This yields the CONNECTED / IDLE / DEREGISTERED sojourn samples
        the paper fits and compares (Figs. 3-4, Table 5).
        """
        states, _, durations, _ = self._interval_arrays()
        names = self.table.parent_names
        return {names[code]: group for code, group in _split(states, durations)}

    def device_top_state_sojourns(self) -> Dict[DeviceType, Dict[str, np.ndarray]]:
        """:meth:`top_state_sojourns` of each device type's UEs, for
        every device type present.

        UEs replay independently, so each entry equals the sojourns of
        a replay of that device's cohort alone.
        """
        states, _, durations, ue = self._interval_arrays()
        names = self.table.parent_names
        key = self.devices[ue].astype(np.int64) * len(names) + states
        out: Dict[DeviceType, Dict[str, np.ndarray]] = {
            DeviceType(code): {} for code in np.unique(self.devices).tolist()
        }
        for code, group in _split(key, durations):
            out[DeviceType(code // len(names))][names[code % len(names)]] = group
        return out

    def state_visits(self, state: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(durations, entry_times)`` of complete visits to ``state``.

        Visits are in ``(ue, time)`` order; ``state`` is a top-level
        state name (e.g. ``"CONNECTED"``).
        """
        states, starts, durations, _ = self._interval_arrays()
        names = self.table.parent_names
        code = names.index(state) if state in names else -1
        keep = states == code
        return durations[keep], starts[keep]


def replay_trace(trace: Trace, machine=None) -> TraceReplay:
    """Replay every UE of ``trace`` independently, as flat arrays.

    ``machine`` defaults to the LTE two-level machine.  Each UE replays
    from an unknown initial state; see :class:`TraceReplay` for the
    derived quantities.
    """
    if machine is None:
        machine = lte.two_level_machine()
    table = table_for(machine)
    # The trace's UE index orders rows the way a per-UE walk visits them.
    index = trace.ue_index()
    events = trace.event_types[index.order].astype(np.int64)
    first = index.firsts()
    sources, targets, forced = _replay_codes(events, first, table)
    return TraceReplay(
        ues=index.ues,
        ue_code=index.codes(),
        events=events,
        times=trace.times[index.order],
        sources=sources,
        targets=targets,
        forced=forced,
        first=first,
        devices=trace.device_types[index.order[index.bounds[:-1]]],
        table=table,
    )


# ---------------------------------------------------------------------------
# Category-2 classification (Tables 4 & 11)
# ---------------------------------------------------------------------------

#: Top-level state codes used by the classification arrays.
_CONN, _IDLE, _DEREG = 0, 1, 2

#: Top-level state after a Category-1 event (the lenient tracker).
_FORCE_TO = np.full(_NUM_EVENTS, -1, dtype=np.int8)
_FORCE_TO[int(EventType.ATCH)] = _CONN
_FORCE_TO[int(EventType.DTCH)] = _DEREG
_FORCE_TO[int(EventType.SRV_REQ)] = _CONN
_FORCE_TO[int(EventType.S1_CONN_REL)] = _IDLE

#: Initial top-level state back-inferred from a UE's first Category-1
#: event.
_INIT_FROM = np.full(_NUM_EVENTS, -1, dtype=np.int8)
_INIT_FROM[int(EventType.ATCH)] = _DEREG
_INIT_FROM[int(EventType.SRV_REQ)] = _IDLE
_INIT_FROM[int(EventType.S1_CONN_REL)] = _CONN
_INIT_FROM[int(EventType.DTCH)] = _CONN


def classify_category2_events(
    trace: Trace,
) -> Dict[Tuple[EventType, str], int]:
    """Count ``HO``/``TAU`` events by the top-level state they occur in.

    This backs the ``HO (CONN.)`` / ``HO (IDLE)`` / ``TAU (CONN.)`` /
    ``TAU (IDLE)`` rows of Tables 4 and 11.  Each UE's top-level state
    is tracked leniently from Category-1 events only (a forward fill
    over per-UE segments), so traces violating the two-level machine
    (e.g. Base-synthesized traces with ``HO`` in IDLE) are classified
    faithfully rather than corrected.  Before its first Category-1
    event a UE is in the state that event implies, else CONNECTED when
    it has any ``HO``, else IDLE; ``DEREGISTERED`` counts as ``IDLE``.
    """
    events, _, states = _category2_rows(trace)
    return _category2_dict(events, states)


def classify_category2_by_device(
    trace: Trace,
) -> Dict[DeviceType, Dict[Tuple[EventType, str], int]]:
    """:func:`classify_category2_events` of each device type's UEs, for
    every device type present (UEs are classified independently)."""
    index = trace.ue_index()
    present = np.unique(trace.device_types[index.order[index.bounds[:-1]]])
    events, devices, states = _category2_rows(trace)
    return {
        DeviceType(code): _category2_dict(
            events[devices == code], states[devices == code]
        )
        for code in present.tolist()
    }


def _category2_dict(
    events: np.ndarray, states: np.ndarray
) -> Dict[Tuple[EventType, str], int]:
    """The four Category-2 cells, counted over HO/TAU rows."""
    return {
        (event, name): int(np.count_nonzero((events == event) & (states == code)))
        for event in (EventType.HO, EventType.TAU)
        for name, code in ((lte.CONNECTED, _CONN), (lte.IDLE, _IDLE))
    }


def _category2_rows(trace: Trace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(event, device, state)`` of every HO/TAU row, in UE order.

    ``state`` is the lenient top-level state the row occurs in, with
    DEREGISTERED folded into IDLE.  The per-row work is a few one-byte
    columns and one forward fill of row positions.
    """
    index = trace.ue_index()
    events = trace.event_types[index.order]
    starts, ends = index.bounds[:-1], index.bounds[1:]

    # Per-UE initial state: decided by the first Category-1 event, else
    # CONNECTED when any HO is present, else IDLE.  A UE's rows are one
    # run, so its first row of a kind is the first at or after its start.
    setter = _FORCE_TO[events]  # -1 for HO/TAU rows
    cat1_pos = np.flatnonzero(setter >= 0)
    ho_pos = np.flatnonzero(events == int(EventType.HO))
    first_cat1 = _first_at_or_after(cat1_pos, starts, ends)
    has_ho = _first_at_or_after(ho_pos, starts, ends) >= 0
    init = np.where(has_ho, _CONN, _IDLE).astype(np.int8)
    seen = first_cat1 >= 0
    init[seen] = _INIT_FROM[events[first_cat1[seen]]]

    # State after each row: the last Category-1 setter's value so far
    # within the UE, else its initial state.  Every UE's first row is
    # defined, so the forward fill never crosses into another UE.
    after = setter.copy()
    lead = after[starts] < 0
    after[starts[lead]] = init[lead]
    pos = np.arange(len(events))
    pos[after < 0] = 0
    np.maximum.accumulate(pos, out=pos)

    rows = np.flatnonzero(setter < 0)
    ue = np.searchsorted(starts, rows, side="right") - 1
    states = np.where(starts[ue] == rows, init[ue], after[pos[rows - 1]])
    states[states == _DEREG] = _IDLE
    return events[rows], trace.device_types[index.order[rows]], states


def _first_at_or_after(
    positions: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per run ``[start, end)``: the first of the sorted ``positions``
    in it, or -1."""
    j = np.searchsorted(positions, starts)
    found = np.full(len(starts), -1, dtype=np.int64)
    hit = np.flatnonzero(j < len(positions))
    hit = hit[positions[j[hit]] < ends[hit]]
    found[hit] = positions[j[hit]]
    return found
