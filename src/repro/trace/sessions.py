"""Session-level trace analytics.

A *session* (connection episode) is one CONNECTED visit: it opens with
``ATCH`` or ``SRV_REQ`` and closes with ``S1_CONN_REL`` or ``DTCH``.
Sessions are the unit operators reason about ("signaling storms" are
bursts of short sessions), and several derived statistics — session
duration, events per session, inter-session gaps — summarize a trace at
a level between per-event and per-UE.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional

import numpy as np

from .events import DeviceType, EventType
from .trace import Trace

_OPENERS = frozenset({EventType.ATCH, EventType.SRV_REQ})
_CLOSERS = frozenset({EventType.S1_CONN_REL, EventType.DTCH})


@dataclasses.dataclass(frozen=True)
class Session:
    """One complete CONNECTED episode of a UE."""

    ue_id: int
    start: float                 #: opener timestamp
    end: float                   #: closer timestamp
    opener: EventType
    closer: EventType
    handovers: int               #: HO events inside the session
    tracking_updates: int        #: TAU events inside the session

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def num_events(self) -> int:
        """All events of the episode, endpoints included."""
        return 2 + self.handovers + self.tracking_updates


def iter_sessions(trace: Trace) -> Iterator[Session]:
    """Yield complete sessions of every UE, in UE order then time order.

    Events before the first opener, and an unclosed trailing session,
    are skipped — only complete episodes are reported.  In IDLE, TAU
    signaling exchanges (TAU followed by its S1 release) are *not*
    sessions and are ignored here: a session must open with an opener.
    """
    for ue, sub in trace.per_ue():
        start: Optional[float] = None
        opener: Optional[EventType] = None
        handovers = 0
        tracking_updates = 0
        for i in range(len(sub)):
            event = EventType(int(sub.event_types[i]))
            t = float(sub.times[i])
            if start is None:
                if event in _OPENERS:
                    start, opener = t, event
                    handovers = tracking_updates = 0
                continue
            if event in _CLOSERS:
                yield Session(
                    ue_id=ue,
                    start=start,
                    end=t,
                    opener=opener,
                    closer=event,
                    handovers=handovers,
                    tracking_updates=tracking_updates,
                )
                start = opener = None
            elif event == EventType.HO:
                handovers += 1
            elif event == EventType.TAU:
                tracking_updates += 1
            elif event in _OPENERS:
                # Re-opening without a close (protocol-invalid input,
                # e.g. a baseline-synthesized trace): restart the episode.
                start, opener = t, event
                handovers = tracking_updates = 0


def extract_sessions(
    trace: Trace, device_type: Optional[DeviceType] = None
) -> List[Session]:
    """All complete sessions, optionally restricted to one device type."""
    sub = trace if device_type is None else trace.filter_device(device_type)
    return list(iter_sessions(sub))


@dataclasses.dataclass(frozen=True)
class SessionStats:
    """Aggregate session statistics of a trace."""

    num_sessions: int
    mean_duration: float
    median_duration: float
    p95_duration: float
    mean_events: float
    mean_handovers: float
    sessions_per_ue: float
    mean_intersession_gap: float  #: NaN when no UE has 2+ sessions

    @classmethod
    def empty(cls) -> "SessionStats":
        nan = float("nan")
        return cls(0, nan, nan, nan, nan, nan, 0.0, nan)


def session_stats(
    trace: Trace, device_type: Optional[DeviceType] = None
) -> SessionStats:
    """Summarize the sessions of a trace."""
    sub = trace if device_type is None else trace.filter_device(device_type)
    sessions = extract_sessions(sub)
    if not sessions:
        return SessionStats.empty()
    durations = np.asarray([s.duration for s in sessions])
    events = np.asarray([s.num_events for s in sessions], dtype=float)
    handovers = np.asarray([s.handovers for s in sessions], dtype=float)

    # Sessions arrive grouped by UE, so a gap is two neighbours of one UE.
    gaps = [
        nxt.start - prev.end
        for prev, nxt in zip(sessions, sessions[1:])
        if prev.ue_id == nxt.ue_id
    ]

    num_ues = max(sub.num_ues, 1)
    return SessionStats(
        num_sessions=len(sessions),
        mean_duration=float(durations.mean()),
        median_duration=float(np.median(durations)),
        p95_duration=float(np.percentile(durations, 95.0)),
        mean_events=float(events.mean()),
        mean_handovers=float(handovers.mean()),
        sessions_per_ue=len(sessions) / num_ues,
        mean_intersession_gap=float(np.mean(gaps)) if gaps else float("nan"),
    )
