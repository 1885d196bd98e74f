"""The start-event model (§5.4).

For each (UE-cluster, hour, device-type) the paper records, over all
(UE, day) one-hour segments, which event type opens the hour and when.
The generator samples from this model to place each UE's first event;
UEs whose segment was silent are captured by ``p_active`` so the
synthesized population reproduces the real fraction of idle UEs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..distributions.empirical import EmpiricalCDF
from ..trace.events import SECONDS_PER_HOUR, EventType


@dataclasses.dataclass(frozen=True)
class FirstEventModel:
    """Distribution of (whether / which / when) the hour's first event."""

    p_active: float                         #: P(UE emits >= 1 event this hour)
    event_probs: Dict[EventType, float]     #: first-event type distribution
    offset: EmpiricalCDF                    #: first-event time within the hour

    #: Cached (event, cumulative-probability) table so sampling is a
    #: single ``searchsorted`` and the generation engine can lower the
    #: model without re-sorting dicts.
    _events: Tuple[EventType, ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )
    _cum_probs: np.ndarray = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_active <= 1.0:
            raise ValueError(f"p_active must be in [0, 1], got {self.p_active}")
        if self.event_probs:
            total = sum(self.event_probs.values())
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"event probabilities sum to {total}")
        events = tuple(sorted(self.event_probs, key=int))
        cum = np.cumsum([self.event_probs[e] for e in events])
        if cum.size:
            cum[-1] = 1.0
        object.__setattr__(self, "_events", events)
        object.__setattr__(self, "_cum_probs", cum)

    def event_table(self) -> Tuple[Tuple[EventType, ...], np.ndarray]:
        """``(events, cumulative probabilities)`` in event-code order."""
        return self._events, self._cum_probs

    def sample(
        self, rng: np.random.Generator
    ) -> Optional[Tuple[EventType, float]]:
        """Draw ``(first event, offset seconds)``; ``None`` = silent hour."""
        if not self.event_probs or rng.random() >= self.p_active:
            return None
        idx = int(np.searchsorted(self._cum_probs, rng.random(), side="right"))
        event = self._events[min(idx, len(self._events) - 1)]
        offset = float(self.offset.sample(rng))
        return event, min(max(offset, 0.0), SECONDS_PER_HOUR - 1e-3)

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        first_events: Sequence[Tuple[EventType, float]],
        num_segments: int,
        *,
        max_cdf_points: int = 256,
    ) -> "FirstEventModel":
        """Fit from observed ``(event, offset)`` pairs of active segments.

        ``num_segments`` counts all (UE, day) segments, silent ones
        included, so ``p_active`` reflects the real silence rate.
        """
        if num_segments <= 0:
            raise ValueError("num_segments must be positive")
        if len(first_events) > num_segments:
            raise ValueError("more first events than segments")
        if not first_events:
            return cls(
                p_active=0.0,
                event_probs={},
                offset=EmpiricalCDF([0.0]),
            )
        counts: Dict[EventType, int] = {}
        offsets = []
        for event, offset in first_events:
            counts[event] = counts.get(event, 0) + 1
            offsets.append(offset)
        total = len(first_events)
        return cls(
            p_active=total / num_segments,
            event_probs={e: c / total for e, c in counts.items()},
            offset=EmpiricalCDF.fit(offsets, max_points=max_cdf_points),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "p_active": self.p_active,
            "event_probs": {e.name: p for e, p in self.event_probs.items()},
            "offset": self.offset.to_list(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FirstEventModel":
        return cls(
            p_active=float(data["p_active"]),
            event_probs={
                EventType[name]: float(p)
                for name, p in data["event_probs"].items()
            },
            offset=EmpiricalCDF.from_list(data["offset"]),
        )
