"""Semi-Markov process over a control-plane state machine (§5.2).

Following the paper's fitting specification, the model is *flat* over
the leaf states of the (possibly hierarchical) machine: for every edge
``x --e--> y`` it stores the transition probability
``p_xy = P(S_{i+1} = y | S_i = x)`` and a sojourn-time distribution
``F_xy(t) = P(T_{i+1} - T_i <= t | S_i = x, S_{i+1} = y)``.  Unlike a
Markov chain, ``F_xy`` is arbitrary — the proposed model uses empirical
CDFs, the baselines use fitted exponentials.

Generation walks the chain: on entering ``x`` draw the next edge from
``p_x.``, draw the dwell from ``F_xy``, fire the edge's event when the
timer expires.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..distributions.base import Distribution
from ..distributions.empirical import EmpiricalCDF
from ..distributions.exponential import Exponential
from ..trace.events import EventType

#: Durations are clamped below by the trace granularity so that a chain
#: with self-loops can never make zero time progress.
MIN_SOJOURN = 1e-3


@dataclasses.dataclass(frozen=True)
class Edge:
    """One outgoing transition of a state, with its fitted model."""

    event: EventType
    target: str
    probability: float
    sojourn: Distribution


@dataclasses.dataclass(frozen=True)
class StateModel:
    """All outgoing edges of one state (probabilities sum to 1)."""

    edges: Tuple[Edge, ...]
    #: Cumulative edge probabilities (last entry forced to exactly 1.0)
    #: so edge selection is a single ``searchsorted`` per step instead of
    #: rebuilding a probability list for ``rng.choice``.
    cum_probs: np.ndarray = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.edges:
            total = sum(e.probability for e in self.edges)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"edge probabilities sum to {total}, not 1")
        cum = np.cumsum([e.probability for e in self.edges])
        if cum.size:
            cum[-1] = 1.0
        object.__setattr__(self, "cum_probs", cum)

    @property
    def is_absorbing(self) -> bool:
        return not self.edges


class SemiMarkovChain:
    """A fitted semi-Markov process over named states."""

    def __init__(self, states: Mapping[str, StateModel]) -> None:
        self.states: Dict[str, StateModel] = dict(states)

    def step(
        self, state: str, rng: np.random.Generator
    ) -> Optional[Tuple[float, EventType, str]]:
        """Draw ``(dwell, event, next_state)`` from state ``state``.

        Returns ``None`` when the state is absorbing (no transitions
        were observed in the training data) — the generator then parks
        the UE there until the next hour's model takes over.
        """
        model = self.states.get(state)
        if model is None or model.is_absorbing:
            return None
        edges = model.edges
        if len(edges) == 1:
            edge = edges[0]
        else:
            idx = int(
                np.searchsorted(model.cum_probs, rng.random(), side="right")
            )
            edge = edges[min(idx, len(edges) - 1)]
        dwell = max(float(edge.sojourn.sample(rng)), MIN_SOJOURN)
        return dwell, edge.event, edge.target

    def transition_matrix(self) -> Dict[str, Dict[Tuple[EventType, str], float]]:
        """``state -> {(event, target): probability}`` for inspection."""
        return {
            state: {(e.event, e.target): e.probability for e in model.edges}
            for state, model in self.states.items()
        }

    def expected_dwell(self, state: str) -> Optional[float]:
        """Mean dwell in ``state`` under the fitted model."""
        model = self.states.get(state)
        if model is None or model.is_absorbing:
            return None
        return sum(e.probability * e.sojourn.mean() for e in model.edges)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            state: [
                {
                    "event": e.event.name,
                    "target": e.target,
                    "probability": e.probability,
                    "sojourn": _sojourn_to_dict(e.sojourn),
                }
                for e in model.edges
            ]
            for state, model in self.states.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SemiMarkovChain":
        states = {}
        for state, edges in data.items():
            states[state] = StateModel(
                edges=tuple(
                    Edge(
                        event=EventType[e["event"]],
                        target=e["target"],
                        probability=float(e["probability"]),
                        sojourn=_sojourn_from_dict(e["sojourn"]),
                    )
                    for e in edges
                )
            )
        return cls(states)


def _sojourn_to_dict(dist: Distribution) -> dict:
    if isinstance(dist, EmpiricalCDF):
        return {"family": "empirical", "quantiles": dist.to_list()}
    if isinstance(dist, Exponential):
        return {"family": "poisson", "rate": dist.rate}
    raise TypeError(f"cannot serialize sojourn family {type(dist).__name__}")


def _sojourn_from_dict(data: dict) -> Distribution:
    family = data["family"]
    if family == "empirical":
        return EmpiricalCDF.from_list(data["quantiles"])
    if family == "poisson":
        return Exponential(rate=float(data["rate"]))
    raise ValueError(f"unknown sojourn family {family!r}")
