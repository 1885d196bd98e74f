"""The object form of a fitted model, kept as a test oracle.

Before the tables became the one model representation, each (device,
hour, cluster) model was a :class:`ClusterModel`: a
:class:`SemiMarkovChain` of :class:`StateModel`/:class:`Edge` objects
with an ``EmpiricalCDF`` or ``Exponential`` sojourn per edge (§5.2), a
:class:`FirstEventModel` (§5.4) and the overlay rates.  The reference
fitter (``oracle.fit``) and generator (``oracle.generator``) still work
on these objects, and the object-walk lowering (``oracle.compile``) and
the object 5G scaling below are the exactness oracles of the tables.

* :func:`from_clusters` builds an
  :class:`~repro.model.model_set.HourModel` from objects;
* :func:`cluster_view` reads an hour's tables back as objects;
* :func:`cluster_for_ue` is the reference generator's persona lookup;
* :func:`scale_to_nsa`/:func:`scale_to_sa` scale objects as §6 does,
  then table them with :func:`from_clusters`.
"""

from __future__ import annotations

import copy
import dataclasses
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.empirical import EmpiricalCDF
from repro.distributions.exponential import Exponential
from repro.generator.compiled import MIN_SOJOURN
from repro.model.model_set import HourModel, ModelSet, state_space
from repro.model.scaling import _SA_STATE_MAP, NSA_HO_SCALE, SA_HO_SCALE
from repro.trace.events import SECONDS_PER_HOUR, EventType


# ---------------------------------------------------------------------------
# The semi-Markov chain
# ---------------------------------------------------------------------------

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
        """Draw ``(dwell, event, next_state)``; ``None`` if absorbing."""
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
        """``state -> {(event, target): probability}``."""
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

    def to_dict(self) -> dict:
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
        return cls(
            {
                state: StateModel(
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
                for state, edges in data.items()
            }
        )


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


# ---------------------------------------------------------------------------
# The first-event model
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FirstEventModel:
    """Distribution of (whether / which / when) the hour's first event."""

    p_active: float
    event_probs: Dict[EventType, float]
    offset: EmpiricalCDF

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

    @classmethod
    def fit(
        cls,
        first_events: Sequence[Tuple[EventType, float]],
        num_segments: int,
        *,
        max_cdf_points: int = 256,
    ) -> "FirstEventModel":
        """Fit from the ``(event, offset)`` pairs of active segments;
        ``num_segments`` counts silent segments too."""
        if num_segments <= 0:
            raise ValueError("num_segments must be positive")
        if len(first_events) > num_segments:
            raise ValueError("more first events than segments")
        if not first_events:
            return cls(p_active=0.0, event_probs={}, offset=EmpiricalCDF([0.0]))
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


# ---------------------------------------------------------------------------
# One cluster, and an hour of them
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ClusterModel:
    """The fitted model of one (device, hour, cluster) combination."""

    chain: SemiMarkovChain
    first_event: FirstEventModel
    overlay_rates: Dict[EventType, float]
    num_ues: int
    num_segments: int


def _offsets(lengths) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=out[1:])
    return out


def from_clusters(
    clusters: Sequence[ClusterModel],
    assignment: Mapping[int, int],
    machine_kind: str,
) -> HourModel:
    """The tables of cluster model objects; zero-probability edges are
    left out, as they can never be drawn."""
    code = state_space(machine_kind).code
    edges: List[tuple] = []  # (cluster, state, event, target, p, rate)
    sojourns: List[np.ndarray] = []
    firsts: List[tuple] = []  # (cluster, event, p)
    overlay_events = sorted({int(e) for cm in clusters for e in cm.overlay_rates})
    overlay_rates = np.zeros((len(clusters), len(overlay_events)))
    for c, cm in enumerate(clusters):
        for name in sorted(cm.chain.states, key=lambda s: code[s]):
            for edge in cm.chain.states[name].edges:
                if edge.probability == 0.0:
                    continue
                sojourn = edge.sojourn
                if isinstance(sojourn, EmpiricalCDF):
                    rate, knots = 1.0, sojourn.quantiles
                else:
                    rate, knots = sojourn.rate, np.empty(0)
                edges.append(
                    (c, code[name], int(edge.event), code[edge.target],
                     float(edge.probability), rate)
                )
                sojourns.append(knots)
        first = cm.first_event
        for event in first.event_table()[0]:
            firsts.append((c, int(event), float(first.event_probs[event])))
        for k, event in enumerate(overlay_events):
            overlay_rates[c, k] = float(cm.overlay_rates.get(EventType(event), 0.0))

    e_cl, e_st, e_ev, e_tg, e_p, e_rate = zip(*edges) if edges else ((),) * 6
    f_cl, f_ev, f_p = zip(*firsts) if firsts else ((),) * 3
    offsets = [cm.first_event.offset.quantiles for cm in clusters]
    items = sorted((int(u), int(c)) for u, c in assignment.items())
    return HourModel.from_columns(
        machine_kind,
        num_ues=[cm.num_ues for cm in clusters],
        num_segments=[cm.num_segments for cm in clusters],
        assign_keys=[u for u, _ in items],
        assign_vals=[c for _, c in items],
        edge_cluster=e_cl,
        edge_state=e_st,
        edge_event=e_ev,
        edge_target=e_tg,
        edge_prob=e_p,
        edge_rate=np.asarray(e_rate, dtype=np.float64),
        sojourn_ptr=_offsets([k.size for k in sojourns]),
        sojourn_values=np.concatenate(sojourns) if sojourns else np.empty(0),
        p_active=[cm.first_event.p_active for cm in clusters],
        fe_cluster=f_cl,
        fe_event=f_ev,
        fe_prob=f_p,
        offset_ptr=_offsets([o.size for o in offsets]),
        offset_values=np.concatenate(offsets) if offsets else np.empty(0),
        overlay_events=overlay_events,
        overlay_rates=overlay_rates,
    )


#: Views built so far, per hour model (the reference generator asks for
#: one per UE-hour).
_VIEWS: "weakref.WeakKeyDictionary[HourModel, Tuple[ClusterModel, ...]]" = (
    weakref.WeakKeyDictionary()
)


def cluster_view(hm: HourModel) -> Tuple[ClusterModel, ...]:
    """An hour's tables as cluster model objects, in cluster order: the
    states with edges in code order, edges in table order."""
    if hm in _VIEWS:
        return _VIEWS[hm]
    names = state_space(hm.machine_kind).names
    S = hm.S
    src = np.repeat(np.arange(hm.state_deg.size), hm.state_deg).tolist()
    kptr = hm.edge_knot_ptr.tolist()
    single = hm.edge_single.tolist()
    states: List[Dict[str, List[Edge]]] = [{} for _ in range(hm.num_clusters)]
    for e, (event, target, prob, kind, rate) in enumerate(
        zip(
            hm.edge_event.tolist(),
            hm.edge_target.tolist(),
            hm.edge_prob.tolist(),
            hm.edge_kind.tolist(),
            hm.edge_rate.tolist(),
        )
    ):
        if kind:
            sojourn = Exponential(rate=rate)
        else:
            hi = kptr[e] + 1 if single[e] else kptr[e + 1]
            sojourn = EmpiricalCDF(hm.knot_v[kptr[e]:hi])
        c, s = divmod(src[e], S)
        states[c].setdefault(names[s], []).append(
            Edge(EventType(event), names[target % S], prob, sojourn)
        )
    overlay_events = [EventType(int(e)) for e in hm.overlay_events]
    fe_ptr = hm.fe_ptr.tolist()
    foff_ptr = hm.foff_ptr.tolist()
    out = []
    for c in range(hm.num_clusters):
        lo, hi = fe_ptr[c], fe_ptr[c + 1]
        off_hi = foff_ptr[c] + 1 if hm.foff_single[c] else foff_ptr[c + 1]
        out.append(
            ClusterModel(
                chain=SemiMarkovChain(
                    {n: StateModel(edges=tuple(e)) for n, e in states[c].items()}
                ),
                first_event=FirstEventModel(
                    p_active=float(hm.p_active[c]),
                    event_probs={
                        EventType(int(e)): p
                        for e, p in zip(
                            hm.fe_event[lo:hi].tolist(), hm.fe_prob[lo:hi].tolist()
                        )
                    },
                    offset=EmpiricalCDF(hm.foff_v[foff_ptr[c]:off_hi]),
                ),
                overlay_rates={
                    e: float(r) for e, r in zip(overlay_events, hm.overlay_rates[c])
                },
                num_ues=int(hm.num_ues[c]),
                num_segments=int(hm.num_segments[c]),
            )
        )
    _VIEWS[hm] = view = tuple(out)
    return view


def cluster_for_ue(hm: HourModel, ue_id: int, rng: np.random.Generator) -> int:
    """Cluster of a training UE, or a weighted draw if unknown."""
    pos = int(np.searchsorted(hm.assign_keys, ue_id))
    if pos < hm.assign_keys.size and hm.assign_keys[pos] == ue_id:
        return int(hm.assign_vals[pos])
    return int(rng.choice(hm.num_clusters, p=hm.weights()))


# ---------------------------------------------------------------------------
# 5G scaling of objects (§6)
# ---------------------------------------------------------------------------

def _total(values) -> float:
    """Left-to-right sum (``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def scale_event_frequency(
    chain: SemiMarkovChain, event: EventType, factor: float
) -> SemiMarkovChain:
    """Multiply the odds of ``event``'s edges by ``factor``, renormalize,
    and divide their sojourn times by ``factor``."""
    states = {}
    for state, model in chain.states.items():
        weights = [
            e.probability * (factor if e.event == event else 1.0)
            for e in model.edges
        ]
        total = _total(weights)
        states[state] = StateModel(
            edges=tuple(
                Edge(
                    e.event,
                    e.target,
                    w / total,
                    _scale_sojourn(e.sojourn, factor) if e.event == event else e.sojourn,
                )
                for e, w in zip(model.edges, weights)
            )
        )
    return SemiMarkovChain(states)


def _scale_sojourn(dist: Distribution, factor: float) -> Distribution:
    if isinstance(dist, EmpiricalCDF):
        return EmpiricalCDF(dist.quantiles / factor)
    return Exponential(rate=dist.rate * factor)


def drop_event(chain: SemiMarkovChain, event: EventType) -> SemiMarkovChain:
    """Remove every edge labelled ``event``, renormalizing the rest."""
    return _keep_edges(chain, lambda e: e.event != event, {})


def _keep_edges(chain, keep, rename: Dict[str, str]) -> SemiMarkovChain:
    states = {}
    for state, model in chain.states.items():
        if rename and state not in rename:
            continue
        kept = [e for e in model.edges if keep(e)]
        total = _total(e.probability for e in kept)
        states[rename.get(state, state)] = StateModel(
            edges=tuple(
                Edge(e.event, rename.get(e.target, e.target), e.probability / total, e.sojourn)
                for e in kept
            )
            if total > 0
            else ()
        )
    return SemiMarkovChain(states)


def _scale_cluster(cm: ClusterModel, ho_scale: float, to_sa: bool) -> ClusterModel:
    chain = scale_event_frequency(cm.chain, EventType.HO, ho_scale)
    first = cm.first_event
    overlay = dict(cm.overlay_rates)
    if EventType.HO in overlay:
        overlay[EventType.HO] *= ho_scale
    if to_sa:
        chain = drop_event(chain, EventType.TAU)
        chain = _keep_edges(chain, lambda e: e.target in _SA_STATE_MAP, _SA_STATE_MAP)
        probs = {e: p for e, p in first.event_probs.items() if e != EventType.TAU}
        total = _total(probs.values())
        if total <= 0:
            first = FirstEventModel(p_active=0.0, event_probs={}, offset=first.offset)
        else:
            first = FirstEventModel(
                p_active=first.p_active * (1.0 - (1.0 - total)),
                event_probs={e: p / total for e, p in probs.items()},
                offset=first.offset,
            )
        overlay.pop(EventType.TAU, None)
    return ClusterModel(chain, first, overlay, cm.num_ues, cm.num_segments)


def _scale(model_set: ModelSet, ho_scale: float, to_sa: bool) -> ModelSet:
    machine_kind = "nr_sa" if to_sa else "two_level"
    return ModelSet(
        machine_kind=machine_kind,
        family=model_set.family,
        clustered=model_set.clustered,
        models={
            dt: {
                hour: from_clusters(
                    [_scale_cluster(cm, ho_scale, to_sa) for cm in cluster_view(hm)],
                    hm.assignment,
                    machine_kind,
                )
                for hour, hm in hours.items()
            }
            for dt, hours in model_set.models.items()
        },
        device_ues=copy.deepcopy(model_set.device_ues),
        theta_f=model_set.theta_f,
        theta_n=model_set.theta_n,
    )


def scale_to_nsa(model_set: ModelSet, ho_scale: float = NSA_HO_SCALE) -> ModelSet:
    """The object path of :func:`repro.model.scale_to_nsa`."""
    return _scale(model_set, ho_scale, to_sa=False)


def scale_to_sa(model_set: ModelSet, ho_scale: float = SA_HO_SCALE) -> ModelSet:
    """The object path of :func:`repro.model.scale_to_sa`."""
    return _scale(model_set, ho_scale, to_sa=True)
