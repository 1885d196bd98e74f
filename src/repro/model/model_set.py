"""Containers for fitted models and their persistence.

A :class:`ModelSet` holds one :class:`HourModel` per (device type,
hour-of-day).  An hour model stores all of its (device, hour, cluster)
models — the paper instantiates 20,216 of these for its carrier trace —
as the flat tables the generator steps, plus the cluster assignment of
every training UE, which the generator uses to give each synthetic UE a
coherent "persona" across hours (§7: per-UE generators are distributed
over clusters "according to the distribution of the UEs in the modeled
trace").

The tables are the one representation of a fitted model.  The fitter
writes them directly; :attr:`HourModel.clusters` is a read-only view of
them as :class:`ClusterModel` objects (semi-Markov chain, sojourn CDFs,
first-event model) for inspection, 5G scaling, auditing and
persistence; :meth:`HourModel.from_clusters` builds tables from such
objects (a loaded JSON file, a scaled model).
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import hashlib
import json
import os
import types
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..distributions.empirical import EmpiricalCDF
from ..distributions.exponential import Exponential
from ..statemachines.compiled_replay import table_for
from ..statemachines.fsm import StateMachine
from ..statemachines.lte import emm_ecm_machine, two_level_machine
from ..statemachines.nr import nr_sa_machine
from ..trace.events import DeviceType, EventType
from .first_event import FirstEventModel
from .grouped import group_starts, grouped_cumsum
from .semi_markov import Edge, SemiMarkovChain, StateModel

PathLike = Union[str, "os.PathLike[str]"]

#: Tolerance on a probability row summing to one.
_PROB_TOL = 1e-6


def build_machine(machine_kind: str) -> StateMachine:
    """Instantiate the state machine for a model-set kind."""
    if machine_kind == "two_level":
        return two_level_machine()
    if machine_kind == "emm_ecm":
        return emm_ecm_machine()
    if machine_kind == "nr_sa":
        return nr_sa_machine()
    raise ValueError(f"unknown machine_kind {machine_kind!r}")


@dataclasses.dataclass(frozen=True)
class StateSpace:
    """A machine's state codes: its sorted state names, in code order."""

    names: Tuple[str, ...]
    code: Mapping[str, int]
    #: Per event code, the state a first event of that type enters (the
    #: target from the machine's canonical source), or -1 if none.
    canonical_next: np.ndarray


@functools.lru_cache(maxsize=None)
def state_space(machine_kind: str) -> StateSpace:
    """The (memoized) state codes of a model-set kind's machine."""
    table = table_for(build_machine(machine_kind))
    canonical_next = table.fallback_next.astype(np.int32)
    canonical_next.flags.writeable = False  # shared by every caller
    return StateSpace(
        names=table.names,
        code=types.MappingProxyType(
            {name: i for i, name in enumerate(table.names)}
        ),
        canonical_next=canonical_next,
    )


@dataclasses.dataclass
class ClusterModel:
    """The fitted model of one (device, hour, cluster) combination."""

    chain: SemiMarkovChain
    first_event: FirstEventModel
    overlay_rates: Dict[EventType, float]  #: per-UE rates for HO/TAU overlays
    num_ues: int
    num_segments: int

    def to_dict(self) -> dict:
        return {
            "chain": self.chain.to_dict(),
            "first_event": self.first_event.to_dict(),
            "overlay_rates": {e.name: r for e, r in self.overlay_rates.items()},
            "num_ues": self.num_ues,
            "num_segments": self.num_segments,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterModel":
        parts = {}
        for field, parse in (
            ("chain", SemiMarkovChain.from_dict),
            ("first_event", FirstEventModel.from_dict),
            ("overlay_rates", _overlay_from_dict),
        ):
            try:
                parts[field] = parse(data[field])
            except ValueError as exc:
                raise ValueError(f"{field}: {exc}") from None
        return cls(
            num_ues=int(data["num_ues"]),
            num_segments=int(data["num_segments"]),
            **parts,
        )


def _overlay_from_dict(data: dict) -> Dict[EventType, float]:
    return {EventType[name]: float(r) for name, r in data.items()}


#: The columns of an :class:`HourModel`.  With ``C`` clusters and ``S``
#: machine states, cluster ``c``'s state ``s`` has merged code
#: ``c * S + s``; edges are laid out CSR-style by merged source code and,
#: within a state, in the chain's edge order (event-code order when
#: fitted).  The generator steps the first block; the second holds what
#: the :attr:`HourModel.clusters` view needs beyond it.
GENERATOR_COLUMNS = (
    "state_deg",      #: (C*S,) out-degree per merged state (0 = absorbing)
    "sel_key",        #: (E,) merged source code + cumulative probability
    "edge_event",     #: (E,) int16 event code
    "edge_target",    #: (E,) merged target code
    "edge_kind",      #: (E,) int8: 0 empirical sojourn, 1 exponential
    "edge_rate",      #: (E,) exponential rate (1.0 on empirical edges)
    "edge_knot_ptr",  #: (E+1,) knot slice of every edge
    "knot_key",       #: edge index + knot probability (searchsorted key)
    "knot_p",         #: inverse-CDF knot probabilities
    "knot_v",         #: inverse-CDF knot values (sorted per edge)
    "p_active",       #: (C,) P(first event this hour), 0 with no events
    "fe_key",         #: cluster + cumulative first-event probability
    "fe_event",       #: int16 first-event type, event-code order
    "fe_state",       #: int32 state a first event enters
    "foff_key",       #: cluster + first-offset knot probability
    "foff_ptr",       #: (C+1,) first-offset knot slice of every cluster
    "foff_p",         #: first-offset knot probabilities
    "foff_v",         #: first-offset knot values
    "overlay_events", #: (K,) overlay event codes, ascending
    "overlay_rates",  #: (C, K) per-UE overlay Poisson rates
    "assign_keys",    #: sorted training UE ids
    "assign_vals",    #: int32 cluster of each training UE
    "weights_cum",    #: (C,) cumulative UE share, last forced to 1.0
)
VIEW_COLUMNS = (
    "edge_prob",      #: (E,) transition probability
    "edge_single",    #: (E,) one-sample CDF, padded to two equal knots
    "fe_ptr",         #: (C+1,) first-event slice of every cluster
    "fe_prob",        #: first-event type probability
    "foff_single",    #: (C,) one-sample offset CDF, padded likewise
    "num_ues",        #: (C,) training UEs per cluster
    "num_segments",   #: (C,) (UE, day) segments per cluster
)


def _offsets(lengths) -> np.ndarray:
    """Slice pointers ``[0, cumsum(lengths)...]`` of consecutive runs."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=out[1:])
    return out


def _weights(num_ues: np.ndarray) -> np.ndarray:
    """UE-count share of each cluster (uniform if no cluster has UEs)."""
    counts = np.maximum(num_ues, 0).astype(float)
    total = counts.sum()
    if total <= 0:
        return np.full(counts.size, 1.0 / max(counts.size, 1))
    return counts / total


def _probability(value: float, where: str) -> float:
    """``value`` as a float, rejected unless finite and non-negative."""
    prob = float(value)
    if not (np.isfinite(prob) and prob >= 0.0):
        raise ValueError(f"{where} has probability {prob}")
    return prob


def _padded(
    ptr: np.ndarray, values: np.ndarray, owner_base: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Inverse-CDF knots of consecutive sorted-sample slices.

    Slice ``i`` (``values[ptr[i]:ptr[i+1]]``, ``n`` samples) gets knot
    probabilities ``(j + 0.5) / n`` — ``EmpiricalCDF.ppf``'s plotting
    positions.  A one-sample slice becomes two equal knots at 0.25 and
    0.75, which interpolate to the same constant, so the generator may
    assume every non-empty slice has an interior.  Returns ``(knot_ptr,
    key, p, v, single)`` with ``key = (i - owner_base[i]) + p`` plus
    ``owner_base[i]``, in that order of additions.
    """
    n = np.diff(ptr)
    single = n == 1
    size = np.where(single, 2, n)
    knot_ptr = _offsets(size)
    owner = np.repeat(np.arange(n.size), size)
    j = np.arange(knot_ptr[-1]) - knot_ptr[:-1][owner]
    p = (j + 0.5) / n[owner]
    one = single[owner]
    p[one] = np.where(j[one] == 0, 0.25, 0.75)
    v = values[ptr[:-1][owner] + np.where(one, 0, j)]
    base = owner_base[owner]
    key = ((owner - base) + p) + base
    return knot_ptr, key, p, v, single


class HourModel:
    """All cluster models of one (device, hour), as flat tables.

    The attributes named in :data:`GENERATOR_COLUMNS` and
    :data:`VIEW_COLUMNS` are NumPy arrays; build them with
    :meth:`from_columns` (the fitter) or :meth:`from_clusters` (model
    objects).  ``clusters`` is an object view built on first use, and
    ``assignment`` a dict built per call.
    """

    def __init__(
        self, machine_kind: str, columns: Mapping[str, np.ndarray]
    ) -> None:
        self.machine_kind = machine_kind
        self.__dict__.update(columns)
        self.S = len(state_space(machine_kind).names)
        self.num_clusters = int(self.num_ues.size)
        self.has_exp = bool((self.edge_kind == 1).any())
        self.overlay_clusters = np.flatnonzero(
            (self.overlay_rates > 0).any(axis=1)
        ).tolist()
        self._clusters: Optional[Tuple[ClusterModel, ...]] = None
        self._clusters_given = False
        self._scalar: Optional[tuple] = None

    def __getstate__(self) -> dict:
        # Views derived from the tables are rebuilt on demand; clusters
        # handed to ``from_clusters`` are kept, since they may hold what
        # the tables drop (state order, empty states, zero-probability
        # edges) and serialization reads them.
        state = dict(self.__dict__)
        state["_scalar"] = None
        if not self._clusters_given:
            state["_clusters"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        machine_kind: str,
        *,
        num_ues,
        num_segments,
        assign_keys,
        assign_vals,
        edge_cluster,
        edge_state,
        edge_event,
        edge_target,
        edge_prob,
        edge_rate,
        sojourn_ptr,
        sojourn_values,
        p_active,
        fe_cluster,
        fe_event,
        fe_prob,
        offset_ptr,
        offset_values,
        overlay_events,
        overlay_rates,
    ) -> "HourModel":
        """Assemble the tables from per-edge and per-cluster columns.

        Edges come sorted by (cluster, state code), each with its source
        ``edge_state`` and ``edge_target`` as machine state codes; edge
        ``i``'s sojourn is the sorted sample slice
        ``sojourn_values[sojourn_ptr[i]:sojourn_ptr[i+1]]``, or, when that
        slice is empty, exponential at ``edge_rate[i]``.  First events
        come sorted by (cluster, event code); every cluster has a
        non-empty offset slice in ``offset_values``.
        """
        space = state_space(machine_kind)
        S = len(space.names)
        num_ues = np.asarray(num_ues, dtype=np.int64)
        C = num_ues.size
        edge_cluster = np.asarray(edge_cluster, dtype=np.int64)
        edge_state = np.asarray(edge_state, dtype=np.int64)
        edge_prob = np.asarray(edge_prob, dtype=np.float64)
        base = edge_cluster * S
        src = base + edge_state
        starts = group_starts(src)
        cum = grouped_cumsum(edge_prob, starts)
        if cum.size:
            cum[np.append(starts[1:], cum.size) - 1] = 1.0
        edge_kind = (np.diff(sojourn_ptr) == 0).astype(np.int8)
        knot_ptr, knot_key, knot_p, knot_v, edge_single = _padded(
            np.asarray(sojourn_ptr, dtype=np.int64),
            np.asarray(sojourn_values, dtype=np.float64),
            _offsets(np.bincount(edge_cluster, minlength=C))[edge_cluster],
        )

        fe_cluster = np.asarray(fe_cluster, dtype=np.int64)
        fe_event = np.asarray(fe_event, dtype=np.int16)
        fe_state = space.canonical_next[fe_event]
        if (fe_state < 0).any():
            c = int(fe_cluster[fe_state < 0][0])
            bad = sorted({EventType(int(e)).name for e in fe_event[fe_state < 0]})
            raise ValueError(
                f"c{c}: fe_event: first-event types {bad} have no canonical "
                f"source state in {machine_kind}"
            )
        fe_ptr = _offsets(np.bincount(fe_cluster, minlength=C))
        has_fe = np.diff(fe_ptr) > 0
        fe_cum = grouped_cumsum(fe_prob, fe_ptr[:-1][has_fe])
        fe_cum[fe_ptr[1:][has_fe] - 1] = 1.0
        foff_ptr, foff_key, foff_p, foff_v, foff_single = _padded(
            np.asarray(offset_ptr, dtype=np.int64),
            np.asarray(offset_values, dtype=np.float64),
            np.zeros(C, dtype=np.int64),
        )

        weights_cum = np.cumsum(_weights(num_ues))
        if weights_cum.size:
            weights_cum[-1] = 1.0

        return cls(
            machine_kind,
            {
                "state_deg": np.bincount(src, minlength=C * S).astype(np.int64),
                "sel_key": (edge_state + cum) + base,
                "edge_event": np.asarray(edge_event, dtype=np.int16),
                "edge_target": np.asarray(edge_target, dtype=np.int64) + base,
                "edge_kind": edge_kind,
                "edge_rate": np.where(edge_kind == 1, edge_rate, 1.0),
                "edge_knot_ptr": knot_ptr,
                "knot_key": knot_key,
                "knot_p": knot_p,
                "knot_v": knot_v,
                "p_active": np.where(has_fe, p_active, 0.0),
                "fe_key": fe_cluster + fe_cum,
                "fe_event": fe_event,
                "fe_state": fe_state,
                "foff_key": foff_key,
                "foff_ptr": foff_ptr,
                "foff_p": foff_p,
                "foff_v": foff_v,
                "overlay_events": np.asarray(overlay_events, dtype=np.int64),
                "overlay_rates": np.asarray(overlay_rates, dtype=np.float64),
                "assign_keys": np.asarray(assign_keys, dtype=np.int64),
                "assign_vals": np.asarray(assign_vals, dtype=np.int32),
                "weights_cum": weights_cum,
                "edge_prob": edge_prob,
                "edge_single": edge_single,
                "fe_ptr": fe_ptr,
                "fe_prob": np.asarray(fe_prob, dtype=np.float64),
                "foff_single": foff_single,
                "num_ues": num_ues,
                "num_segments": np.asarray(num_segments, dtype=np.int64),
            },
        )

    @classmethod
    def from_clusters(
        cls,
        clusters: Sequence[ClusterModel],
        assignment: Mapping[int, int],
        machine_kind: str,
    ) -> "HourModel":
        """Build the tables of cluster model objects.

        Zero-probability edges are left out of the tables, as they can
        never be drawn.  Raises :class:`ValueError` naming the cluster
        and field for what cannot be tabled: a state or target outside
        the machine, a negative or non-finite probability, a sojourn
        family other than empirical or exponential, or a first event no
        state of the machine can emit.
        """
        code = state_space(machine_kind).code
        edges: List[tuple] = []  # (cluster, state, event, target, p, rate)
        sojourns: List[np.ndarray] = []
        firsts: List[tuple] = []  # (cluster, event, p)
        overlay_events = sorted({int(e) for cm in clusters for e in cm.overlay_rates})
        overlay_rates = np.zeros((len(clusters), len(overlay_events)))
        for c, cm in enumerate(clusters):
            for name in sorted(cm.chain.states, key=lambda s: code.get(s, -1)):
                if name not in code:
                    raise ValueError(f"c{c}: chain: state {name!r} unknown to {machine_kind}")
                for edge in cm.chain.states[name].edges:
                    prob = _probability(edge.probability, f"c{c}: edge_prob: {name} --{edge.event.name}-->")
                    if prob == 0.0:
                        continue
                    if edge.target not in code:
                        raise ValueError(
                            f"c{c}: chain: target {edge.target!r} unknown to {machine_kind}"
                        )
                    sojourn = edge.sojourn
                    if isinstance(sojourn, EmpiricalCDF):
                        rate, knots = 1.0, sojourn.quantiles
                    elif isinstance(sojourn, Exponential):
                        rate, knots = sojourn.rate, np.empty(0)
                    else:
                        raise ValueError(
                            f"c{c}: chain: sojourn family {type(sojourn).__name__} "
                            "cannot be tabled"
                        )
                    edges.append(
                        (c, code[name], int(edge.event), code[edge.target], prob, rate)
                    )
                    sojourns.append(knots)
            first = cm.first_event
            for event in first.event_table()[0]:
                prob = _probability(
                    first.event_probs[event], f"c{c}: fe_prob: first event {event.name}"
                )
                firsts.append((c, int(event), prob))
            for k, event in enumerate(overlay_events):
                overlay_rates[c, k] = float(cm.overlay_rates.get(EventType(event), 0.0))

        e_cl, e_st, e_ev, e_tg, e_p, e_rate = zip(*edges) if edges else ((),) * 6
        f_cl, f_ev, f_p = zip(*firsts) if firsts else ((),) * 3
        offsets = [cm.first_event.offset.quantiles for cm in clusters]
        items = sorted((int(u), int(c)) for u, c in assignment.items())
        hm = cls.from_columns(
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
        hm._clusters = tuple(clusters)
        hm._clusters_given = True
        return hm

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> Tuple[ClusterModel, ...]:
        """The cluster models as objects, in cluster order (read-only:
        changing them does not change the tables)."""
        if self._clusters is None:
            self._clusters = self._cluster_view()
        return self._clusters

    @property
    def assignment(self) -> Dict[int, int]:
        """Training UE id -> cluster index."""
        return dict(zip(self.assign_keys.tolist(), self.assign_vals.tolist()))

    def _cluster_view(self) -> Tuple[ClusterModel, ...]:
        names = state_space(self.machine_kind).names
        S = self.S
        src = np.repeat(np.arange(self.state_deg.size), self.state_deg).tolist()
        event = self.edge_event.tolist()
        target = self.edge_target.tolist()
        prob = self.edge_prob.tolist()
        kind = self.edge_kind.tolist()
        rate = self.edge_rate.tolist()
        kptr = self.edge_knot_ptr.tolist()
        single = self.edge_single.tolist()
        states: List[Dict[str, List[Edge]]] = [{} for _ in range(self.num_clusters)]
        for e in range(len(event)):
            if kind[e]:
                sojourn = Exponential(rate=rate[e])
            else:
                hi = kptr[e] + 1 if single[e] else kptr[e + 1]
                sojourn = EmpiricalCDF(self.knot_v[kptr[e]:hi])
            c, s = divmod(src[e], S)
            states[c].setdefault(names[s], []).append(
                Edge(EventType(event[e]), names[target[e] % S], prob[e], sojourn)
            )
        overlay_events = [EventType(int(e)) for e in self.overlay_events]
        fe_ptr = self.fe_ptr.tolist()
        foff_ptr = self.foff_ptr.tolist()
        out = []
        for c in range(self.num_clusters):
            lo, hi = fe_ptr[c], fe_ptr[c + 1]
            off_hi = foff_ptr[c] + 1 if self.foff_single[c] else foff_ptr[c + 1]
            first = FirstEventModel(
                p_active=float(self.p_active[c]),
                event_probs={
                    EventType(int(e)): p
                    for e, p in zip(
                        self.fe_event[lo:hi].tolist(), self.fe_prob[lo:hi].tolist()
                    )
                },
                offset=EmpiricalCDF(self.foff_v[foff_ptr[c]:off_hi]),
            )
            out.append(
                ClusterModel(
                    chain=SemiMarkovChain(
                        {
                            name: StateModel(edges=tuple(edges))
                            for name, edges in states[c].items()
                        }
                    ),
                    first_event=first,
                    overlay_rates={
                        e: float(r)
                        for e, r in zip(overlay_events, self.overlay_rates[c])
                    },
                    num_ues=int(self.num_ues[c]),
                    num_segments=int(self.num_segments[c]),
                )
            )
        return tuple(out)

    def scalar_tables(self) -> tuple:
        """The edge and knot columns as Python lists, for scalar stepping.

        Built on first use; ``bisect`` on a list plus plain float
        arithmetic is several times faster per element than NumPy calls
        on singleton arrays.
        """
        if self._scalar is None:
            self._scalar = (
                self.sel_key.tolist(),
                self.state_deg.tolist(),
                self.edge_event.tolist(),
                self.edge_target.tolist(),
                self.edge_kind.tolist(),
                self.edge_rate.tolist(),
                self.edge_knot_ptr.tolist(),
                self.knot_key.tolist(),
                self.knot_p.tolist(),
                self.knot_v.tolist(),
                self.has_exp,
            )
        return self._scalar

    # ------------------------------------------------------------------
    def weights(self) -> np.ndarray:
        """UE-count share of each cluster."""
        return _weights(self.num_ues)

    def cluster_for_ue(
        self, ue_id: int, rng: np.random.Generator
    ) -> int:
        """Cluster of a training UE, or a weighted draw if unknown."""
        pos = int(np.searchsorted(self.assign_keys, ue_id))
        if pos < self.assign_keys.size and self.assign_keys[pos] == ue_id:
            return int(self.assign_vals[pos])
        return int(rng.choice(self.num_clusters, p=self.weights()))

    def problems(self) -> List[str]:
        """The array checks of :meth:`ModelSet.from_dict`, each problem as
        ``"c<cluster>: <field>: <what>"`` (first offending cluster)."""
        C, S = self.num_clusters, self.S
        for field, ptr, size in (
            ("edge_knot_ptr", self.edge_knot_ptr, self.knot_v.size),
            ("foff_ptr", self.foff_ptr, self.foff_v.size),
            ("fe_ptr", self.fe_ptr, self.fe_event.size),
        ):
            if ptr[0] != 0 or ptr[-1] != size or (np.diff(ptr) < 0).any():
                return [f"c0: {field}: pointers not monotone within [0, {size}]"]
        found: List[str] = []

        def flag(bad, cluster, field, what):
            hit = np.flatnonzero(bad)
            if hit.size:
                found.append(f"c{int(cluster[hit[0]])}: {field}: {what}")

        def not_finite(x, positive=False):
            return ~(np.isfinite(x) & ((x > 0) if positive else (x >= 0)))

        cl = np.arange(C)
        state_c = np.arange(C * S) // S
        edge_c = np.repeat(state_c, self.state_deg)
        fe_c = np.repeat(cl, np.diff(self.fe_ptr))
        state_sum = np.bincount(
            np.repeat(np.arange(C * S), self.state_deg),
            weights=self.edge_prob, minlength=C * S,
        )
        fe_sum = np.bincount(fe_c, weights=self.fe_prob, minlength=C)
        flag((self.edge_target < 0) | (self.edge_target >= C * S), edge_c,
             "edge_target", "code out of range")
        flag(not_finite(self.edge_prob), edge_c, "edge_prob",
             "probability negative or not finite")
        flag((self.state_deg > 0) & ~(np.abs(state_sum - 1.0) <= _PROB_TOL),
             state_c, "edge_prob", "a state's probabilities do not sum to 1")
        flag(not_finite(self.fe_prob), fe_c, "fe_prob",
             "probability negative or not finite")
        flag((np.diff(self.fe_ptr) > 0) & ~(np.abs(fe_sum - 1.0) <= _PROB_TOL),
             cl, "fe_prob", "probabilities do not sum to 1")
        for field, values, ptr, owner in (
            ("knot_v", self.knot_v, self.edge_knot_ptr, edge_c),
            ("foff_v", self.foff_v, self.foff_ptr, cl),
        ):
            slice_of = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
            owner = owner[slice_of]
            flag(not_finite(values), owner, field, "knot negative or not finite")
            same_slice = slice_of[1:] == slice_of[:-1]
            flag(same_slice & (np.diff(values) < 0), owner[1:], field,
                 "knots not sorted")
        flag(not_finite(self.edge_rate, positive=True), edge_c, "edge_rate",
             "rate not finite and positive")
        flag(not_finite(self.overlay_rates).any(axis=1), cl, "overlay_rates",
             "rate negative or not finite")
        flag(~((self.p_active >= 0) & (self.p_active <= 1)), cl, "p_active",
             "outside [0, 1]")
        flag((self.assign_vals < 0) | (self.assign_vals >= C), self.assign_vals,
             "assign_vals", f"cluster id out of range for {C} clusters")
        return found

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "clusters": [c.to_dict() for c in self.clusters],
            "assignment": {
                str(ue): cid
                for ue, cid in zip(
                    self.assign_keys.tolist(), self.assign_vals.tolist()
                )
            },
        }

    @classmethod
    def from_dict(cls, data: dict, machine_kind: str) -> "HourModel":
        clusters = []
        for c, cluster in enumerate(data["clusters"]):
            try:
                clusters.append(ClusterModel.from_dict(cluster))
            except ValueError as exc:
                raise ValueError(f"c{c}: {exc}") from None
        return cls.from_clusters(
            clusters,
            {int(ue): int(cid) for ue, cid in data["assignment"].items()},
            machine_kind,
        )


@dataclasses.dataclass
class ModelSet:
    """The complete fitted traffic model (every device, hour, cluster)."""

    machine_kind: str                    #: "two_level" | "emm_ecm" | "nr_sa"
    family: str                          #: "empirical" | "poisson"
    clustered: bool
    models: Dict[DeviceType, Dict[int, HourModel]]
    device_ues: Dict[DeviceType, List[int]]  #: training UEs per device
    theta_f: float
    theta_n: int

    # ------------------------------------------------------------------
    @property
    def num_models(self) -> int:
        """Total number of (device, hour, cluster) models."""
        return sum(
            hm.num_clusters
            for hours in self.models.values()
            for hm in hours.values()
        )

    @property
    def device_types(self) -> List[DeviceType]:
        return sorted(self.models, key=int)

    def hours(self, device_type: DeviceType) -> List[int]:
        """Hours-of-day with a fitted model for ``device_type``."""
        return sorted(self.models[device_type])

    def hour_model(self, device_type: DeviceType, hour: int) -> Optional[HourModel]:
        """The models of one hour-of-day, or ``None`` if not fitted."""
        return self.models.get(device_type, {}).get(hour % 24)

    def machine(self) -> StateMachine:
        return build_machine(self.machine_kind)

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON serialization of this model set.

        Generation checkpoints (:mod:`repro.generator.checkpoint`) embed
        this hash so a resumed run can prove it is using byte-identical
        model content — resuming against a different (or re-fitted)
        model set would silently break the bit-identity guarantee.
        Memoized per instance; mutating a model set after hashing it is
        not supported.
        """
        cached = getattr(self, "_content_hash_cache", None)
        if cached is None:
            payload = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self._content_hash_cache = cached
        return cached

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "repro-model-set-v1",
            "machine_kind": self.machine_kind,
            "family": self.family,
            "clustered": self.clustered,
            "theta_f": self.theta_f,
            "theta_n": self.theta_n,
            "models": {
                dt.name: {str(h): hm.to_dict() for h, hm in hours.items()}
                for dt, hours in self.models.items()
            },
            "device_ues": {
                dt.name: list(ues) for dt, ues in self.device_ues.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSet":
        """Build a model set from :meth:`to_dict` output, checked.

        Raises :class:`ValueError` naming the device, hour, cluster and
        field of the first problem found while building each hour's
        tables, then of every problem the array checks and
        :func:`repro.model.checks.validate_model_set` report.
        """
        from .checks import validate_model_set

        if data.get("format") != "repro-model-set-v1":
            raise ValueError(f"unknown model-set format {data.get('format')!r}")
        machine_kind = data["machine_kind"]
        build_machine(machine_kind)
        models: Dict[DeviceType, Dict[int, HourModel]] = {}
        problems: List[str] = []
        for name, hours in data["models"].items():
            for h, hm in hours.items():
                where = f"{name}/h{h}"
                try:
                    hour_model = HourModel.from_dict(hm, machine_kind)
                except ValueError as exc:
                    raise ValueError(f"{where}/{exc}") from None
                problems += [f"{where}/{p}" for p in hour_model.problems()]
                models.setdefault(DeviceType[name], {})[int(h)] = hour_model
        model_set = cls(
            machine_kind=machine_kind,
            family=data["family"],
            clustered=bool(data["clustered"]),
            theta_f=float(data["theta_f"]),
            theta_n=int(data["theta_n"]),
            models=models,
            device_ues={
                DeviceType[name]: [int(u) for u in ues]
                for name, ues in data["device_ues"].items()
            },
        )
        problems += validate_model_set(model_set)
        if problems:
            raise ValueError(
                "invalid model set: " + "; ".join(problems)
            )
        return model_set

    def save(self, path: PathLike) -> None:
        """Write the model set as (gzipped, if ``.gz``) JSON."""
        payload = json.dumps(self.to_dict())
        if str(path).endswith(".gz"):
            with gzip.open(path, "wt") as fh:
                fh.write(payload)
        else:
            with open(path, "w") as fh:
                fh.write(payload)

    @classmethod
    def load(cls, path: PathLike) -> "ModelSet":
        """Read a model set written by :meth:`save`, checked as in
        :meth:`from_dict`; errors name the file."""
        if str(path).endswith(".gz"):
            with gzip.open(path, "rt") as fh:
                data = json.load(fh)
        else:
            with open(path) as fh:
                data = json.load(fh)
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
