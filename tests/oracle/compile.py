"""Object-walk lowering of cluster models to generator tables, the
exactness oracle for :class:`repro.model.model_set.HourModel`.

This is the original lowering: walk each cluster's
``SemiMarkovChain``, ``EmpiricalCDF``/``Exponential`` sojourns and
``FirstEventModel`` edge by edge into per-cluster CSR arrays, then
concatenate the clusters of an hour into merged tables.  The fitter now
writes those tables directly (and ``oracle.objects.from_clusters``
builds them from objects); both must equal this lowering of the same
models bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.empirical import EmpiricalCDF
from repro.distributions.exponential import Exponential
from repro.model.model_set import ModelSet
from repro.statemachines.compiled_replay import _canonical_source_for
from repro.trace.events import EventType

from .objects import ClusterModel, SemiMarkovChain, cluster_view


def compile_sojourn(dist: Distribution) -> tuple:
    """``("empirical", probs, values)`` with ``ppf(u) == interp(u, probs,
    values)``, or ``("exponential", rate)``."""
    if isinstance(dist, EmpiricalCDF):
        return ("empirical", dist._probs, dist.quantiles)
    if isinstance(dist, Exponential):
        return ("exponential", dist.rate)
    raise NotImplementedError(type(dist).__name__)


def edge_table(chain: SemiMarkovChain, state_code: Mapping[str, int]) -> dict:
    """One chain as CSR arrays, states by code, zero-probability edges
    dropped."""
    num_states = max(state_code.values()) + 1 if state_code else 0
    state_deg = np.zeros(num_states, dtype=np.int64)
    sel_key: List[float] = []
    edge_event: List[int] = []
    edge_target: List[int] = []
    edge_sojourn: List[Distribution] = []
    for name in sorted(chain.states, key=lambda s: state_code[s]):
        model = chain.states[name]
        edges = [e for e in model.edges if e.probability > 0.0]
        if not edges:
            continue
        code = state_code[name]
        cum = np.cumsum([e.probability for e in edges])
        cum[-1] = 1.0
        state_deg[code] = len(edges)
        sel_key.extend(code + cum)
        edge_event.extend(int(e.event) for e in edges)
        edge_target.extend(state_code[e.target] for e in edges)
        edge_sojourn.extend(e.sojourn for e in edges)
    return {
        "state_deg": state_deg,
        "sel_key": np.asarray(sel_key, dtype=np.float64),
        "edge_event": np.asarray(edge_event, dtype=np.int16),
        "edge_target": np.asarray(edge_target, dtype=np.int32),
        "edge_sojourn": edge_sojourn,
    }


def _pad_knots(probs, values):
    if len(probs) == 1:
        v = float(values[0])
        return np.asarray([0.25, 0.75]), np.asarray([v, v])
    return np.asarray(probs, dtype=np.float64), np.asarray(values, np.float64)


class CompiledCluster:
    """One cluster model lowered to flat arrays."""

    def __init__(
        self,
        cluster: ClusterModel,
        state_code: Dict[str, int],
        canonical_next: np.ndarray,
    ) -> None:
        table = edge_table(cluster.chain, state_code)
        self.state_deg = table["state_deg"]
        self.sel_key = table["sel_key"]
        self.edge_event = table["edge_event"]
        self.edge_target = table["edge_target"]

        num_edges = len(self.sel_key)
        self.edge_kind = np.zeros(num_edges, dtype=np.int8)
        self.edge_rate = np.ones(num_edges, dtype=np.float64)
        ptr = np.zeros(num_edges + 1, dtype=np.int64)
        knot_p: List[np.ndarray] = []
        knot_v: List[np.ndarray] = []
        for e, sojourn in enumerate(table["edge_sojourn"]):
            lowered = compile_sojourn(sojourn)
            if lowered[0] == "empirical":
                probs, values = _pad_knots(lowered[1], lowered[2])
                knot_p.append(probs)
                knot_v.append(values)
                ptr[e + 1] = ptr[e] + len(probs)
            else:
                self.edge_kind[e] = 1
                self.edge_rate[e] = lowered[1]
                ptr[e + 1] = ptr[e]
        self.edge_knot_ptr = ptr
        self.knot_p = (
            np.concatenate(knot_p) if knot_p else np.empty(0, np.float64)
        )
        self.knot_v = (
            np.concatenate(knot_v) if knot_v else np.empty(0, np.float64)
        )

        first = cluster.first_event
        events, cum = first.event_table()
        self.p_active = float(first.p_active) if len(events) else 0.0
        self.fe_event = np.asarray([int(e) for e in events], dtype=np.int16)
        self.fe_cum = np.asarray(cum, dtype=np.float64)
        self.fe_state = np.asarray(
            [canonical_next[int(e)] for e in events], dtype=np.int32
        )
        if np.any(self.fe_state < 0):
            bad = [e.name for e in events if canonical_next[int(e)] < 0]
            raise ValueError(
                f"first-event types {bad} have no canonical source state"
            )
        off_kind, off_p, off_v = compile_sojourn(first.offset)
        assert off_kind == "empirical"
        self.fe_off_p, self.fe_off_v = _pad_knots(off_p, off_v)

        self.overlay = sorted(
            (int(event), float(rate))
            for event, rate in cluster.overlay_rates.items()
            if rate > 0
        )


class CompiledHourModel:
    """One (device, hour) model with all clusters merged into flat tables."""

    def __init__(self, hour_model, state_code, canonical_next) -> None:
        self.clusters = [
            CompiledCluster(c, state_code, canonical_next)
            for c in cluster_view(hour_model)
        ]
        items = sorted(hour_model.assignment.items())
        self.assign_keys = np.asarray([k for k, _ in items], dtype=np.int64)
        self.assign_vals = np.asarray([v for _, v in items], dtype=np.int32)
        cum = np.cumsum(hour_model.weights())
        if cum.size:
            cum[-1] = 1.0
        self.weights_cum = cum

        S = len(state_code)
        self.S = S
        sd, sk, ev, tg, kind, rate = [], [], [], [], [], []
        kptr, kp, kv = [], [], []
        pa, fek, fee, fes = [], [], [], []
        fop, fov, folen = [], [], []
        knot_off = 0
        for c, cc in enumerate(self.clusters):
            base = c * S
            sd.append(cc.state_deg)
            sk.append(cc.sel_key + base)
            ev.append(cc.edge_event)
            tg.append(cc.edge_target.astype(np.int64) + base)
            kind.append(cc.edge_kind)
            rate.append(cc.edge_rate)
            kptr.append(cc.edge_knot_ptr[:-1] + knot_off)
            kp.append(cc.knot_p)
            kv.append(cc.knot_v)
            knot_off += cc.knot_p.size
            pa.append(cc.p_active)
            fek.append(c + cc.fe_cum)
            fee.append(cc.fe_event)
            fes.append(cc.fe_state)
            fop.append(cc.fe_off_p)
            fov.append(cc.fe_off_v)
            folen.append(cc.fe_off_p.size)
        kptr.append(np.asarray([knot_off], dtype=np.int64))

        def cat(parts, dtype):
            return (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=dtype)
            )

        self.state_deg = cat(sd, np.int64)
        self.sel_key = cat(sk, np.float64)
        self.edge_event = cat(ev, np.int16)
        self.edge_target = cat(tg, np.int64)
        self.edge_kind = cat(kind, np.int8)
        self.edge_rate = cat(rate, np.float64)
        self.has_exp = bool((self.edge_kind == 1).any())
        self.edge_knot_ptr = cat(kptr, np.int64)
        self.knot_p = cat(kp, np.float64)
        self.knot_v = cat(kv, np.float64)
        self.p_active = np.asarray(pa, dtype=np.float64)
        self.fe_key = cat(fek, np.float64)
        self.fe_event = cat(fee, np.int16)
        self.fe_state = cat(fes, np.int32)
        self.foff_p = cat(fop, np.float64)
        self.foff_v = cat(fov, np.float64)
        self.foff_ptr = np.concatenate(
            [[0], np.cumsum(np.asarray(folen, dtype=np.int64))]
        )
        self.overlay_clusters = [
            c for c, cc in enumerate(self.clusters) if cc.overlay
        ]


def compile_model_set(model_set: ModelSet) -> Dict[int, Dict[int, CompiledHourModel]]:
    """Lower every hour model's object view: ``{device: {hour: tables}}``."""
    machine = model_set.machine()
    names = set(machine.states)
    for hours in model_set.models.values():
        for hm in hours.values():
            for cluster in cluster_view(hm):
                for state, sm in cluster.chain.states.items():
                    names.add(state)
                    names.update(e.target for e in sm.edges)
    state_code = {s: i for i, s in enumerate(sorted(names))}

    num_events = max(int(e) for e in EventType) + 1
    canonical_next = np.full(num_events, -1, dtype=np.int32)
    for event in EventType:
        try:
            source = _canonical_source_for(machine, event)
        except ValueError:
            continue
        canonical_next[int(event)] = state_code[machine.next_state(source, event)]

    return {
        int(dt): {
            hour: CompiledHourModel(hm, state_code, canonical_next)
            for hour, hm in hours.items()
        }
        for dt, hours in model_set.models.items()
    }
