"""Deriving 5G model parameters from a fitted 4G model set (§6).

Large-scale 5G control-plane traces do not exist yet, so the paper
scales the 4G model: measurement studies report ~4.6x more handovers
under 5G mmWave NSA, and the authors' own controlled experiment gives
~3.0x for 5G SA.

* **5G NSA** runs on LTE's core, so it keeps the LTE two-level machine
  (and TAU); only the HO frequency is scaled.
* **5G SA** uses the adjusted machine of Fig. 6: TAU states and edges
  are removed, the IDLE sub-states collapse into ``CM_IDLE``, and
  states/events are renamed per Table 2.

Scaling an event's frequency by ``k`` multiplies the odds of its edges
by ``k`` (renormalizing the rest) and divides its sojourn times by
``k`` — more frequent events arrive sooner.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

from ..distributions.base import Distribution
from ..distributions.empirical import EmpiricalCDF
from ..distributions.exponential import Exponential
from ..statemachines import lte, nr
from ..trace.events import EventType
from .first_event import FirstEventModel
from .model_set import ClusterModel, HourModel, ModelSet
from .semi_markov import Edge, SemiMarkovChain, StateModel

#: HO scaling factor for 5G mmWave NSA (Hassan et al., SIGCOMM '22).
NSA_HO_SCALE = 4.6
#: HO scaling factor for 5G mmWave SA (the paper's controlled experiment).
SA_HO_SCALE = 3.0

#: LTE leaf states that survive into the 5G SA machine, with new names.
_SA_STATE_MAP = {
    lte.DEREGISTERED: nr.RM_DEREGISTERED,
    lte.SRV_REQ_S: nr.SRV_REQ_S,
    lte.HO_S: nr.HO_S,
    lte.S1_REL_S_1: nr.CM_IDLE,
}


def _scale_sojourn(dist: Distribution, factor: float) -> Distribution:
    """Divide a sojourn distribution's time scale by ``factor``."""
    if factor == 1.0:
        return dist
    if isinstance(dist, EmpiricalCDF):
        return EmpiricalCDF(dist.quantiles / factor)
    if isinstance(dist, Exponential):
        return Exponential(rate=dist.rate * factor)
    raise TypeError(f"cannot scale sojourn family {type(dist).__name__}")


def scale_event_frequency(
    chain: SemiMarkovChain, event: EventType, factor: float
) -> SemiMarkovChain:
    """Scale how often ``event`` fires in a chain by ``factor``.

    The odds of every edge labelled ``event`` are multiplied by
    ``factor`` and the state's edge probabilities renormalized; the
    event's sojourn times shrink by the same factor.
    """
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    states = {}
    for state, model in chain.states.items():
        weights = []
        for edge in model.edges:
            w = edge.probability * (factor if edge.event == event else 1.0)
            weights.append(w)
        total = sum(weights)
        edges = tuple(
            Edge(
                event=e.event,
                target=e.target,
                probability=w / total,
                sojourn=(
                    _scale_sojourn(e.sojourn, factor)
                    if e.event == event
                    else e.sojourn
                ),
            )
            for e, w in zip(model.edges, weights)
        )
        states[state] = StateModel(edges=edges)
    return SemiMarkovChain(states)


def drop_event(chain: SemiMarkovChain, event: EventType) -> SemiMarkovChain:
    """Remove every edge labelled ``event``, renormalizing the rest."""
    states = {}
    for state, model in chain.states.items():
        kept = [e for e in model.edges if e.event != event]
        total = sum(e.probability for e in kept)
        if total <= 0:
            states[state] = StateModel(edges=())
            continue
        states[state] = StateModel(
            edges=tuple(
                Edge(e.event, e.target, e.probability / total, e.sojourn)
                for e in kept
            )
        )
    return SemiMarkovChain(states)


def _rename_states(
    chain: SemiMarkovChain, mapping: Dict[str, str]
) -> SemiMarkovChain:
    """Project a chain onto renamed states, dropping unmapped ones."""
    states = {}
    for state, model in chain.states.items():
        if state not in mapping:
            continue
        kept = [e for e in model.edges if e.target in mapping]
        total = sum(e.probability for e in kept)
        if total <= 0:
            states[mapping[state]] = StateModel(edges=())
            continue
        states[mapping[state]] = StateModel(
            edges=tuple(
                Edge(e.event, mapping[e.target], e.probability / total, e.sojourn)
                for e in kept
            )
        )
    return SemiMarkovChain(states)


def _drop_first_event_tau(model: FirstEventModel) -> FirstEventModel:
    """Remove TAU from a first-event model (no TAU exists in 5G SA)."""
    probs = {e: p for e, p in model.event_probs.items() if e != EventType.TAU}
    total = sum(probs.values())
    if total <= 0:
        return FirstEventModel(p_active=0.0, event_probs={}, offset=model.offset)
    tau_share = 1.0 - total
    return FirstEventModel(
        p_active=model.p_active * (1.0 - tau_share),
        event_probs={e: p / total for e, p in probs.items()},
        offset=model.offset,
    )


def _map_cluster(
    cm: ClusterModel,
    *,
    ho_scale: float,
    drop_tau: bool,
) -> ClusterModel:
    chain = scale_event_frequency(cm.chain, EventType.HO, ho_scale)
    first_event = cm.first_event
    overlay = dict(cm.overlay_rates)
    if EventType.HO in overlay:
        overlay[EventType.HO] = overlay[EventType.HO] * ho_scale
    if drop_tau:
        chain = drop_event(chain, EventType.TAU)
        chain = _rename_states(chain, _SA_STATE_MAP)
        first_event = _drop_first_event_tau(first_event)
        overlay.pop(EventType.TAU, None)
    return ClusterModel(
        chain=chain,
        first_event=first_event,
        overlay_rates=overlay,
        num_ues=cm.num_ues,
        num_segments=cm.num_segments,
    )


def _map_model_set(
    model_set: ModelSet,
    *,
    ho_scale: float,
    drop_tau: bool,
    machine_kind: str,
) -> ModelSet:
    models = {}
    for device_type, hours in model_set.models.items():
        models[device_type] = {
            hour: HourModel.from_clusters(
                [
                    _map_cluster(cm, ho_scale=ho_scale, drop_tau=drop_tau)
                    for cm in hm.clusters
                ],
                hm.assignment,
                machine_kind,
            )
            for hour, hm in hours.items()
        }
    return ModelSet(
        machine_kind=machine_kind,
        family=model_set.family,
        clustered=model_set.clustered,
        models=models,
        device_ues=copy.deepcopy(model_set.device_ues),
        theta_f=model_set.theta_f,
        theta_n=model_set.theta_n,
    )


def scale_to_nsa(
    model_set: ModelSet, ho_scale: float = NSA_HO_SCALE
) -> ModelSet:
    """Derive a 5G NSA model set from a fitted LTE model set.

    NSA runs on LTE's MCN: the machine and event set are unchanged;
    only the HO frequency scales.
    """
    if model_set.machine_kind != "two_level":
        raise ValueError("5G scaling requires a two-level LTE model set")
    return _map_model_set(
        model_set, ho_scale=ho_scale, drop_tau=False, machine_kind="two_level"
    )


def scale_to_sa(model_set: ModelSet, ho_scale: float = SA_HO_SCALE) -> ModelSet:
    """Derive a 5G SA model set: HO scaled, TAU removed, states renamed."""
    if model_set.machine_kind != "two_level":
        raise ValueError("5G scaling requires a two-level LTE model set")
    return _map_model_set(
        model_set, ho_scale=ho_scale, drop_tau=True, machine_kind="nr_sa"
    )
