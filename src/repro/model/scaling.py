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

Both work on an hour's columns (:meth:`HourModel.columns`).  Every step
renormalizes each state's edge probabilities, summed in edge order.  A
state left with no edges generates nothing, so it is not kept.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Optional

import numpy as np

from ..statemachines import lte, nr
from ..trace.events import EventType
from ..trace.trace import stable_order
from .model_set import HourModel, ModelSet, _gather, state_space

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

_HO, _TAU = int(EventType.HO), int(EventType.TAU)


def _renormalized(prob: np.ndarray, group: np.ndarray) -> np.ndarray:
    """``prob`` divided by its group's sum, added in order."""
    return prob / np.bincount(group, weights=prob)[group]


def _sa_codes() -> np.ndarray:
    """Each two-level state code's 5G SA code, or -1 if it has none."""
    lte_code = state_space("two_level").code
    nr_code = state_space("nr_sa").code
    codes = np.full(len(lte_code), -1, dtype=np.int64)
    for old, new in _SA_STATE_MAP.items():
        codes[lte_code[old]] = nr_code[new]
    return codes


def _scale_hour(hm: HourModel, ho_scale: float, to_sa: bool) -> HourModel:
    """One hour scaled: HO ``ho_scale`` times as frequent; for 5G SA also
    TAU dropped and the states mapped onto the SA machine."""
    cols = hm.columns()
    S = hm.S
    cluster = cols["edge_cluster"]
    state = cols["edge_state"]
    target = cols["edge_target"]
    event = cols["edge_event"].astype(np.int64)
    ho = event == _HO
    prob = _renormalized(cols["edge_prob"] * np.where(ho, ho_scale, 1.0), cluster * S + state)
    rate = np.where(ho, cols["edge_rate"] * ho_scale, cols["edge_rate"])
    ptr, values = cols["sojourn_ptr"], cols["sojourn_values"]
    values = np.where(np.repeat(ho, np.diff(ptr)), values / ho_scale, values)
    keep = np.arange(event.size)

    overlay_events = cols["overlay_events"]
    overlay_rates = cols["overlay_rates"].copy()
    overlay_rates[:, overlay_events == _HO] *= ho_scale
    fe_cluster, fe_event = cols["fe_cluster"], cols["fe_event"]
    fe_prob, p_active = cols["fe_prob"], cols["p_active"]

    machine_kind = "two_level"
    if to_sa:
        machine_kind = "nr_sa"
        codes = _sa_codes()
        for survives in (
            event != _TAU,
            (codes[state] >= 0) & (codes[target] >= 0),
        ):
            kept = survives[keep]
            keep, prob = keep[kept], prob[kept]
            prob = _renormalized(prob, (cluster * S + state)[keep])
        state, target = codes[state], codes[target]
        nr_states = len(state_space(machine_kind).names)
        order = stable_order((cluster * nr_states + state)[keep])
        keep, prob = keep[order], prob[order]

        # First events: TAU dropped, the rest renormalized, and p_active
        # scaled by the share left; a cluster with none left is silent.
        not_tau = fe_event != _TAU
        total = np.bincount(
            fe_cluster[not_tau], weights=fe_prob[not_tau], minlength=hm.num_clusters
        )
        p_active = np.where(total > 0, p_active * (1.0 - (1.0 - total)), 0.0)
        kept = not_tau & (total > 0)[fe_cluster]
        fe_cluster, fe_event = fe_cluster[kept], fe_event[kept]
        fe_prob = fe_prob[kept] / total[fe_cluster]
        tau = overlay_events == _TAU
        overlay_events, overlay_rates = overlay_events[~tau], overlay_rates[:, ~tau]

    drawn = prob != 0.0
    keep, prob = keep[drawn], prob[drawn]
    sojourn_ptr, sojourn_values = _gather(ptr[:-1][keep], np.diff(ptr)[keep], values)
    return HourModel.from_columns(
        machine_kind,
        **dict(
            cols,
            edge_cluster=cluster[keep],
            edge_state=state[keep],
            edge_event=event[keep],
            edge_target=target[keep],
            edge_prob=prob,
            edge_rate=rate[keep],
            sojourn_ptr=sojourn_ptr,
            sojourn_values=sojourn_values,
            p_active=p_active,
            fe_cluster=fe_cluster,
            fe_event=fe_event,
            fe_prob=fe_prob,
            overlay_events=overlay_events,
            overlay_rates=overlay_rates,
        ),
    )


def _scale_model_set(
    model_set: ModelSet, ho_scale: Optional[float], default: float, to_sa: bool
) -> ModelSet:
    if model_set.machine_kind != "two_level":
        raise ValueError("5G scaling requires a two-level LTE model set")
    if ho_scale is None:
        ho_scale = default
    if not (math.isfinite(ho_scale) and ho_scale > 0):
        raise ValueError(f"ho_scale must be finite and positive, got {ho_scale}")
    models: Dict = {}
    for device_type, hours in model_set.models.items():
        models[device_type] = {}
        for hour, hm in hours.items():
            scaled = _scale_hour(hm, float(ho_scale), to_sa)
            problems = scaled.problems()
            if problems:
                raise ValueError(
                    f"ho_scale {ho_scale}: {device_type.name}/h{hour}/{problems[0]}"
                )
            models[device_type][hour] = scaled
    return ModelSet(
        machine_kind="nr_sa" if to_sa else "two_level",
        family=model_set.family,
        clustered=model_set.clustered,
        models=models,
        device_ues=copy.deepcopy(model_set.device_ues),
        theta_f=model_set.theta_f,
        theta_n=model_set.theta_n,
    )


def scale_to_nsa(
    model_set: ModelSet, ho_scale: Optional[float] = None
) -> ModelSet:
    """Derive a 5G NSA model set from a fitted LTE model set.

    NSA runs on LTE's MCN: the machine and event set are unchanged;
    only the HO frequency scales, by ``ho_scale`` (``None``:
    :data:`NSA_HO_SCALE`), which must be finite and positive.
    """
    return _scale_model_set(model_set, ho_scale, NSA_HO_SCALE, to_sa=False)


def scale_to_sa(model_set: ModelSet, ho_scale: Optional[float] = None) -> ModelSet:
    """Derive a 5G SA model set: HO scaled by ``ho_scale`` (``None``:
    :data:`SA_HO_SCALE`; finite and positive), TAU removed, states
    renamed."""
    return _scale_model_set(model_set, ho_scale, SA_HO_SCALE, to_sa=True)
