"""Model-set introspection and analytic rate prediction.

Beyond generating traces, a fitted semi-Markov model supports *direct*
analysis: the stationary distribution of the embedded chain combined
with the mean dwell times yields the long-run fraction of time a UE
spends in each state and the expected rate of every event type — no
simulation needed.  This is useful for sanity-checking fits, for quick
capacity estimates, and for the monitoring use case of §3.1.

The analytic rates describe the chain in steady state; the per-hour
counts of a generated trace additionally reflect the first-event model
(UEs starting mid-hour, silent UEs), so empirical counts sit somewhat
below the steady-state prediction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..trace.events import SECONDS_PER_HOUR, DeviceType, EventType
from .model_set import ClusterModel, ModelSet
from .semi_markov import SemiMarkovChain

_POWER_ITERATIONS = 500
_TOL = 1e-12


def embedded_transition_matrix(
    chain: SemiMarkovChain,
) -> Tuple[List[str], np.ndarray]:
    """States (sorted) and the embedded DTMC matrix of a chain.

    Absorbing states are given a self-loop so the matrix is stochastic.
    """
    states = sorted(chain.states)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    matrix = np.zeros((n, n))
    for state, model in chain.states.items():
        i = index[state]
        if model.is_absorbing:
            matrix[i, i] = 1.0
            continue
        for edge in model.edges:
            j = index.get(edge.target)
            if j is None:
                # Target never seen as a source: treat as absorbing sink.
                continue
            matrix[i, j] += edge.probability
        row_sum = matrix[i].sum()
        if row_sum <= 0:
            matrix[i, i] = 1.0
        elif abs(row_sum - 1.0) > 1e-9:
            matrix[i] /= row_sum  # renormalize mass lost to unseen targets
    return states, matrix


def stationary_distribution(chain: SemiMarkovChain) -> Dict[str, float]:
    """Stationary distribution of the embedded jump chain.

    Computed by power iteration from the uniform vector; for chains
    with several closed classes this converges to one mixture of their
    stationary laws, which is the right weighting for a population of
    UEs started uniformly.
    """
    states, matrix = embedded_transition_matrix(chain)
    pi = np.full(len(states), 1.0 / len(states))
    for _ in range(_POWER_ITERATIONS):
        nxt = pi @ matrix
        if np.abs(nxt - pi).max() < _TOL:
            pi = nxt
            break
        pi = nxt
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    return {state: float(p) for state, p in zip(states, pi)}


def state_occupancy(chain: SemiMarkovChain) -> Dict[str, float]:
    """Long-run fraction of *time* spent in each state.

    Semi-Markov occupancy: ``pi_x * m_x / sum_y pi_y * m_y`` where
    ``m_x`` is the mean dwell in ``x`` (absorbing states get the jump
    probability itself — they hold forever once entered, so if they
    carry stationary mass they dominate; in fitted traffic chains they
    normally carry none).
    """
    pi = stationary_distribution(chain)
    weights: Dict[str, float] = {}
    for state, p in pi.items():
        dwell = chain.expected_dwell(state)
        if dwell is None:
            weights[state] = p if p > 1e-9 else 0.0
        else:
            weights[state] = p * dwell
    total = sum(weights.values())
    if total <= 0:
        return {state: 0.0 for state in pi}
    return {state: w / total for state, w in weights.items()}


def expected_event_rates(chain: SemiMarkovChain) -> Dict[EventType, float]:
    """Steady-state rate of each event type, in events per second per UE.

    The transition rate out of state ``x`` is ``occupancy_x / m_x``;
    event ``e``'s share of it is the total probability of ``x``'s
    ``e``-labelled edges.
    """
    occupancy = state_occupancy(chain)
    rates: Dict[EventType, float] = {e: 0.0 for e in EventType}
    for state, model in chain.states.items():
        if model.is_absorbing:
            continue
        dwell = chain.expected_dwell(state)
        if not dwell or dwell <= 0:
            continue
        exit_rate = occupancy.get(state, 0.0) / dwell
        for edge in model.edges:
            rates[edge.event] += exit_rate * edge.probability
    return rates


@dataclasses.dataclass(frozen=True)
class ClusterSummary:
    """One cluster's analytic profile."""

    num_ues: int
    p_active: float
    occupancy: Dict[str, float]
    event_rates_per_hour: Dict[EventType, float]
    expected_events_per_active_ue_hour: float


def summarize_cluster(cluster: ClusterModel) -> ClusterSummary:
    """Analytic summary of one fitted cluster model."""
    rates = expected_event_rates(cluster.chain)
    for event, overlay_rate in cluster.overlay_rates.items():
        rates[event] = rates.get(event, 0.0) + overlay_rate
    per_hour = {e: r * SECONDS_PER_HOUR for e, r in rates.items()}
    return ClusterSummary(
        num_ues=cluster.num_ues,
        p_active=cluster.first_event.p_active,
        occupancy=state_occupancy(cluster.chain),
        event_rates_per_hour=per_hour,
        expected_events_per_active_ue_hour=sum(per_hour.values()),
    )


@dataclasses.dataclass(frozen=True)
class ModelSetSummary:
    """Whole-model-set statistics for reports and sanity checks."""

    machine_kind: str
    family: str
    num_models: int
    clusters_per_hour: Dict[DeviceType, float]
    hours: Dict[DeviceType, List[int]]
    mean_p_active: Dict[DeviceType, float]
    predicted_events_per_ue_hour: Dict[DeviceType, float]


def summarize_model_set(model_set: ModelSet) -> ModelSetSummary:
    """Aggregate analytic statistics of a fitted model set.

    ``predicted_events_per_ue_hour`` weights each cluster's steady-state
    rate by its UE share and activity probability, averaged over hours —
    a zero-simulation estimate of the traffic volume the generator will
    produce per UE.
    """
    clusters_per_hour: Dict[DeviceType, float] = {}
    mean_p_active: Dict[DeviceType, float] = {}
    predicted: Dict[DeviceType, float] = {}
    hours: Dict[DeviceType, List[int]] = {}

    for device_type in model_set.device_types:
        device_hours = model_set.hours(device_type)
        hours[device_type] = device_hours
        counts = []
        actives = []
        rates = []
        for hour in device_hours:
            hm = model_set.models[device_type][hour]
            counts.append(hm.num_clusters)
            weights = hm.weights()
            p_active = 0.0
            rate = 0.0
            for w, cluster in zip(weights, hm.clusters):
                summary = summarize_cluster(cluster)
                p_active += w * summary.p_active
                rate += (
                    w
                    * summary.p_active
                    * summary.expected_events_per_active_ue_hour
                )
            actives.append(p_active)
            rates.append(rate)
        clusters_per_hour[device_type] = float(np.mean(counts))
        mean_p_active[device_type] = float(np.mean(actives))
        predicted[device_type] = float(np.mean(rates))

    return ModelSetSummary(
        machine_kind=model_set.machine_kind,
        family=model_set.family,
        num_models=model_set.num_models,
        clusters_per_hour=clusters_per_hour,
        hours=hours,
        mean_p_active=mean_p_active,
        predicted_events_per_ue_hour=predicted,
    )


def describe_model_set(model_set: ModelSet) -> str:
    """Human-readable multi-line description of a fitted model set."""
    summary = summarize_model_set(model_set)
    lines = [
        f"ModelSet: machine={summary.machine_kind} family={summary.family} "
        f"clustered={model_set.clustered}",
        f"  total models: {summary.num_models}",
    ]
    for device_type in model_set.device_types:
        lines.append(
            f"  {device_type.name}: hours={len(summary.hours[device_type])}, "
            f"avg clusters/hour={summary.clusters_per_hour[device_type]:.1f}, "
            f"mean P(active)={summary.mean_p_active[device_type]:.2f}, "
            f"predicted events/UE-hour="
            f"{summary.predicted_events_per_ue_hour[device_type]:.1f}"
        )
    return "\n".join(lines)
