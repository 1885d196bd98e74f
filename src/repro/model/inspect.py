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
from typing import Dict, List, Tuple

import numpy as np

from ..trace.events import SECONDS_PER_HOUR, DeviceType, EventType
from .grouped import group_means
from .model_set import HourModel, ModelSet, state_space

_POWER_ITERATIONS = 500
_TOL = 1e-12


@dataclasses.dataclass
class _Chain:
    """One cluster's embedded chain: its states with out-degree > 0, in
    code order, each with its edges and its mean dwell."""

    names: List[str]
    codes: List[int]                                #: state codes
    edges: List[List[Tuple[EventType, int, float]]]  #: (event, target code, p)
    dwell: List[float]


def _chain(hm: HourModel, cluster: int) -> _Chain:
    """Read one cluster's chain from the edge CSR.

    An edge's mean sojourn is the mean of its stored knots, or
    ``1/rate`` for an exponential edge; a state's mean dwell is their
    probability-weighted sum, added in edge order.
    """
    S = hm.S
    deg = hm.state_deg[cluster * S:(cluster + 1) * S]
    lo = int(hm.state_deg[:cluster * S].sum())
    hi = lo + int(deg.sum())
    kptr = hm.edge_knot_ptr[lo:hi + 1]
    means = np.where(
        hm.edge_kind[lo:hi] == 1,
        1.0 / hm.edge_rate[lo:hi],
        group_means(hm.knot_v, kptr[:-1], np.diff(kptr) - hm.edge_single[lo:hi]),
    ).tolist()
    events = hm.edge_event[lo:hi].tolist()
    targets = (hm.edge_target[lo:hi] - cluster * S).tolist()
    probs = hm.edge_prob[lo:hi].tolist()
    names = state_space(hm.machine_kind).names
    chain = _Chain([], [], [], [])
    e = 0
    for s, d in enumerate(deg.tolist()):
        if not d:
            continue
        chain.names.append(names[s])
        chain.codes.append(s)
        chain.edges.append(
            [(EventType(events[i]), targets[i], probs[i]) for i in range(e, e + d)]
        )
        chain.dwell.append(sum(probs[i] * means[i] for i in range(e, e + d)))
        e += d
    return chain


def embedded_transition_matrix(
    hm: HourModel, cluster: int
) -> Tuple[List[str], np.ndarray]:
    """States and the embedded DTMC matrix of one cluster's chain.

    The states are those with out-degree > 0, in code (name) order.
    Probability on an edge into any other state is dropped and the row
    renormalized.
    """
    chain = _chain(hm, cluster)
    index = {s: i for i, s in enumerate(chain.codes)}
    n = len(chain.codes)
    matrix = np.zeros((n, n))
    for i, edges in enumerate(chain.edges):
        for _, target, prob in edges:
            j = index.get(target)
            if j is not None:
                matrix[i, j] += prob
        row_sum = matrix[i].sum()
        if row_sum <= 0:
            matrix[i, i] = 1.0
        elif abs(row_sum - 1.0) > 1e-9:
            matrix[i] /= row_sum  # renormalize mass lost to unseen targets
    return chain.names, matrix


def stationary_distribution(hm: HourModel, cluster: int) -> Dict[str, float]:
    """Stationary distribution of one cluster's embedded jump chain.

    Computed by power iteration from the uniform vector; for chains
    with several closed classes this converges to one mixture of their
    stationary laws, which is the right weighting for a population of
    UEs started uniformly.
    """
    states, matrix = embedded_transition_matrix(hm, cluster)
    if not states:
        return {}
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


def state_occupancy(hm: HourModel, cluster: int) -> Dict[str, float]:
    """Long-run fraction of *time* one cluster's UEs spend in each state.

    Semi-Markov occupancy: ``pi_x * m_x / sum_y pi_y * m_y`` where
    ``m_x`` is the mean dwell in ``x``.
    """
    pi = stationary_distribution(hm, cluster)
    weights = {
        state: p * dwell
        for (state, p), dwell in zip(pi.items(), _chain(hm, cluster).dwell)
    }
    total = sum(weights.values())
    if total <= 0:
        return {state: 0.0 for state in pi}
    return {state: w / total for state, w in weights.items()}


def expected_event_rates(hm: HourModel, cluster: int) -> Dict[EventType, float]:
    """Steady-state rate of each event type in one cluster's chain, in
    events per second per UE.

    The transition rate out of state ``x`` is ``occupancy_x / m_x``;
    event ``e``'s share of it is the total probability of ``x``'s
    ``e``-labelled edges.
    """
    return _event_rates(_chain(hm, cluster), state_occupancy(hm, cluster))


def _event_rates(
    chain: _Chain, occupancy: Dict[str, float]
) -> Dict[EventType, float]:
    rates: Dict[EventType, float] = {e: 0.0 for e in EventType}
    for state, edges, dwell in zip(chain.names, chain.edges, chain.dwell):
        if not dwell or dwell <= 0:
            continue
        exit_rate = occupancy.get(state, 0.0) / dwell
        for event, _, prob in edges:
            rates[event] += exit_rate * prob
    return rates


@dataclasses.dataclass(frozen=True)
class ClusterSummary:
    """One cluster's analytic profile."""

    num_ues: int
    p_active: float
    occupancy: Dict[str, float]
    event_rates_per_hour: Dict[EventType, float]
    expected_events_per_active_ue_hour: float


def summarize_cluster(hm: HourModel, cluster: int) -> ClusterSummary:
    """Analytic summary of one fitted cluster model."""
    occupancy = state_occupancy(hm, cluster)
    rates = _event_rates(_chain(hm, cluster), occupancy)
    for event, overlay_rate in zip(
        hm.overlay_events.tolist(), hm.overlay_rates[cluster].tolist()
    ):
        rates[EventType(event)] += overlay_rate
    per_hour = {e: r * SECONDS_PER_HOUR for e, r in rates.items()}
    return ClusterSummary(
        num_ues=int(hm.num_ues[cluster]),
        p_active=float(hm.p_active[cluster]),
        occupancy=occupancy,
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
            for cluster, w in enumerate(weights):
                summary = summarize_cluster(hm, cluster)
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
