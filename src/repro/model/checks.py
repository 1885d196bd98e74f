"""Self-consistency validation of fitted model sets.

A fitted :class:`ModelSet` can silently carry problems — edges that the
state machine forbids (corrupted persistence), probabilities that no
longer normalize, empty hours, first-event models referencing events
the machine cannot start.  ``validate_model_set`` audits all of it and
returns human-readable findings; an empty list means the model is
internally consistent and safe to generate from.
"""

from __future__ import annotations

from typing import List

from ..statemachines.compiled_replay import _canonical_source_for
from ..trace.events import EventType
from .model_set import _PROB_TOL, ModelSet


def validate_model_set(model_set: ModelSet) -> List[str]:
    """Audit a model set; returns a list of problems (empty = OK)."""
    problems: List[str] = []
    try:
        machine = model_set.machine()
    except ValueError as exc:
        return [f"unknown machine kind: {exc}"]

    if not model_set.models:
        problems.append("model set contains no device types")

    for device_type, hours in model_set.models.items():
        where = device_type.name
        if not hours:
            problems.append(f"{where}: no fitted hours")
            continue
        training_ues = set(model_set.device_ues.get(device_type, ()))
        if not training_ues:
            problems.append(f"{where}: no training UEs recorded")
        for hour, hour_model in hours.items():
            loc = f"{where}/h{hour}"
            if not 0 <= hour <= 23:
                problems.append(f"{loc}: hour out of range")
            if not hour_model.clusters:
                problems.append(f"{loc}: no clusters")
                continue
            assigned = set(hour_model.assignment)
            if training_ues and assigned != training_ues:
                problems.append(
                    f"{loc}: cluster assignment covers {len(assigned)} UEs, "
                    f"training set has {len(training_ues)}"
                )
            for cid in set(hour_model.assignment.values()):
                if not 0 <= cid < len(hour_model.clusters):
                    problems.append(f"{loc}: assignment points at cluster {cid}")
            for cid, cluster in enumerate(hour_model.clusters):
                cloc = f"{loc}/c{cid}"
                problems.extend(_check_cluster(cluster, machine, cloc))
    return problems


def _check_cluster(cluster, machine, where: str) -> List[str]:
    problems: List[str] = []
    for state, state_model in cluster.chain.states.items():
        if state not in machine.states:
            problems.append(f"{where}: chain state {state!r} unknown to machine")
            continue
        total = 0.0
        for edge in state_model.edges:
            total += edge.probability
            if not machine.can_fire(state, edge.event):
                problems.append(
                    f"{where}: forbidden edge {state} --{edge.event.name}-->"
                )
            elif machine.next_state(state, edge.event) != edge.target:
                problems.append(
                    f"{where}: edge {state} --{edge.event.name}--> "
                    f"{edge.target} disagrees with the machine"
                )
            if edge.probability < 0:
                problems.append(f"{where}: negative probability on {state}")
            if edge.sojourn.mean() < 0:
                problems.append(f"{where}: negative sojourn mean on {state}")
        if state_model.edges and abs(total - 1.0) > _PROB_TOL:
            problems.append(
                f"{where}: probabilities from {state} sum to {total:.6f}"
            )

    fe = cluster.first_event
    if fe.event_probs:
        total = sum(fe.event_probs.values())
        if abs(total - 1.0) > _PROB_TOL:
            problems.append(f"{where}: first-event probabilities sum to {total:.6f}")
        for event in fe.event_probs:
            try:
                _canonical_source_for(machine, event)
            except ValueError:
                problems.append(
                    f"{where}: first event {event.name} impossible in machine"
                )
    if not 0.0 <= fe.p_active <= 1.0:
        problems.append(f"{where}: p_active out of range ({fe.p_active})")

    for event, rate in cluster.overlay_rates.items():
        if rate < 0:
            problems.append(f"{where}: negative overlay rate for {event.name}")
    return problems
