"""Self-consistency validation of fitted model sets.

A :class:`ModelSet` can silently carry problems — edges that the state
machine forbids (corrupted persistence), probabilities that no longer
normalize, empty hours, cluster assignments that miss training UEs.
``validate_model_set`` audits all of it and returns human-readable
findings; an empty list means the model is internally consistent and
safe to generate from.  The per-hour checks are
:meth:`HourModel.problems`; this module adds the model-set-level ones.
"""

from __future__ import annotations

from typing import List

from .model_set import ModelSet


def validate_model_set(model_set: ModelSet) -> List[str]:
    """Audit a model set; returns a list of problems (empty = OK)."""
    problems: List[str] = []
    try:
        model_set.machine()
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
            assigned = set(hour_model.assign_keys.tolist())
            if training_ues and assigned != training_ues:
                problems.append(
                    f"{loc}: cluster assignment covers {len(assigned)} UEs, "
                    f"training set has {len(training_ues)}"
                )
            problems.extend(f"{loc}/{p}" for p in hour_model.problems())
    return problems
