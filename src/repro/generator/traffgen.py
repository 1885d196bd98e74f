"""The main traffic generator: arbitrary populations, any start hour.

``TrafficGenerator`` runs one per-UE generator instance per synthetic
UE (§7).  Each synthetic UE draws a *persona* — a training-trace UE of
the same device type — and follows that persona's cluster in every
hour, so the synthetic population reproduces the cluster mix of the
modeled trace ("if 33% of the UEs belong to Cluster X, then 33% of the
per-UE traffic generators will be running the state machine for
Cluster X").

Population sizes are unconstrained: scaling past the training
population (the paper's 380K-UE Scenario 2) simply samples personas
with replacement.
"""

from __future__ import annotations

import os
from numbers import Integral
from typing import Dict, Mapping, Optional, Union

from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType
from ..trace.trace import Trace
from .compiled import generate_columns, population_for_counts

DeviceCounts = Union[int, Mapping[DeviceType, int]]

#: Seeds parameterize ``SeedSequence`` entropy and the Philox root key;
#: both are specified for unsigned 64-bit words.
MAX_SEED = 2 ** 64


def validate_run_args(
    *,
    start_hour: int = 0,
    num_hours: int = 1,
    seed: int = 0,
    first_ue_id: int = 0,
) -> None:
    """Validate the parameter quartet shared by every generation entry.

    ``TrafficGenerator.generate``, :func:`~repro.generator.parallel.
    generate_parallel` and :func:`~repro.generator.streaming.
    stream_events` accept the same run parameters; this is the single
    place their domains are enforced, so every entry point rejects the
    same bad inputs with the same message.
    """
    for name, value in (
        ("start_hour", start_hour),
        ("num_hours", num_hours),
        ("seed", seed),
        ("first_ue_id", first_ue_id),
    ):
        if not isinstance(value, Integral):
            raise TypeError(
                f"{name} must be an integer, got {type(value).__name__}"
            )
    if num_hours <= 0:
        raise ValueError(f"num_hours must be positive, got {num_hours}")
    if start_hour < 0:
        raise ValueError(f"start_hour must be non-negative, got {start_hour}")
    if first_ue_id < 0:
        raise ValueError(
            f"first_ue_id must be non-negative, got {first_ue_id}"
        )
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


class TrafficGenerator:
    """Synthesizes control-plane traces from a fitted :class:`ModelSet`."""

    def __init__(self, model_set: ModelSet) -> None:
        if not model_set.models:
            raise ValueError("model set contains no fitted models")
        self.model_set = model_set

    # ------------------------------------------------------------------
    def resolve_counts(self, num_ues: DeviceCounts) -> Dict[DeviceType, int]:
        """Split a total UE count by the training trace's device mix."""
        if isinstance(num_ues, Mapping):
            counts = {DeviceType(k): int(v) for k, v in num_ues.items()}
            negative = {dt.name: n for dt, n in counts.items() if n < 0}
            if negative:
                raise ValueError(
                    f"device counts must be non-negative, got {negative}"
                )
            unknown = set(counts) - set(self.model_set.device_ues)
            if unknown:
                raise ValueError(
                    f"no fitted model for device types {sorted(d.name for d in unknown)}"
                )
            return counts
        total = int(num_ues)
        if total <= 0:
            raise ValueError(f"population size must be positive, got {num_ues}")
        training = {
            dt: len(ues) for dt, ues in self.model_set.device_ues.items()
        }
        training_total = sum(training.values())
        counts = {
            dt: int(round(total * n / training_total))
            for dt, n in training.items()
        }
        drift = total - sum(counts.values())
        largest = max(counts, key=lambda d: counts[d])
        counts[largest] += drift
        return counts

    # ------------------------------------------------------------------
    def generate(
        self,
        num_ues: DeviceCounts,
        *,
        start_hour: int = 0,
        num_hours: int = 1,
        seed: int = 0,
        first_ue_id: int = 0,
        checkpoint_path: "Optional[str | os.PathLike[str]]" = None,
        resume: bool = False,
        telemetry: Optional[RunTelemetry] = None,
    ) -> Trace:
        """Synthesize a trace for ``num_ues`` UEs over ``num_hours`` hours.

        Every UE gets an independent, reproducible random substream, so
        the output is invariant to generation order and amenable to
        parallel generation (see :mod:`repro.generator.compiled`).

        With ``checkpoint_path`` the run snapshots its progress after
        every generated hour (atomically — see
        :mod:`repro.generator.checkpoint`); ``resume=True`` picks up an
        interrupted run from that file and returns the *complete* trace,
        bit-identical to an uninterrupted run with the same arguments.

        ``telemetry`` selects the collector the run reports to (spans,
        counters, progress — see :mod:`repro.telemetry`); by default the
        ambient collector is used, so counters are always on.
        """
        validate_run_args(
            start_hour=start_hour,
            num_hours=num_hours,
            seed=seed,
            first_ue_id=first_ue_id,
        )
        counts = self.resolve_counts(num_ues)

        for device_type in sorted(counts, key=int):
            if counts[device_type] > 0 and not self.model_set.device_ues.get(
                device_type
            ):
                raise ValueError(
                    f"no fitted model for device type {device_type.name}"
                )

        tele = telemetry if telemetry is not None else get_telemetry()
        with use_telemetry(tele), tele.span("generate"):
            trace = self._generate_trace(
                counts,
                start_hour=start_hour,
                num_hours=num_hours,
                seed=seed,
                first_ue_id=first_ue_id,
                checkpoint_path=checkpoint_path,
                resume=resume,
            )
        tele.count("events_emitted", len(trace))
        tele.record_peak_rss()
        return trace

    # ------------------------------------------------------------------
    def _generate_trace(
        self,
        counts: Dict[DeviceType, int],
        *,
        start_hour: int,
        num_hours: int,
        seed: int,
        first_ue_id: int,
        checkpoint_path: "Optional[str | os.PathLike[str]]",
        resume: bool,
    ) -> Trace:
        if checkpoint_path is not None or resume:
            from .checkpoint import generate_checkpointed

            return generate_checkpointed(
                self.model_set,
                counts,
                start_hour=start_hour,
                num_hours=num_hours,
                seed=seed,
                first_ue_id=first_ue_id,
                checkpoint_path=checkpoint_path,
                resume=resume,
            )
        population = population_for_counts(
            self.model_set, counts, seed=seed, start_hour=start_hour
        )
        columns = generate_columns(population, num_hours, first_ue_id)
        if len(columns[0]) == 0:
            return Trace.empty()
        return Trace(*columns, validate=False)

    # ------------------------------------------------------------------
    def generate_hour(
        self,
        num_ues: DeviceCounts,
        hour: int,
        *,
        seed: int = 0,
    ) -> Trace:
        """Convenience: synthesize a single one-hour trace at ``hour``."""
        return self.generate(num_ues, start_hour=hour, num_hours=1, seed=seed)
