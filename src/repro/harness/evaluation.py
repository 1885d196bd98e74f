"""The §8 evaluation pipeline as a reusable harness.

``evaluate_methods`` packages the paper's validation end to end: fit
the requested methods on a training trace, synthesize a validation hour
for a given population, and compute the macroscopic (Tables 4/11) and
microscopic (Table 5) fidelity metrics against a held-out real trace.
The benchmark suite and the CLI both build on it; downstream users can
run the identical evaluation on their own traces.

Each trace — the real one and one per method — is summarized in the
calling process (:func:`repro.validation.summarize`: one replay for
all device types, held on the trace, so a held-out trace evaluated
again is not replayed again); ``processes`` fans out only the fits and
the generations.  Each method's summaries are then compared with the
real ones (:func:`repro.validation.compare`).

Micro-metrics are measured **per quantity**: a quantity that cannot be
computed (say, no complete IDLE sojourn in a short trace) lands in
``MethodResult.micro_skipped`` with the reason, and never discards the
quantities that *can* be computed.  Count CDFs are padded to the
nominal population on both sides (zero-event UEs are invisible in a
trace but part of the population the CDF describes), so Table-5
numbers stay unbiased when the synthesized population differs from the
real one — the paper's Scenario 2.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Mapping, Optional, Sequence

from ..baselines import fit_method
from ..generator import TrafficGenerator
from ..jobs import check_processes
from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType, check_counts
from ..trace.trace import Trace
from ..validation.microscopic import MICRO_QUANTITIES
from ..validation.report import format_comparison
from ..validation.summary import Comparison, DeviceSummary, compare, summarize

DEFAULT_METHODS = ("base", "v1", "v2", "ours")


@dataclasses.dataclass
class MethodResult:
    """Everything measured for one method."""

    method: str
    model: ModelSet
    synthesized: Trace
    #: The synthesized trace scored against the real one, per device
    #: type of the real trace.
    comparisons: Dict[DeviceType, Comparison]

    @property
    def macro_diff(self) -> Dict[DeviceType, Dict[str, float]]:
        """Signed Table-4 row differences (synthesized - real)."""
        return {dt: c.macro_diff for dt, c in self.comparisons.items()}

    @property
    def macro_max_error(self) -> Dict[DeviceType, float]:
        """Largest absolute Table-4 row difference."""
        return {dt: c.macro_max_error for dt, c in self.comparisons.items()}

    @property
    def micro(self) -> Dict[DeviceType, Dict[str, float]]:
        """Table-5 max y-distances of the measurable quantities."""
        return {dt: c.micro for dt, c in self.comparisons.items()}

    @property
    def micro_skipped(self) -> Dict[DeviceType, Dict[str, str]]:
        """Micro quantities that could not be measured, with the reason
        (devices with none are left out) — always disjoint from
        ``micro[device]``'s keys."""
        return {
            dt: c.micro_skipped
            for dt, c in self.comparisons.items()
            if c.micro_skipped
        }


@dataclasses.dataclass
class EvaluationReport:
    """The full §8 comparison across methods."""

    real: Trace
    num_ues: int
    generation_hour: int
    results: Dict[str, MethodResult]
    #: The real trace's summary per device type it contains, in
    #: ``DeviceType`` order.
    real_summary: Dict[DeviceType, DeviceSummary]

    def winner(self, device_type: DeviceType) -> str:
        """Method with the smallest macroscopic error for a device.

        Raises :class:`ValueError` if no method measured that device
        type at all (previously an arbitrary first method won the
        all-``inf`` tie).
        """
        measured = {
            method: result.macro_max_error[device_type]
            for method, result in self.results.items()
            if device_type in result.macro_max_error
        }
        if not measured:
            raise ValueError(
                f"no method measured device type {device_type.name}; "
                "the real trace has no such UEs"
            )
        return min(measured, key=measured.__getitem__)

    def to_text(self) -> str:
        """Render the macro and micro tables for every device type."""
        return "\n\n".join(
            format_comparison(
                real,
                {m: r.comparisons[device_type] for m, r in self.results.items()},
            )
            for device_type, real in self.real_summary.items()
        )

    def to_dict(self) -> dict:
        """JSON-ready view of the report (no traces or model objects)."""
        return {
            "num_ues": self.num_ues,
            "generation_hour": self.generation_hour,
            "methods": {
                method: {
                    "macro_diff": {
                        dt.name: dict(rows)
                        for dt, rows in result.macro_diff.items()
                    },
                    "macro_max_error": {
                        dt.name: value
                        for dt, value in result.macro_max_error.items()
                    },
                    "micro": {
                        dt.name: dict(values)
                        for dt, values in result.micro.items()
                    },
                    "micro_skipped": {
                        dt.name: dict(reasons)
                        for dt, reasons in result.micro_skipped.items()
                    },
                }
                for method, result in self.results.items()
            },
        }


def evaluate_methods(
    train: Trace,
    real: Trace,
    *,
    num_ues: Optional[int] = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    theta_f: float = 5.0,
    theta_n: int = 1000,
    trace_start_hour: int = 0,
    generation_hour: int = 0,
    seed: int = 0,
    models: Optional[Mapping[str, ModelSet]] = None,
    processes: Optional[int] = None,
    cache_dir: "Optional[str | os.PathLike[str]]" = None,
    telemetry: Optional[RunTelemetry] = None,
) -> EvaluationReport:
    """Run the paper's method comparison.

    Parameters
    ----------
    train:
        Training trace (what the carrier would collect).
    real:
        Held-out one-hour validation trace, starting at
        ``generation_hour``.
    num_ues:
        Synthesized population size; defaults to the real trace's UE
        count (the paper's Scenario 1 setup).  Per-device nominal
        populations are resolved by the training device mix and used to
        pad the zero-event UEs into the count CDFs.  A count that is not
        whole, or is negative, raises ``ValueError`` before any fit.
    models:
        Pre-fitted model sets by method name — skips fitting for the
        methods present (useful when sweeping scenarios).
    processes:
        Worker processes for the fits and the generations: ``None`` or
        ``1`` runs them in-process, ``0`` uses all CPUs, ``>= 2`` that
        many (see :func:`repro.jobs.run_jobs`).  The summaries are
        always computed in-process.
    cache_dir:
        Content-addressed model-cache directory passed to the fitter
        (``None`` disables caching).
    telemetry:
        Explicit collector; defaults to the ambient one.  Phases appear
        as ``eval-fit`` / ``eval-generate`` / ``eval-metrics`` spans;
        ``eval-metrics`` splits into ``eval-summarize`` (the summaries)
        and ``eval-compare`` (the comparisons).
    """
    check_processes(processes)
    if num_ues is None:
        num_ues = real.num_ues
    check_counts(num_ues)

    tele = telemetry if telemetry is not None else get_telemetry()
    with use_telemetry(tele), tele.span("evaluate"):
        report = _evaluate_methods(
            train,
            real,
            num_ues=num_ues,
            methods=methods,
            theta_f=theta_f,
            theta_n=theta_n,
            trace_start_hour=trace_start_hour,
            generation_hour=generation_hour,
            seed=seed,
            models=models,
            processes=processes,
            cache_dir=cache_dir,
        )
    tele.record_peak_rss()
    return report


def _evaluate_methods(
    train: Trace,
    real: Trace,
    *,
    num_ues: int,
    methods: Sequence[str],
    theta_f: float,
    theta_n: int,
    trace_start_hour: int,
    generation_hour: int,
    seed: int,
    models: Optional[Mapping[str, ModelSet]],
    processes: Optional[int],
    cache_dir: "Optional[str | os.PathLike[str]]",
) -> EvaluationReport:
    tele = get_telemetry()
    devices = [dt for dt in DeviceType if (real.device_types == dt).any()]

    fitted: Dict[str, ModelSet] = {}
    synthesized: Dict[str, Trace] = {}
    populations: Dict[str, Dict[DeviceType, int]] = {}
    with tele.span("eval-fit"):
        for method in methods:
            if models is not None and method in models:
                fitted[method] = models[method]
            else:
                fitted[method] = fit_method(
                    method,
                    train,
                    theta_f=theta_f,
                    theta_n=theta_n,
                    trace_start_hour=trace_start_hour,
                    processes=processes,
                    cache_dir=cache_dir,
                )
    with tele.span("eval-generate"):
        for method in methods:
            generator = TrafficGenerator(fitted[method])
            # The nominal per-device populations the generator will
            # materialize — the count CDFs must be padded to these, not
            # to the UEs that happened to emit events (Scenario 2).
            populations[method] = generator.resolve_counts(num_ues)
            synthesized[method] = generator.generate(
                num_ues,
                start_hour=generation_hour,
                num_hours=1,
                seed=seed,
                processes=processes,
            )
    tele.count("eval_methods", len(methods))

    with tele.span("eval-metrics"):
        with tele.span("eval-summarize"):
            real_summary = {
                device_type: summarize(real, device_type) for device_type in devices
            }
            summaries = {
                method: {
                    device_type: summarize(
                        synthesized[method],
                        device_type,
                        num_ues=populations[method].get(device_type),
                    )
                    for device_type in devices
                }
                for method in methods
            }
        with tele.span("eval-compare"):
            results = {
                method: MethodResult(
                    method=method,
                    model=fitted[method],
                    synthesized=synthesized[method],
                    comparisons={
                        device_type: compare(
                            real_summary[device_type],
                            summaries[method][device_type],
                        )
                        for device_type in devices
                    },
                )
                for method in methods
            }
    return EvaluationReport(
        real=real,
        num_ues=num_ues,
        generation_hour=generation_hour,
        results=results,
        real_summary=real_summary,
    )

