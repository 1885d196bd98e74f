"""The §8 evaluation pipeline as a reusable harness.

``evaluate_methods`` packages the paper's validation end to end: fit
the requested methods on a training trace, synthesize a validation hour
for a given population, and compute the macroscopic (Tables 4/11) and
microscopic (Table 5) fidelity metrics against a held-out real trace.
The benchmark suite and the CLI both build on it; downstream users can
run the identical evaluation on their own traces.

The metrics replay whole cohorts as flat arrays via
:mod:`repro.statemachines.compiled_replay`.  Each (method × device)
cell is one :func:`repro.jobs.run_jobs` job; with ``processes`` they
fan out over worker processes that memory-map the traces.

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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines import fit_method
from ..generator import TrafficGenerator
from ..jobs import Job, check_processes, run_jobs
from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType
from ..trace.trace import Trace
from ..validation.breakdown import (
    BREAKDOWN_ROWS,
    breakdown_difference,
    breakdown_with_states,
)
from ..validation.microscopic import MICRO_QUANTITIES, micro_comparison_partial
from ..validation.report import format_table

DEFAULT_METHODS = ("base", "v1", "v2", "ours")


@dataclasses.dataclass
class MethodResult:
    """Everything measured for one method."""

    method: str
    model: ModelSet
    synthesized: Trace
    macro_diff: Dict[DeviceType, Dict[str, float]]
    macro_max_error: Dict[DeviceType, float]
    micro: Dict[DeviceType, Dict[str, float]]
    #: Micro quantities that could not be measured, with the reason —
    #: always disjoint from ``micro[device]``'s keys.
    micro_skipped: Dict[DeviceType, Dict[str, str]] = dataclasses.field(
        default_factory=dict
    )


@dataclasses.dataclass
class EvaluationReport:
    """The full §8 comparison across methods."""

    real: Trace
    num_ues: int
    generation_hour: int
    results: Dict[str, MethodResult]

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
        methods = list(self.results)
        blocks: List[str] = []
        for device_type in DeviceType:
            if len(self.real.filter_device(device_type)) == 0:
                continue
            real_bd = breakdown_with_states(self.real, device_type)
            rows = []
            for row_key in BREAKDOWN_ROWS:
                rows.append(
                    [row_key, f"{100 * real_bd[row_key]:.1f}%"]
                    + [
                        f"{100 * self.results[m].macro_diff[device_type][row_key]:+.1f}%"
                        for m in methods
                    ]
                )
            blocks.append(
                format_table(
                    ["Event", "Real"] + [m.capitalize() for m in methods],
                    rows,
                    title=f"Macroscopic breakdown - {device_type.name}",
                )
            )
            micro_rows = []
            for quantity in MICRO_QUANTITIES:
                micro_rows.append(
                    [quantity]
                    + [
                        _fmt_pct(self.results[m].micro[device_type].get(quantity))
                        for m in methods
                    ]
                )
            blocks.append(
                format_table(
                    ["Quantity"] + [m.capitalize() for m in methods],
                    micro_rows,
                    title=f"Microscopic max y-distance - {device_type.name}",
                )
            )
            skip_lines = [
                f"  [{m}] {quantity}: {reason}"
                for m in methods
                for quantity, reason in self.results[m]
                .micro_skipped.get(device_type, {})
                .items()
            ]
            if skip_lines:
                blocks.append(
                    f"Skipped quantities - {device_type.name}:\n"
                    + "\n".join(skip_lines)
                )
        return "\n\n".join(blocks)

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


def _fmt_pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:.1f}%"


def _device_metrics(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
    *,
    real_num_ues: Optional[int],
    syn_num_ues: Optional[int],
) -> Tuple[Dict[str, float], float, Dict[str, float], Dict[str, str]]:
    """All metrics of one (method, device) cell of Tables 4/5."""
    macro_diff = breakdown_difference(real, synthesized, device_type)
    macro_max = max(abs(v) for v in macro_diff.values())
    micro, skipped = micro_comparison_partial(
        real,
        synthesized,
        device_type,
        real_num_ues=real_num_ues,
        syn_num_ues=syn_num_ues,
    )
    return macro_diff, macro_max, micro, skipped


def _metrics_job(ctx: dict, method: str, device_code: int):
    """One (method, device) cell as a :func:`repro.jobs.run_jobs` job."""
    return _device_metrics(
        ctx["real"],
        ctx[f"syn-{method}"],
        DeviceType(device_code),
        real_num_ues=ctx["real_num_ues"].get(device_code),
        syn_num_ues=ctx["syn_num_ues"][method].get(device_code),
    )


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
        pad the zero-event UEs into the count CDFs.
    models:
        Pre-fitted model sets by method name — skips fitting for the
        methods present (useful when sweeping scenarios).
    processes:
        ``None`` or ``1`` computes metrics serially in-process; ``0``
        fans per-(method × device) jobs across all CPUs; ``>= 2`` uses
        that many worker processes (fitting and generation fan out the
        same way).  A job that keeps failing raises
        :class:`repro.jobs.JobFailedError` (stage ``"eval"``).
    cache_dir:
        Content-addressed model-cache directory passed to the fitter
        (``None`` disables caching).
    telemetry:
        Explicit collector; defaults to the ambient one.  Phases appear
        as ``eval-fit`` / ``eval-generate`` / ``eval-metrics`` spans.
    """
    check_processes(processes)
    if num_ues is None:
        num_ues = real.num_ues

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
    devices = [
        device_type
        for device_type in DeviceType
        if len(real.filter_device(device_type)) > 0
    ]
    real_num_ues = {
        int(device_type): real.filter_device(device_type).num_ues
        for device_type in devices
    }

    fitted: Dict[str, ModelSet] = {}
    synthesized: Dict[str, Trace] = {}
    syn_num_ues: Dict[str, Dict[int, int]] = {}
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
            syn_num_ues[method] = {
                int(dt): n
                for dt, n in generator.resolve_counts(num_ues).items()
            }
            synthesized[method] = generator.generate(
                num_ues,
                start_hour=generation_hour,
                num_hours=1,
                seed=seed,
                processes=processes,
            )
    tele.count("eval_methods", len(methods))

    cells = [(method, int(device_type)) for method in methods for device_type in devices]
    tele.count("eval_metric_jobs", len(cells))
    jobs = [
        Job(cell, {"method": cell[0], "device": DeviceType(cell[1]).name})
        for cell in cells
    ]
    shared = {
        "real": real,
        "real_num_ues": real_num_ues,
        "syn_num_ues": syn_num_ues,
        **{f"syn-{method}": synthesized[method] for method in methods},
    }
    with tele.span("eval-metrics"):
        metrics = {
            cells[i]: cell_metrics
            for i, cell_metrics in run_jobs(
                _metrics_job,
                jobs,
                shared=shared,
                processes=processes,
                stage="eval",
            )
        }

    results: Dict[str, MethodResult] = {}
    for method in methods:
        macro_diff: Dict[DeviceType, Dict[str, float]] = {}
        macro_max: Dict[DeviceType, float] = {}
        micro: Dict[DeviceType, Dict[str, float]] = {}
        micro_skipped: Dict[DeviceType, Dict[str, str]] = {}
        for device_type in devices:
            diff, max_err, values, skipped = metrics[(method, int(device_type))]
            macro_diff[device_type] = diff
            macro_max[device_type] = max_err
            micro[device_type] = values
            if skipped:
                micro_skipped[device_type] = skipped
        results[method] = MethodResult(
            method=method,
            model=fitted[method],
            synthesized=synthesized[method],
            macro_diff=macro_diff,
            macro_max_error=macro_max,
            micro=micro,
            micro_skipped=micro_skipped,
        )
    return EvaluationReport(
        real=real,
        num_ues=num_ues,
        generation_hour=generation_hour,
        results=results,
    )
