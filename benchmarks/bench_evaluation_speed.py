"""Evaluation engine vs the per-event reference metrics.

Runs ``evaluate_methods`` on the same phone-cohort train/validation
pair at several population sizes, once as shipped and once with the
per-event reference replay (``tests/oracle/replay.py``) swapped into
the Table-4/5 metrics, and writes
machine-readable JSON (``benchmarks/results/BENCH_evaluation.json``),
mirroring ``BENCH_fitting.json``.  Models are pre-fitted once (outside
the clock) and passed in, so the timings isolate generation plus the
Table-4/5 metric computation — whole-cohort array replays versus the
per-event reference walk.  Also measured: the same evaluation with
``processes=0``, which fans the generations across all CPUs (the
summaries stay in the calling process).  Each cell is the median of ``RUNS`` timed
runs, printed with their interquartile range.  The timed engine runs report to the
bench's ambient telemetry collector, so ``evaluation_speed.telemetry.json``
carries their ``evaluate`` and ``eval-*`` spans.

``REPRO_BENCH_EVAL_UES`` overrides the population ladder
(comma-separated phone counts); the ``>= 5x`` speedup assertion only
applies at 20,000 UEs and above, where the vectorized replay has data
to amortize its setup over.
"""

import contextlib
import json
import os
import time
from functools import partial

import numpy as np

from oracle import replay as oracle_replay
from repro.baselines import fit_method
from repro.groundtruth import simulate_ground_truth
from repro.harness import evaluate_methods
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType
from repro.validation import format_table, summary

from conftest import RESULTS_DIR, fresh_trace, write_result

POPULATIONS = tuple(
    int(n)
    for n in os.environ.get("REPRO_BENCH_EVAL_UES", "2000,20000").split(",")
)

#: The paper validates at the busiest hour; metric cost is dominated by
#: event volume, so the bench evaluates the evening peak.
BENCH_START_HOUR = 19

#: Timed runs per cell; a cell prints their median and interquartile
#: range, so a change smaller than the spread shows as such.
RUNS = 7

METHODS = ("base", "ours")

#: Population size from which the hard perf assertion applies.
ASSERT_FLOOR = 20_000

SPEEDUP_FLOOR = 5.0


def _median_iqr(seconds):
    """``(median, interquartile range)`` of the runs, in seconds."""
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return float(median), float(q3 - q1)


def _cell(timing):
    return f"{timing['seconds']:.2f} s (IQR {timing['iqr']:.2f})"


def _timed_runs(evaluate, train, real, *args, **kwargs):
    """``RUNS`` timed runs, each on a fresh copy of the held-out trace:
    the timing summary and the last report."""
    runs = []
    for _ in range(RUNS):
        once, report = evaluate(train, fresh_trace(real), *args, **kwargs)
        runs.append(once)
    median, iqr = _median_iqr(runs)
    return {"seconds": median, "iqr": iqr, "runs": runs}, report


def _timed_eval(train, real, models, **kwargs):
    """Time one ``evaluate_methods`` run (ambient telemetry by default)."""
    start = time.perf_counter()
    report = evaluate_methods(
        train,
        real,
        methods=METHODS,
        models=models,
        generation_hour=BENCH_START_HOUR,
        **kwargs,
    )
    return time.perf_counter() - start, report


@contextlib.contextmanager
def _reference_metrics(monkeypatch):
    """Swap the per-event reference replay into the metrics."""
    with monkeypatch.context() as patch:
        patch.setattr(
            summary,
            "classify_category2_by_device",
            oracle_replay.classify_category2_by_device,
        )
        patch.setattr(summary, "replay_trace", oracle_replay.ReferenceReplay)
        yield


def _timed_reference_eval(monkeypatch, train, real, models):
    # A private collector keeps the reference arm out of the report.
    with _reference_metrics(monkeypatch):
        return _timed_eval(train, real, models, telemetry=RunTelemetry())


def test_evaluation_engine_speed(monkeypatch):
    evaluators = {
        "compiled": _timed_eval,
        "reference": partial(_timed_reference_eval, monkeypatch),
    }
    # Warm both arms (imports, machine lowering) outside the clock.
    warm_train = simulate_ground_truth(
        {DeviceType.PHONE: 50},
        duration=7200.0,
        seed=2,
        start_hour=BENCH_START_HOUR,
    )
    warm_real = simulate_ground_truth(
        {DeviceType.PHONE: 50},
        duration=3600.0,
        seed=3,
        start_hour=BENCH_START_HOUR,
    )
    warm_models = {
        m: fit_method(m, warm_train, theta_n=25,
                      trace_start_hour=BENCH_START_HOUR)
        for m in METHODS
    }
    _timed_eval(warm_train, warm_real, warm_models, telemetry=RunTelemetry())
    _timed_reference_eval(monkeypatch, warm_train, warm_real, warm_models)

    results = {
        "bench": "evaluation_engines",
        "generation_hour": BENCH_START_HOUR,
        "methods": list(METHODS),
        "populations": {},
    }
    rows = []
    for num_ues in POPULATIONS:
        train = simulate_ground_truth(
            {DeviceType.PHONE: num_ues},
            duration=2 * 3600.0,
            seed=9,
            start_hour=BENCH_START_HOUR,
        )
        real = simulate_ground_truth(
            {DeviceType.PHONE: num_ues},
            duration=3600.0,
            seed=10,
            start_hour=BENCH_START_HOUR,
        )
        theta_n = max(25, num_ues // 10)
        models = {
            m: fit_method(m, train, theta_n=theta_n,
                          trace_start_hour=BENCH_START_HOUR)
            for m in METHODS
        }

        per_engine = {}
        reports = {}
        for engine, evaluate in evaluators.items():
            per_engine[engine], reports[engine] = _timed_runs(
                evaluate, train, real, models
            )
        # The exact-equality guarantee, re-checked where it matters most.
        assert (
            reports["compiled"].to_dict() == reports["reference"].to_dict()
        ), f"engine and reference diverged at {num_ues} UEs"
        speedup = (
            per_engine["reference"]["seconds"]
            / per_engine["compiled"]["seconds"]
        )

        parallel, par_report = _timed_runs(
            _timed_eval, train, real, models, processes=0
        )
        assert (
            par_report.to_dict() == reports["compiled"].to_dict()
        ), f"parallel metrics diverged at {num_ues} UEs"

        results["populations"][str(num_ues)] = {
            "PHONE": {
                "events_real": int(real.times.size),
                "theta_n": theta_n,
                "reference": per_engine["reference"],
                "compiled": per_engine["compiled"],
                "speedup": speedup,
                "compiled_parallel": {
                    **parallel,
                    "processes": os.cpu_count(),
                },
            }
        }
        rows.append(
            [
                f"{num_ues}",
                _cell(per_engine["reference"]),
                _cell(per_engine["compiled"]),
                f"{speedup:.1f}x",
                _cell(parallel),
            ]
        )

        if num_ues >= ASSERT_FLOOR:
            assert speedup >= SPEEDUP_FLOOR, (
                f"compiled evaluation only {speedup:.1f}x faster "
                f"at {num_ues} UEs"
            )

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_evaluation.json"
    json_path.write_text(json.dumps(results, indent=2) + "\n")

    text = format_table(
        [
            "phone UEs",
            f"reference (median of {RUNS})",
            f"compiled (median of {RUNS})",
            "speedup (medians)",
            f"parallel (median of {RUNS})",
        ],
        rows,
        title="Evaluation speed: 1-hour phone validation, engine vs reference",
    )
    write_result(
        "evaluation_speed", text + f"\n[json in benchmarks/results/{json_path.name}]"
    )
