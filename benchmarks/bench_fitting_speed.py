"""Fitting engine vs the per-segment reference fit.

Fits the same phone-cohort trace with ``fit_model_set`` and with the
test-only per-segment reference fit (``tests/oracle/fit.py``) at
several population sizes and writes machine-readable JSON
(``benchmarks/results/BENCH_fitting.json``) so regressions can be
tracked across commits, mirroring ``BENCH_generator.json``.  Also
measured: the engine with per-hour process fan-out, one job per hour
of day covering every device type (wall-clock wins require more than
one core and more hour-jobs than workers), and the content-addressed model cache (a warm hit skips the
whole pipeline and must cost a small fraction of the cold fit).

``REPRO_BENCH_FIT_UES`` overrides the population ladder (comma-
separated phone counts); the ``>= 5x`` speedup and ``< 5%`` warm-cache
assertions only apply at 20,000 UEs and above, where the vectorized
replay has data to amortize its setup over.
"""

import json
import os
import time

from oracle import fit as oracle_fit
from repro.groundtruth import simulate_ground_truth
from repro.model import fit_model_set
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType
from repro.validation import format_table

from conftest import RESULTS_DIR, fresh_trace, write_result

POPULATIONS = tuple(
    int(n)
    for n in os.environ.get("REPRO_BENCH_FIT_UES", "2000,20000").split(",")
)

#: The paper evaluates at the busiest hour; fitting cost is dominated
#: by event volume, so the bench starts the trace in the evening peak.
BENCH_START_HOUR = 19

REPEATS = 2

#: Trace length in hours (= fit jobs available to the process pool).
HOURS = 2

#: Population size from which the hard perf assertions apply.
ASSERT_FLOOR = 20_000

SPEEDUP_FLOOR = 5.0
WARM_FRACTION_CEILING = 0.05


def _timed_fit(trace, theta_n, **kwargs):
    telemetry = RunTelemetry()
    start = time.perf_counter()
    model_set = fit_model_set(
        trace,
        theta_n=theta_n,
        trace_start_hour=BENCH_START_HOUR,
        telemetry=telemetry,
        **kwargs,
    )
    return time.perf_counter() - start, model_set, telemetry


def _timed_reference_fit(trace, theta_n):
    start = time.perf_counter()
    model_set = oracle_fit.fit_model_set(
        trace, theta_n=theta_n, trace_start_hour=BENCH_START_HOUR
    )
    return time.perf_counter() - start, model_set, None


#: The two timed arms: the production fitter and the oracle.
FITTERS = {"compiled": _timed_fit, "reference": _timed_reference_fit}


def _best_of(fit, trace, theta_n, **kwargs):
    """Best wall time of ``REPEATS`` fits, and the last fit's model."""
    elapsed = float("inf")
    for _ in range(REPEATS):
        # A fresh copy: a repeat must cluster again.
        once, model_set, _ = fit(fresh_trace(trace), theta_n, **kwargs)
        elapsed = min(elapsed, once)
    return elapsed, model_set


def test_fitting_engine_speed(tmp_path):
    # Warm both fitters (imports, machine lowering) outside the clock.
    warmup = simulate_ground_truth(
        {DeviceType.PHONE: 50},
        duration=3600.0,
        seed=2,
        start_hour=BENCH_START_HOUR,
    )
    for fit in FITTERS.values():
        fit(warmup, 25)

    results = {
        "bench": "fitting_engines",
        "start_hour": BENCH_START_HOUR,
        "hours": HOURS,
        "populations": {},
    }
    rows = []
    for num_ues in POPULATIONS:
        trace = simulate_ground_truth(
            {DeviceType.PHONE: num_ues},
            duration=HOURS * 3600.0,
            seed=9,
            start_hour=BENCH_START_HOUR,
        )
        theta_n = max(25, num_ues // 10)
        ue_hours = num_ues * HOURS

        per_engine = {}
        fitted = {}
        for engine, fit in FITTERS.items():
            elapsed, model_set = _best_of(fit, trace, theta_n)
            per_engine[engine] = {
                "seconds": elapsed,
                "per_ue_hour_ms": elapsed / ue_hours * 1e3,
            }
            fitted[engine] = model_set
        # The exact-equality guarantee, re-checked where it matters most.
        assert (
            fitted["compiled"].to_dict() == fitted["reference"].to_dict()
        ), f"engines diverged at {num_ues} UEs"
        speedup = (
            per_engine["reference"]["seconds"]
            / per_engine["compiled"]["seconds"]
        )

        par_elapsed, _ = _best_of(_timed_fit, trace, theta_n, processes=0)

        cache_dir = tmp_path / f"cache-{num_ues}"
        cold_trace = fresh_trace(trace)
        cold_elapsed, cold_model, cold_tele = _timed_fit(
            cold_trace, theta_n, cache_dir=cache_dir
        )
        warm_elapsed, warm_model, warm_tele = _timed_fit(
            cold_trace, theta_n, cache_dir=cache_dir
        )
        assert cold_tele.counters.get("cache_misses") == 1
        assert warm_tele.counters.get("cache_hits") == 1
        assert warm_model.to_dict() == cold_model.to_dict()
        warm_fraction = warm_elapsed / cold_elapsed

        results["populations"][str(num_ues)] = {
            "PHONE": {
                "events": int(trace.times.size),
                "theta_n": theta_n,
                "reference": per_engine["reference"],
                "compiled": per_engine["compiled"],
                "speedup": speedup,
                "compiled_parallel": {
                    "seconds": par_elapsed,
                    "processes": os.cpu_count(),
                },
                "cache": {
                    "cold_seconds": cold_elapsed,
                    "warm_seconds": warm_elapsed,
                    "warm_fraction": warm_fraction,
                },
            }
        }
        rows.append(
            [
                f"{num_ues}",
                f"{per_engine['reference']['seconds']:.2f} s",
                f"{per_engine['compiled']['seconds']:.2f} s",
                f"{speedup:.1f}x",
                f"{par_elapsed:.2f} s",
                f"{warm_elapsed * 1e3:.0f} ms",
            ]
        )

        if num_ues >= ASSERT_FLOOR:
            assert speedup >= SPEEDUP_FLOOR, (
                f"compiled fit only {speedup:.1f}x faster at {num_ues} UEs"
            )
            assert warm_fraction < WARM_FRACTION_CEILING, (
                f"warm cache hit cost {warm_fraction:.1%} of the cold fit"
            )

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_fitting.json"
    json_path.write_text(json.dumps(results, indent=2) + "\n")

    text = format_table(
        ["phone UEs", "reference", "compiled", "speedup",
         "parallel", "warm cache"],
        rows,
        title=f"Fitting speed: {HOURS}-hour phone trace, engine vs reference",
    )
    write_result(
        "fitting_speed", text + f"\n[json in benchmarks/results/{json_path.name}]"
    )
