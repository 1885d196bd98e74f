"""Generation engine vs the per-UE reference generator.

Measures per-UE-hour synthesis cost for every device type under the
generation engine and the test-only reference generator
(``tests/oracle/generator.py``) at two population sizes, and writes the
results as machine-readable JSON
(``benchmarks/results/BENCH_generator.json``) so regressions can be
tracked across commits.  The engine's win grows with population size:
vectorized cohort stepping amortizes its per-round cost over every
active UE, while the reference generator pays Python-level interpreter
work per event.
"""

import json
import time
from functools import partial

from oracle import generator as oracle_generator
from repro.generator import TrafficGenerator
from repro.trace import DeviceType
from repro.validation import format_table

from conftest import RESULTS_DIR, write_result

POPULATIONS = (200, 2000)
REPEATS = 2


def _best_time(generate, num_ues, device, hour):
    best = float("inf")
    events = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        trace = generate({device: num_ues}, start_hour=hour, num_hours=1, seed=3)
        best = min(best, time.perf_counter() - start)
        events = len(trace)
    return best, events


def test_compiled_vs_reference_speed(method_models, busy_hour):
    generator = TrafficGenerator(method_models["ours"])
    generator.generate(10, start_hour=busy_hour, num_hours=1, seed=1)
    engines = {
        "compiled": generator.generate,
        "reference": partial(oracle_generator.generate, method_models["ours"]),
    }

    results = {
        "bench": "generator_engines",
        "busy_hour": busy_hour,
        "populations": {},
    }
    rows = []
    for num_ues in POPULATIONS:
        pop = {}
        for device in DeviceType:
            per_device = {}
            for engine, generate in engines.items():
                elapsed, events = _best_time(generate, num_ues, device, busy_hour)
                per_device[engine] = {
                    "per_ue_hour_ms": elapsed / num_ues * 1e3,
                    "events": events,
                }
            speedup = (
                per_device["reference"]["per_ue_hour_ms"]
                / per_device["compiled"]["per_ue_hour_ms"]
            )
            per_device["speedup"] = speedup
            pop[device.name] = per_device
            rows.append(
                [
                    f"{num_ues}",
                    device.name,
                    f"{per_device['reference']['per_ue_hour_ms']:.3f} ms",
                    f"{per_device['compiled']['per_ue_hour_ms']:.3f} ms",
                    f"{speedup:.1f}x",
                ]
            )
        results["populations"][str(num_ues)] = pop

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_generator.json"
    json_path.write_text(json.dumps(results, indent=2) + "\n")

    text = format_table(
        ["UEs", "Device", "reference", "compiled", "speedup"],
        rows,
        title="Engine speed: per-UE-hour synthesis cost",
    )
    write_result(
        "compiled_speed", text + f"\n[json in benchmarks/results/{json_path.name}]"
    )

    for pop in results["populations"].values():
        for device in pop.values():
            assert device["speedup"] > 1.0
