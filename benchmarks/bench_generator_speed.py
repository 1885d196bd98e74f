"""Generator throughput (§8.1's runtime report).

The paper's per-UE generator took 1.46 / 0.68 / 0.55 seconds to
synthesize a one-hour trace per phone / connected car / tablet on a
1.9 GHz Xeon core.  This bench measures the same quantity for this
implementation (whole-population generation divided by UE count, the
median of ``RUNS`` timed runs, printed with their interquartile range) —
absolute numbers differ with hardware; the shape is that per-UE cost is
well under a second and phones (the busiest devices) cost the most.
"""

import contextlib
import statistics
import time
from functools import partial

import numpy as np

from oracle import generator as oracle_generator
from repro.generator import TrafficGenerator
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType
from repro.validation import format_table

from conftest import write_result

UES_PER_DEVICE = 200

#: Timed runs per (device, engine) cell; a cell prints their median and
#: interquartile range, so a change smaller than the spread shows as such.
RUNS = 7

#: Interleaved (no-op, on) run pairs of the telemetry-overhead check.
OVERHEAD_PAIRS = 9

PAPER_TIMES = {"PHONE": "1.46 s", "CONNECTED_CAR": "0.68 s", "TABLET": "0.55 s"}


def test_generator_per_ue_speed(benchmark, method_models, busy_hour):
    generator = TrafficGenerator(method_models["ours"])
    generator.generate(10, start_hour=busy_hour, num_hours=1, seed=1)

    def _generate_phones():
        return generator.generate(
            {DeviceType.PHONE: UES_PER_DEVICE},
            start_hour=busy_hour,
            num_hours=1,
            seed=3,
        )

    trace = benchmark(_generate_phones)
    assert trace.num_ues > 0

    engines = (
        ("compiled", generator.generate),
        ("reference", partial(oracle_generator.generate, generator.model_set)),
    )
    rows = []
    for dt in DeviceType:
        per_engine = {engine: [] for engine, _ in engines}
        events = 0
        for _ in range(RUNS):
            for engine, generate in engines:
                start = time.perf_counter()
                tr = generate(
                    {dt: UES_PER_DEVICE}, start_hour=busy_hour, num_hours=1, seed=3
                )
                per_engine[engine].append(time.perf_counter() - start)
                events = len(tr)
        rows.append(
            [
                dt.name,
                _median_iqr_ms(per_engine["compiled"]),
                _median_iqr_ms(per_engine["reference"]),
                f"{events:,}",
                PAPER_TIMES[dt.name],
            ]
        )
    text = format_table(
        [
            "Device",
            f"per-UE-hour (compiled, median of {RUNS})",
            f"per-UE-hour (reference, median of {RUNS})",
            "events",
            "per-UE-hour (paper)",
        ],
        rows,
        title="Generator speed: one-hour trace synthesis per UE",
    )
    write_result("generator_speed", text)


def _median_iqr_ms(seconds):
    """Median per-UE time of the runs, with their interquartile range."""
    per_ue_ms = np.asarray(seconds) / UES_PER_DEVICE * 1e3
    q1, median, q3 = np.percentile(per_ue_ms, [25, 50, 75])
    return f"{median:.3f} ms (IQR {q3 - q1:.3f})"


class _NullTelemetry(RunTelemetry):
    """A collector whose hot-path hooks are no-ops — the counterfactual
    for measuring what the always-on instrumentation costs."""

    def count(self, name, delta=1):
        pass

    def progress(self, phase, done, total=0):
        pass

    def span(self, name):
        return contextlib.nullcontext()


def test_telemetry_overhead(method_models, busy_hour):
    """The always-on-counters contract: telemetry collection
    must add <3% to generation time on this bench's workload.

    The two arms alternate run by run (no-op, on, no-op, on, ...) and
    their medians are compared, so a slow stretch of the host lands on
    both arms instead of on whichever ran during it.

    False-failure rate: 7 of 50 back-to-back reruns failed (14%) on an
    otherwise idle 2-vCPU VM.  The 50 readings ran from -17.5% to
    +10.9% (the failures read +4.5% to +10.9%): the statistic spreads
    several times wider than the 3% it is held to.  Remeasured once
    the knot lookup became arithmetic (a smaller denominator), in
    batches of ten reruns alternating with the searched lookup: 9 of 50
    failed (18%, readings -17.2% to +22.9%) against the searched
    lookup's 10 of 60 (17%), so the rate stayed where it was.
    """
    generator = TrafficGenerator(method_models["ours"])
    pop = 1000
    arms = (("off", _NullTelemetry), ("on", RunTelemetry))
    for _, make_tele in arms:
        generator.generate(  # warm caches before timing
            {DeviceType.PHONE: pop},
            start_hour=busy_hour,
            num_hours=1,
            seed=3,
            telemetry=make_tele(),
        )
    runs = {label: [] for label, _ in arms}
    for _ in range(OVERHEAD_PAIRS):
        for label, make_tele in arms:
            runs[label].append(
                _timed(generator, {DeviceType.PHONE: pop}, busy_hour, make_tele())
            )
    timings = {label: statistics.median(times) for label, times in runs.items()}
    overhead = timings["on"] / timings["off"] - 1.0
    rows = [
        [
            f"{pop:,}",
            f"{timings['off'] * 1e3:,.1f} ms",
            f"{timings['on'] * 1e3:,.1f} ms",
            f"{overhead * 100.0:+.2f}%",
        ]
    ]
    assert overhead < 0.03, (
        f"telemetry overhead {overhead:.1%} breaches the <3% always-on budget"
    )
    text = format_table(
        ["UEs", "telemetry no-op", "telemetry on", "overhead"],
        rows,
        title=(
            "Telemetry overhead: always-on counters vs no-op collector "
            f"(medians of {OVERHEAD_PAIRS} interleaved pairs)"
        ),
    )
    write_result("telemetry_overhead", text)


def _timed(generator, population, busy_hour, telemetry):
    start = time.perf_counter()
    generator.generate(
        population,
        start_hour=busy_hour,
        num_hours=1,
        seed=3,
        telemetry=telemetry,
    )
    return time.perf_counter() - start
