"""Ground-truth simulation speed: scalar reference against the engine.

Times the ``fit-eval-phone-5k`` set-up (5,000 phones: a two-hour and a
one-hour trace from 19:00) two ways in alternating order: the scalar
reference simulator kept as a test oracle, and ``simulate_ground_truth``
(the lockstep engine, in one process).  The oracle draws other random
streams, so its traces only match in distribution (checked in
``tests/test_groundtruth.py``).  The table reports the median wall time
and the quartiles of each arm.
"""

import time

import numpy as np

from oracle import groundtruth as oracle_groundtruth
from repro.groundtruth import simulate_ground_truth
from repro.trace import DeviceType
from repro.validation import format_table

from conftest import SCALE, write_result

POPULATION = {DeviceType.PHONE: max(500, int(5000 * SCALE))}
START_HOUR = 19
ROUNDS = 5

ARMS = {
    "reference (oracle)": oracle_groundtruth.simulate_ground_truth,
    "lockstep engine": simulate_ground_truth,
}


def _setup(simulate):
    start = time.perf_counter()
    for hours, seed in ((2, 11), (1, 12)):
        simulate(POPULATION, hours * 3600.0, start_hour=START_HOUR, seed=seed)
    return time.perf_counter() - start


def test_groundtruth_speed():
    for simulate in ARMS.values():  # warm imports
        simulate(50, 3600.0, start_hour=START_HOUR, seed=1)
    names = list(ARMS)
    times = {name: [] for name in names}
    for r in range(ROUNDS):
        for name in names[r % len(names):] + names[: r % len(names)]:
            times[name].append(_setup(ARMS[name]))

    engine = float(np.median(times["lockstep engine"]))
    rows = []
    for name in names:
        q1, med, q3 = np.percentile(times[name], [25, 50, 75])
        rows.append(
            [name, f"{med:.2f} s", f"{q1:.2f}-{q3:.2f} s", f"{med / engine:.2f}x"]
        )
    n = POPULATION[DeviceType.PHONE]
    text = format_table(
        ["Simulator", "median wall", "quartiles", "vs engine"],
        rows,
        title=(
            f"Ground-truth speed: {n:,} phones, 2 h + 1 h from "
            f"{START_HOUR}:00, {ROUNDS} rounds"
        ),
    )
    write_result("groundtruth_speed", text)
