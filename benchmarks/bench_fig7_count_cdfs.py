"""Figure 7: per-UE count CDFs, Ours vs Base, all three device types.

The paper plots the CDFs of SRV_REQ / S1_CONN_REL counts per UE for the
synthesized and real Scenario-2 traces, finding Ours visually
indistinguishable while Base diverges; numerically Ours achieves a
3.07x-11.14x smaller max y-distance.  Shape to reproduce: Ours' max
y-distance is smaller than Base's for every device and both events.
"""

import numpy as np

from repro.trace import DeviceType, EventType
from repro.validation import format_table, summarize

from _macro import compare_methods
from conftest import write_result

EVENTS = (EventType.SRV_REQ, EventType.S1_CONN_REL)


def _distances(scenario):
    out = {}
    for dt in DeviceType:
        _, results = compare_methods(scenario, dt, ("base", "ours"))
        for method, result in results.items():
            for event in EVENTS:
                out[(method, dt, event)] = result.micro[event.name]
    return out


def test_fig7_count_cdfs(benchmark, scenario2):
    distances = benchmark.pedantic(
        _distances, args=(scenario2,), rounds=1, iterations=1
    )

    # Render the CDF points for one device/event as the figure's data.
    real_counts = summarize(scenario2["real"], DeviceType.PHONE).samples["SRV_REQ"]
    ours_counts = summarize(
        scenario2["synthesized"]["ours"], DeviceType.PHONE
    ).samples["SRV_REQ"]
    grid = np.arange(0, max(real_counts.max(), ours_counts.max()) + 1)
    real_cdf = np.searchsorted(real_counts, grid, side="right") / real_counts.size
    ours_cdf = np.searchsorted(ours_counts, grid, side="right") / ours_counts.size
    cdf_lines = ["Figure 7 data (phones, SRV_REQ): count -> CDF(real), CDF(ours)"]
    for c, r, o in zip(grid[:30], real_cdf[:30], ours_cdf[:30]):
        cdf_lines.append(f"  {int(c):3d}  {r:.3f}  {o:.3f}")

    rows = []
    for dt in DeviceType:
        for event in EVENTS:
            base = distances[("base", dt, event)]
            ours = distances[("ours", dt, event)]
            ratio = base / ours if ours > 0 else float("inf")
            rows.append(
                [dt.name, event.name, f"{100 * base:.1f}%",
                 f"{100 * ours:.1f}%", f"{ratio:.2f}x"]
            )
    table = format_table(
        ["Device", "Event", "Base", "Ours", "Base/Ours (paper: 1.16-11.14x)"],
        rows,
        title="Figure 7: max y-distance of per-UE count CDFs, Scenario 2",
    )
    write_result("fig7_count_cdfs", table + "\n\n" + "\n".join(cdf_lines))

    for dt in DeviceType:
        for event in EVENTS:
            assert (
                distances[("ours", dt, event)]
                <= distances[("base", dt, event)] + 1e-9
            ), f"{dt.name}/{event.name}: ours worse than base"
