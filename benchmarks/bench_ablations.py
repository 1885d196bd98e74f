"""Ablations of the design choices DESIGN.md calls out.

1. **Clustering thresholds** (theta_n sweep): granularity vs fidelity —
   the paper fixes theta_f=5, theta_n=1000 by binary search; here the
   sweep shows the fidelity/model-count trade-off directly.
2. **Clustering on/off for the full model**: quantifies what the
   adaptive clustering contributes beyond the two-level machine +
   empirical CDFs (complements the V1/V2 comparisons).
3. **Empirical-CDF resolution** (max_cdf_points sweep): how much the
   stored quantile knots can be compressed before fidelity degrades.
"""

from repro.generator import TrafficGenerator
from repro.model import fit_model_set
from repro.statemachines import lte
from repro.trace import DeviceType
from repro.validation import compare, format_table, summarize

from conftest import START_HOUR, THETA_N, write_result

P = DeviceType.PHONE


def _fidelity(model_set, scenario, busy_hour):
    syn = TrafficGenerator(model_set).generate(
        scenario["num_ues"], start_hour=busy_hour, num_hours=1, seed=99
    )
    result = compare(summarize(scenario["real"], P), summarize(syn, P))
    return result.macro_max_error, result.micro[lte.CONNECTED]


def test_ablation_theta_n(benchmark, collection_trace, scenario1, busy_hour):
    def _sweep():
        out = {}
        for theta_n in (THETA_N // 3 or 1, THETA_N, THETA_N * 4, 10**9):
            ms = fit_model_set(
                collection_trace,
                theta_n=theta_n,
                trace_start_hour=START_HOUR,
            )
            out[theta_n] = (ms.num_models, *_fidelity(ms, scenario1, busy_hour))
        return out

    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        [tn if tn < 10**9 else "inf (1 cluster)", n, f"{100 * macro:.1f}%", f"{100 * micro:.1f}%"]
        for tn, (n, macro, micro) in results.items()
    ]
    text = format_table(
        ["theta_n", "models", "macro err (P)", "CONNECTED y-dist (P)"],
        rows,
        title="Ablation: clustering size threshold",
    )
    write_result("ablation_theta_n", text)
    # The check is loose: at least one threshold keeps the CONNECTED
    # dwell-time y-distance under 50%.  The table itself reports how
    # fidelity moves with the number of clusters.
    micros = [micro for (_, _, micro) in results.values()]
    assert min(micros) < 0.5


def test_ablation_cdf_resolution(benchmark, collection_trace, scenario1, busy_hour):
    def _sweep():
        out = {}
        for points in (4, 16, 64, 512):
            ms = fit_model_set(
                collection_trace,
                theta_n=THETA_N,
                trace_start_hour=START_HOUR,
                max_cdf_points=points,
            )
            out[points] = _fidelity(ms, scenario1, busy_hour)
        return out

    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        [points, f"{100 * macro:.1f}%", f"{100 * micro:.1f}%"]
        for points, (macro, micro) in results.items()
    ]
    text = format_table(
        ["max CDF knots", "macro err (P)", "CONNECTED y-dist (P)"],
        rows,
        title="Ablation: empirical-CDF resolution",
    )
    write_result("ablation_cdf_resolution", text)
    # Even heavily compressed CDFs keep the macroscopic mix intact.
    assert all(macro < 0.15 for macro, _ in results.values())
