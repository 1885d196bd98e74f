"""Shared comparisons, rendering and assertions for the §8 tables."""

from repro.trace import DeviceType
from repro.validation import (
    BREAKDOWN_ROWS,
    breakdown_with_states,
    compare,
    format_table,
    summarize,
)

METHOD_ORDER = ("base", "v1", "v2", "ours")


def compare_methods(scenario: dict, dt: DeviceType, methods=METHOD_ORDER):
    """The real ``dt`` summary and each method's comparison against it
    (count CDFs unpadded on both sides)."""
    real = summarize(scenario["real"], dt)
    return real, {
        m: compare(real, summarize(scenario["synthesized"][m], dt))
        for m in methods
    }


def run_macro_table(scenario: dict, title: str) -> str:
    """Compute + render one macroscopic comparison table."""
    blocks = []
    for dt in DeviceType:
        real, results = compare_methods(scenario, dt)
        rows = []
        for row_key in BREAKDOWN_ROWS:
            rows.append(
                [row_key, f"{100 * real.breakdown[row_key]:.1f}%"]
                + [
                    f"{100 * results[m].macro_diff[row_key]:+.1f}%"
                    for m in METHOD_ORDER
                ]
            )
        blocks.append(
            format_table(
                ["Event", "Real"] + [m.capitalize() for m in METHOD_ORDER],
                rows,
                title=f"{title} - {dt.name}",
            )
        )
    return "\n\n".join(blocks)


def assert_macro_shape(scenario: dict) -> None:
    """The paper's ordering claims: Ours ~ V2 << V1 < Base."""
    syn = scenario["synthesized"]
    for dt in DeviceType:
        _, results = compare_methods(scenario, dt)
        errors = {m: results[m].macro_max_error for m in METHOD_ORDER}
        assert errors["ours"] < 0.12, f"{dt.name}: ours err {errors['ours']:.3f}"
        assert errors["base"] > 1.5 * errors["ours"], (
            f"{dt.name}: base {errors['base']:.3f} vs ours {errors['ours']:.3f}"
        )
        # The EMM-ECM baselines leak HO into IDLE; the two-level methods don't.
        assert breakdown_with_states(syn["base"], dt)["HO (IDLE)"] > 0.0
        assert breakdown_with_states(syn["ours"], dt)["HO (IDLE)"] == 0.0
        assert breakdown_with_states(syn["v2"], dt)["HO (IDLE)"] == 0.0
