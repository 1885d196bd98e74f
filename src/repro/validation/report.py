"""Plain-text table rendering for benchmark reports.

The benchmark harness prints the regenerated paper tables with these
helpers so every bench emits a uniform, diffable artifact;
:func:`format_comparison` renders the §8 Tables 4/5 of one device.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .microscopic import MICRO_QUANTITIES
from .summary import BREAKDOWN_ROWS, Comparison, DeviceSummary


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table.

    Floats are rendered with sensible precision; everything else via
    ``str``.
    """
    def _cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:+.1%}" if -1.0 <= value <= 1.0 and value != int(value) else f"{value:.3g}"
        return str(value)

    rendered = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered)) if rendered else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_percent(value: float, *, signed: bool = False) -> str:
    """Render a fraction as the paper's percentage style (one decimal)."""
    if signed:
        return f"{value * 100:+.1f}%"
    return f"{value * 100:.1f}%"


def format_ratio(value: float) -> str:
    """Render an improvement factor ("4.77x")."""
    return f"{value:.2f}x"


def format_comparison(
    real: DeviceSummary, columns: Mapping[str, Comparison]
) -> str:
    """One device's Table 4 and Table 5, one column per compared trace.

    The real breakdown is printed beside each column's signed row
    differences, then each column's micro y-distances (``-`` when
    skipped), then the skip reasons.  ``EvaluationReport.to_text`` and
    ``repro validate`` both render with this.
    """
    name = real.device_type.name
    heads = [label.capitalize() for label in columns]
    macro_rows = [
        [row, format_percent(real.breakdown[row])]
        + [format_percent(c.macro_diff[row], signed=True) for c in columns.values()]
        for row in BREAKDOWN_ROWS
    ]
    micro_rows = [
        [quantity]
        + [
            "-" if quantity not in c.micro else format_percent(c.micro[quantity])
            for c in columns.values()
        ]
        for quantity in MICRO_QUANTITIES
    ]
    blocks = [
        format_table(
            ["Event", "Real"] + heads,
            macro_rows,
            title=f"Macroscopic breakdown - {name}",
        ),
        format_table(
            ["Quantity"] + heads,
            micro_rows,
            title=f"Microscopic max y-distance - {name}",
        ),
    ]
    skip_lines = [
        f"  [{label}] {quantity}: {reason}"
        for label, c in columns.items()
        for quantity, reason in c.micro_skipped.items()
    ]
    if skip_lines:
        blocks.append(f"Skipped quantities - {name}:\n" + "\n".join(skip_lines))
    return "\n\n".join(blocks)
