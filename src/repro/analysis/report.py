"""Plain-text tables for benchmark output.

The benchmark harness prints the same rows/series the paper's evaluation
reasons about; these helpers keep that output aligned and diff-friendly
(EXPERIMENTS.md embeds them verbatim).
"""

from __future__ import annotations

from typing import Sequence


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned text table with a header separator."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)

