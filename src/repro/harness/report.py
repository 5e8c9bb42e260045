"""Plain-text tables and series for benchmark output."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Fixed-width text table (the benches print these, mirroring the
    paper's tables/figure series)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def breakdown_row(
    label: str, cell: dict[str, Any], columns: Sequence[tuple[str, str]]
) -> list[str]:
    """One row of a breakdown table (Fig. 14 / Fig. 16) from a figure cell.

    ``columns`` are ``(key, format spec)`` pairs.  A part the scheme
    does not report prints as ``-``; a cell with no numbers at all
    carries a ``reason`` instead, printed where its total would be —
    never a ``nan`` that says nothing.
    """
    row = [label]
    for key, spec in columns:
        if key in cell:
            row.append(format(cell[key], spec))
        else:
            row.append(cell.get("reason", "-") if key == "total" else "-")
    return row


def format_series(
    name: str, points: Sequence[tuple[float, float]], unit: str = ""
) -> str:
    """Compact one-line-per-point series dump (figure raw data)."""
    lines = [f"{name} ({len(points)} points{', ' + unit if unit else ''}):"]
    for x, y in points:
        lines.append(f"  {x:10.2f}  {y:12.4f}")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
