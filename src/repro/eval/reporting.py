"""Table formatting + summary statistics for the benchmark harness."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["geomean", "format_table", "print_table", "markdown_table"]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic for speedups)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if len(arr) == 0:
        return float("nan")
    return float(np.exp(np.log(np.maximum(arr, 1e-12)).mean()))


def format_table(rows: Sequence[Sequence], headers: Sequence[str],
                 float_format: str = "{:.2f}") -> str:
    """Render an aligned text table."""
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(float_format.format(cell))
            else:
                cells.append(str(cell))
        rendered.append(cells)
    widths = [max(len(r[c]) for r in rendered) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def markdown_table(columns: Sequence[str], rows: Sequence[Dict[str, object]],
                   float_format: str = "{:.4g}") -> str:
    """Render dict rows as a GitHub-flavored markdown table.

    Cells are looked up per column (missing -> empty); floats use
    ``float_format``; list cells render as JSON.  This is the renderer
    behind :meth:`repro.report.Artifact.to_markdown`.
    """
    import json

    def cell(value) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        if isinstance(value, list):
            return json.dumps([
                float(float_format.format(v)) if isinstance(v, float) else v
                for v in value])
        return "" if value is None else str(value)

    lines = ["| " + " | ".join(str(c) for c in columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(cell(row.get(c)) for c in columns)
                     + " |")
    return "\n".join(lines)


def print_table(rows: Sequence[Sequence], headers: Sequence[str],
                title: Optional[str] = None,
                float_format: str = "{:.2f}") -> None:
    if title:
        print(f"\n== {title} ==")
    print(format_table(rows, headers, float_format=float_format))
