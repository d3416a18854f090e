"""Fixed-width text tables, shared by every layer's reports: a leaf
module, so a layer that prints a table loads no other layer for it."""

from __future__ import annotations

import io
from typing import Iterable, Sequence

from repro.errors import ExperimentError


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Fixed-width table with auto-sized columns."""
    str_rows: list[list[str]] = []
    for row in rows:
        out_row = []
        for cell in row:
            if isinstance(cell, float):
                out_row.append(float_fmt.format(cell))
            else:
                out_row.append(str(cell))
        str_rows.append(out_row)
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    buf = io.StringIO()
    if title:
        buf.write(title + "\n")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    buf.write(line + "\n")
    buf.write("-" * len(line) + "\n")
    for row in str_rows:
        buf.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    return buf.getvalue()
