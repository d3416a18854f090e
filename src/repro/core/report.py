"""Rendering helpers: heat maps and CSV output.

Every experiment result renders through these (and through
:func:`repro.tables.ascii_table`) so the benchmark harness prints the
same rows/series the paper reports.
"""

from __future__ import annotations

import io
from typing import Iterable, Sequence

from repro.errors import ExperimentError


def csv_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Comma-separated rendering (benchmark artifacts)."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.6g}"
        text = str(cell)
        return f'"{text}"' if "," in text else text

    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(fmt(c) for c in row))
    return "\n".join(lines) + "\n"


#: Shade ramp for the text heat map (low -> high).
_SHADES = " .:-=+*#%@"


def text_heatmap(
    matrix: dict[tuple[str, str], float],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    *,
    lo: float = 1.0,
    hi: float = 2.0,
    cell_fmt: str = "{:.1f}",
) -> str:
    """Fig 5-style heat map: numeric cells plus a shade column legend."""
    buf = io.StringIO()
    label_w = max(len(r) for r in row_labels) + 1
    cell_w = max(len(cell_fmt.format(hi)), 4)
    # Column header (vertical-ish: truncated names).
    buf.write(" " * label_w)
    for c in col_labels:
        buf.write(c[: cell_w - 1].rjust(cell_w))
    buf.write("\n")
    for r in row_labels:
        buf.write(r.ljust(label_w))
        for c in col_labels:
            v = matrix.get((r, c))
            if v is None:
                buf.write("?".rjust(cell_w))
            else:
                buf.write(cell_fmt.format(v).rjust(cell_w))
        buf.write("\n")
    buf.write(f"(shade scale: {lo} {_SHADES} {hi}+)\n")
    return buf.getvalue()


def shade(value: float, *, lo: float = 1.0, hi: float = 2.0) -> str:
    """One shade character for a heat-map value."""
    if hi <= lo:
        raise ExperimentError("hi must exceed lo")
    t = (value - lo) / (hi - lo)
    idx = int(max(0.0, min(0.999, t)) * len(_SHADES))
    return _SHADES[idx]
