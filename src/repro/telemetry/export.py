"""Readers and exporters over a telemetry directory.

The sink side (:mod:`repro.telemetry.tracer`) writes one JSONL segment
per process; this module is the read side:

* :func:`read_events` / :func:`read_spans` — merge every segment,
  skipping torn tail lines and foreign schemas (same durability rules
  as the store index);
* :func:`metrics_snapshot` — the campaign-wide metrics view: the last
  cumulative snapshot of each pid, summed across pids;
* :func:`chrome_trace` — Chrome trace-event JSON (the ``traceEvents``
  array format).  Load the file in Perfetto (https://ui.perfetto.dev)
  or ``chrome://tracing``: one **lane per process pid** (campaign
  workers, pool workers, the driver), complete ``"X"`` events whose
  nesting reconstructs the span stack, tags preserved as ``args``;
* :func:`summarize` / :func:`render_summary` / :func:`summary_rows` —
  the flat per-span-name accounting behind ``repro trace summary``:
  count, total/mean/max duration, share of wall-clock, plus the
  **coverage** figure (fraction of the trace's wall time during which
  at least one named span was open — how much of the run telemetry can
  actually explain).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.tracer import SCHEMA_VERSION

__all__ = [
    "chrome_trace",
    "metrics_snapshot",
    "read_events",
    "read_spans",
    "render_summary",
    "summarize",
    "summary_rows",
]


def read_events(root: "str | os.PathLike[str]") -> list[dict[str, Any]]:
    """Every well-formed event line across all segments, by start time.

    Missing directory means "no telemetry yet" (empty list, not an
    error); unparseable lines (a worker killed mid-append) and lines
    with a different schema are skipped, exactly like the store index.
    """
    base = Path(root)
    events: list[dict[str, Any]] = []
    if not base.is_dir():
        return events
    for path in sorted(base.glob("*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue  # segment vanished mid-read
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue  # torn tail line
            if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
                continue
            events.append(data)
    events.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0)))
    return events


def read_spans(root: "str | os.PathLike[str]") -> list[dict[str, Any]]:
    """Just the span events, by start time."""
    return [e for e in read_events(root) if e.get("kind") == "span"]


def metrics_snapshot(root: "str | os.PathLike[str]") -> dict[str, Any]:
    """Campaign-wide metrics: each pid's *last* cumulative snapshot
    (flushes are cumulative, so earlier ones are subsets), merged
    across pids (counters/histograms sum, gauges last-wins)."""
    last_per_pid: dict[int, dict[str, Any]] = {}
    for event in read_events(root):
        if event.get("kind") == "metrics":
            last_per_pid[int(event.get("pid", 0))] = event.get("data") or {}
    return merge_snapshots([last_per_pid[pid] for pid in sorted(last_per_pid)])


def _category(name: str) -> str:
    """Trace-event category = the span name's subsystem prefix."""
    return name.split(".", 1)[0] if "." in name else name


def chrome_trace(spans: "list[dict[str, Any]]") -> dict[str, Any]:
    """Spans as Chrome trace-event JSON (one lane per pid).

    Timestamps are microseconds relative to the earliest span, so the
    viewer's timeline starts at zero whatever the wall clock said.
    """
    base = min((s.get("ts", 0.0) for s in spans), default=0.0)
    events: list[dict[str, Any]] = []
    pids: dict[int, None] = {}
    for s in spans:
        pid = int(s.get("pid", 0))
        pids.setdefault(pid, None)
        events.append(
            {
                "name": s.get("name", "?"),
                "cat": _category(s.get("name", "?")),
                "ph": "X",
                "ts": (s.get("ts", 0.0) - base) * 1e6,
                "dur": s.get("dur_s", 0.0) * 1e6,
                "pid": pid,
                "tid": int(s.get("tid", 0)),
                "args": dict(s.get("tags") or {}),
            }
        )
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"repro worker {pid}"},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro-interference", "schema": SCHEMA_VERSION},
    }


def _union_seconds(intervals: "list[tuple[float, float]]") -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0.0
    end_seen = float("-inf")
    for start, end in sorted(intervals):
        if end <= end_seen:
            continue
        total += end - max(start, end_seen)
        end_seen = end
    return total


def summarize(spans: "list[dict[str, Any]]") -> dict[str, Any]:
    """Per-span-name aggregates plus whole-trace accounting.

    ``wall_s`` is last span end minus first span start (across every
    process); ``covered_s`` is the union of all span intervals on that
    same timeline, and ``coverage`` their ratio — the fraction of the
    run's wall time attributed to *some* named span.  Per-name
    ``share_of_wall`` can sum past 1.0 (spans nest and lanes overlap);
    it answers "how hot is this name", not "where did the wall go".
    """
    names: dict[str, dict[str, Any]] = {}
    intervals: list[tuple[float, float]] = []
    t_min, t_max = float("inf"), float("-inf")
    for s in spans:
        name = s.get("name", "?")
        dur = float(s.get("dur_s", 0.0))
        ts = float(s.get("ts", 0.0))
        agg = names.setdefault(
            name, {"count": 0, "total_s": 0.0, "max_s": 0.0, "errors": 0}
        )
        agg["count"] += 1
        agg["total_s"] += dur
        if dur > agg["max_s"]:
            agg["max_s"] = dur
        if s.get("status") != "ok":
            agg["errors"] += 1
        intervals.append((ts, ts + dur))
        t_min = min(t_min, ts)
        t_max = max(t_max, ts + dur)
    wall_s = (t_max - t_min) if spans else 0.0
    covered_s = _union_seconds(intervals)
    for agg in names.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
        agg["share_of_wall"] = agg["total_s"] / wall_s if wall_s > 0 else 0.0
    return {
        "spans": len(spans),
        "pids": sorted({int(s.get("pid", 0)) for s in spans}),
        "wall_s": wall_s,
        "covered_s": covered_s,
        "coverage": covered_s / wall_s if wall_s > 0 else 0.0,
        "names": dict(
            sorted(names.items(), key=lambda kv: -kv[1]["total_s"])
        ),
    }


def summary_rows(summary: dict[str, Any]) -> list[list[str]]:
    """CSV-ready rows (header first) of the per-name aggregates."""
    rows = [["name", "count", "total_s", "mean_s", "max_s", "share_of_wall", "errors"]]
    for name, agg in summary["names"].items():
        rows.append(
            [
                name,
                str(agg["count"]),
                f"{agg['total_s']:.6f}",
                f"{agg['mean_s']:.6f}",
                f"{agg['max_s']:.6f}",
                f"{agg['share_of_wall']:.4f}",
                str(agg["errors"]),
            ]
        )
    return rows


def render_summary(summary: dict[str, Any]) -> str:
    """Human-readable ``repro trace summary`` output."""
    from repro.tables import ascii_table

    rows = [
        [
            name,
            agg["count"],
            f"{agg['total_s'] * 1e3:.1f}",
            f"{agg['mean_s'] * 1e3:.2f}",
            f"{agg['max_s'] * 1e3:.2f}",
            f"{agg['share_of_wall'] * 100:.1f}%",
            agg["errors"] or "",
        ]
        for name, agg in summary["names"].items()
    ]
    table = ascii_table(
        ["span", "count", "total ms", "mean ms", "max ms", "of wall", "err"],
        rows,
        title=(
            f"{summary['spans']} span(s) across {len(summary['pids'])} "
            f"process(es)"
        ),
    )
    return table + (
        f"wall {summary['wall_s']:.3f}s, covered {summary['covered_s']:.3f}s "
        f"({summary['coverage'] * 100:.1f}% of wall attributed to named spans)\n"
    )
