"""Descriptive statistics over an ArrivalTrace, bucketed by trace hour.

``trace_stats`` is the read-only half of the traffic CLI: it answers
"what does this day look like" without running a scheduler — arrivals,
offered work, and hint counts per simulated-hour bucket, the workload
histogram, and the peak-over-trough arrival contrast the acceptance
check cares about.  Pure arithmetic over the event stream; works on any
trace, generated or hand-written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.errors import TrafficError
from repro.sched.trace import ArrivalTrace
from repro.tables import ascii_table


@dataclass(frozen=True)
class HourStats:
    """One simulated-hour bucket of a trace."""

    index: int
    start_s: float
    end_s: float
    arrivals: int
    departures: int
    work_s: float
    threads: int
    cat_hints: int
    pin_hints: int

    def payload(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "work_s": round(self.work_s, 6),
            "threads": self.threads,
            "cat_hints": self.cat_hints,
            "pin_hints": self.pin_hints,
        }


@dataclass(frozen=True)
class TraceStats:
    """A whole trace summarized: hourly buckets plus totals."""

    hours: tuple[HourStats, ...]
    bucket_s: float
    workloads: dict[str, int]
    total_arrivals: int
    total_departures: int
    total_work_s: float

    @property
    def peak_hour(self) -> HourStats:
        return max(self.hours, key=lambda h: (h.arrivals, -h.index))

    @property
    def trough_hour(self) -> HourStats:
        return min(self.hours, key=lambda h: (h.arrivals, h.index))

    @property
    def peak_over_trough(self) -> float:
        """Peak-hour arrivals over trough-hour arrivals (inf when an
        hour is empty — the contrast the diurnal check looks for)."""
        trough = self.trough_hour.arrivals
        if trough == 0:
            return math.inf
        return self.peak_hour.arrivals / trough

    def payload(self) -> dict[str, Any]:
        return {
            "bucket_s": self.bucket_s,
            "hours": [h.payload() for h in self.hours],
            "workloads": dict(sorted(self.workloads.items())),
            "total_arrivals": self.total_arrivals,
            "total_departures": self.total_departures,
            "total_work_s": round(self.total_work_s, 6),
            "peak_hour": self.peak_hour.index,
            "trough_hour": self.trough_hour.index,
            "peak_over_trough": (
                None if math.isinf(self.peak_over_trough)
                else round(self.peak_over_trough, 3)
            ),
        }

    def render(self) -> str:
        rows = []
        for h in self.hours:
            mark = ""
            if h.index == self.peak_hour.index:
                mark = "peak"
            elif h.index == self.trough_hour.index:
                mark = "trough"
            hints = h.cat_hints + h.pin_hints
            rows.append(
                [
                    f"{h.index:02d}",
                    h.arrivals,
                    h.departures,
                    f"{h.work_s:.1f}s",
                    h.threads,
                    hints if hints else "-",
                    mark,
                ]
            )
        ratio = self.peak_over_trough
        contrast = "inf" if math.isinf(ratio) else f"{ratio:.1f}x"
        mix = ", ".join(f"{w}:{n}" for w, n in sorted(self.workloads.items()))
        table = ascii_table(
            ["hour", "arrivals", "departures", "work", "threads", "hints", ""],
            rows,
            title=(
                f"traffic stats: {self.total_arrivals} arrival(s), "
                f"{self.total_departures} departure(s), "
                f"{self.total_work_s:.1f}s offered work, "
                f"peak/trough {contrast}"
            ),
        )
        return table + f"workload mix: {mix}\n"


def trace_stats(trace: ArrivalTrace, *, bucket_s: float = 60.0) -> TraceStats:
    """Bucket a trace by simulated hour (``bucket_s`` simulated seconds
    per trace hour — a curve's ``sim_s_per_hour``; 60 at the default
    time scale factor of 60)."""
    if bucket_s <= 0:
        raise TrafficError("bucket_s must be > 0")
    span = max(e.time_s for e in trace.events)
    n = max(1, math.ceil(span / bucket_s)) if span > 0 else 1
    counts = [
        {"arrivals": 0, "departures": 0, "work": 0.0, "threads": 0,
         "cat": 0, "pin": 0}
        for _ in range(n)
    ]
    workloads: dict[str, int] = {}
    for e in trace.events:
        idx = min(int(e.time_s // bucket_s), n - 1)
        b = counts[idx]
        if e.kind == "arrival":
            b["arrivals"] += 1
            b["work"] += e.solo_s
            b["threads"] += e.threads
            if e.hint == "cat":
                b["cat"] += 1
            elif e.hint == "pin":
                b["pin"] += 1
            workloads[e.workload] = workloads.get(e.workload, 0) + 1
        else:
            b["departures"] += 1
    hours = tuple(
        HourStats(
            index=i,
            start_s=i * bucket_s,
            end_s=(i + 1) * bucket_s,
            arrivals=b["arrivals"],
            departures=b["departures"],
            work_s=b["work"],
            threads=b["threads"],
            cat_hints=b["cat"],
            pin_hints=b["pin"],
        )
        for i, b in enumerate(counts)
    )
    return TraceStats(
        hours=hours,
        bucket_s=bucket_s,
        workloads=workloads,
        total_arrivals=sum(h.arrivals for h in hours),
        total_departures=sum(h.departures for h in hours),
        total_work_s=sum(h.work_s for h in hours),
    )
