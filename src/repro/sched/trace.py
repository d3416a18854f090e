"""Deterministic arrival traces for scheduler replays.

An :class:`ArrivalTrace` is the scheduler's workload stream: a
time-ordered tuple of :class:`TraceEvent`\\ s (arrivals bringing
``solo_s`` seconds of solo work, plus optional explicit departures).
Traces come from two places and round-trip through one JSON payload:

* :meth:`ArrivalTrace.synthetic` — seeded generation from a workload
  roster: exponential inter-arrival gaps, uniform work sizes, workloads
  drawn round-robin-free from one ``random.Random(seed)`` stream.  The
  same ``(roster, seed, knobs)`` always yields the same byte-identical
  trace (``random`` is documented stable across Python versions, and
  every drawn float is rounded to microseconds so payloads stay tidy);
* :func:`load_trace` / :meth:`ArrivalTrace.to_json` — a trace file, for
  replaying a recorded or hand-written stream.

``parse_trace`` accepts the CLI's two spellings: ``seed:S:N[:T[:D]]``
(synthetic, N arrivals of T threads from seed S; an optional departure
fraction D synthesizes seeded early departures via
:meth:`ArrivalTrace.with_departures`) or a path to a trace JSON file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.errors import SchedError
from repro.session.base import fingerprint as _fingerprint

#: Event kinds a trace may carry.
EVENT_KINDS = ("arrival", "departure")


@dataclass(frozen=True)
class TraceEvent:
    """One trace event.  Arrivals carry the tenant's shape and work;
    departures name a tenant to evict early (work left undone)."""

    time_s: float
    kind: str
    tenant: str
    workload: str = ""
    threads: int = 0
    solo_s: float = 0.0
    #: Advisory placement hint ("cat" / "pin" / ""): generators may mark
    #: an arrival as a candidate for cache fencing or core pinning;
    #: schedulers are free to ignore it.  Empty for plain arrivals, so
    #: traces without hints keep their historical byte-identical payload.
    hint: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SchedError(
                f"unknown event kind {self.kind!r}; use one of {EVENT_KINDS}"
            )
        if self.hint not in ("", "cat", "pin"):
            raise SchedError(
                f"{self.tenant}: unknown hint {self.hint!r}; use 'cat' or 'pin'"
            )
        if not (math.isfinite(self.time_s) and math.isfinite(self.solo_s)):
            raise SchedError(f"{self.tenant}: time_s and solo_s must be finite")
        if self.time_s < 0:
            raise SchedError(f"{self.tenant}: event time must be >= 0")
        if not self.tenant:
            raise SchedError("an event needs a tenant id")
        if self.kind == "arrival":
            if not self.workload:
                raise SchedError(f"{self.tenant}: an arrival needs a workload")
            if self.threads < 1:
                raise SchedError(f"{self.tenant}: arrival threads must be >= 1")
            if self.solo_s <= 0:
                raise SchedError(f"{self.tenant}: arrival solo_s must be positive")

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "time_s": self.time_s,
            "kind": self.kind,
            "tenant": self.tenant,
        }
        if self.kind == "arrival":
            out["workload"] = self.workload
            out["threads"] = self.threads
            out["solo_s"] = self.solo_s
            if self.hint:
                out["hint"] = self.hint
        return out

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "TraceEvent":
        return TraceEvent(
            time_s=payload["time_s"],
            kind=payload["kind"],
            tenant=payload["tenant"],
            workload=payload.get("workload", ""),
            threads=payload.get("threads", 0),
            solo_s=payload.get("solo_s", 0.0),
            hint=payload.get("hint", ""),
        )


@dataclass(frozen=True)
class ArrivalTrace:
    """A time-ordered, validated event stream."""

    events: tuple[TraceEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            raise SchedError("a trace needs at least one event")
        last = 0.0
        seen: set[str] = set()
        for e in self.events:
            if e.time_s < last:
                raise SchedError(
                    f"trace events out of order at {e.tenant!r} (t={e.time_s})"
                )
            last = e.time_s
            if e.kind == "arrival":
                if e.tenant in seen:
                    raise SchedError(f"tenant id {e.tenant!r} arrives twice")
                seen.add(e.tenant)
            elif e.tenant not in seen:
                raise SchedError(
                    f"departure of {e.tenant!r} precedes its arrival"
                )

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def arrivals(self) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.kind == "arrival")

    @property
    def fingerprint(self) -> str:
        """Stable short hash of the canonical payload — the identity a
        replay report records for its input stream."""
        return _fingerprint("trace", self.payload())

    def payload(self) -> dict[str, Any]:
        return {"events": [e.payload() for e in self.events]}

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "ArrivalTrace":
        return ArrivalTrace(
            tuple(TraceEvent.from_payload(e) for e in payload.get("events", ()))
        )

    def to_json(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.payload(), indent=1) + "\n")
        return path

    # -- generation ---------------------------------------------------------

    @staticmethod
    def synthetic(
        workloads: Sequence[str],
        *,
        seed: int = 0,
        arrivals: int = 10,
        threads: int = 2,
        mean_gap_s: float = 2.0,
        solo_s: tuple[float, float] = (4.0, 9.0),
    ) -> "ArrivalTrace":
        """A seeded synthetic stream: ``arrivals`` tenants drawn from
        ``workloads`` with exponential inter-arrival gaps and uniform
        work sizes.  Same inputs, same trace — bit for bit."""
        if arrivals < 1:
            raise SchedError("a synthetic trace needs at least one arrival")
        if not workloads:
            raise SchedError("a synthetic trace needs a workload roster")
        rng = random.Random(seed)
        events: list[TraceEvent] = []
        t = 0.0
        for i in range(arrivals):
            t += rng.expovariate(1.0 / mean_gap_s)
            events.append(
                TraceEvent(
                    time_s=round(t, 6),
                    kind="arrival",
                    tenant=f"t{i:03d}",
                    workload=rng.choice(list(workloads)),
                    threads=threads,
                    solo_s=round(rng.uniform(*solo_s), 6),
                )
            )
        return ArrivalTrace(tuple(events))

    def with_departures(
        self,
        *,
        fraction: float = 0.35,
        seed: int = 0,
        window: tuple[float, float] = (0.3, 0.9),
    ) -> "ArrivalTrace":
        """This trace plus seeded *early departures*: a ``fraction`` of
        the arrivals (rounded, seeded sample) each gains a departure at
        ``arrival + U(window) * solo_s`` — inside the tenant's own solo
        residency, so the departure plausibly fires while it still
        holds a seat.  Same inputs, same trace — bit for bit; the
        service tier's drain uses this to exercise departure-triggered
        re-planning."""
        if fraction < 0 or fraction > 1:
            raise SchedError(f"departure fraction must lie in [0, 1], got {fraction}")
        arrivals = self.arrivals
        count = min(int(round(fraction * len(arrivals))), len(arrivals))
        if count < 1:
            return self
        rng = random.Random(seed)
        picks = sorted(rng.sample(range(len(arrivals)), count))
        extra = []
        for idx in picks:
            a = arrivals[idx]
            extra.append(
                TraceEvent(
                    time_s=round(a.time_s + rng.uniform(*window) * a.solo_s, 6),
                    kind="departure",
                    tenant=a.tenant,
                )
            )
        # Stable sort: at equal times existing events (arrivals first
        # among them) stay ahead of the synthesized departures.
        merged = sorted(self.events + tuple(extra), key=lambda e: e.time_s)
        return ArrivalTrace(tuple(merged))


def load_trace(path: "str | Path") -> ArrivalTrace:
    """Load a trace JSON file (the :meth:`ArrivalTrace.payload` shape)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchedError(f"cannot read trace {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise SchedError(f"trace {path} is not a JSON object")
    return ArrivalTrace.from_payload(payload)


def parse_trace(spec: str, workloads: Sequence[str]) -> ArrivalTrace:
    """Parse a CLI trace spec: ``seed:S:N[:T[:D]]`` (synthetic — seed S,
    N arrivals, T threads each, default 2; D > 0 additionally
    synthesizes early departures for that fraction of arrivals),
    ``diurnal:S[:H[:T]]`` (a diurnal open-loop day from
    :mod:`repro.traffic` — seed S, H trace hours, time scale T), or a
    trace-file path.  See ``docs/trace-format.md`` for the grammar."""
    if spec.startswith("diurnal:"):
        # Lazy import: sched must stay importable without traffic.
        from repro.traffic.model import parse_diurnal

        return parse_diurnal(spec, workloads)
    if spec.startswith("seed:"):
        parts = spec.split(":")
        try:
            seed = int(parts[1])
            arrivals = int(parts[2]) if len(parts) > 2 else 10
            threads = int(parts[3]) if len(parts) > 3 else 2
            departures = float(parts[4]) if len(parts) > 4 else 0.0
        except (IndexError, ValueError):
            raise SchedError(
                f"bad trace spec {spec!r}; expected seed:S:N[:T[:D]], "
                f"e.g. seed:0:10 or seed:0:10:2:0.5"
            ) from None
        trace = ArrivalTrace.synthetic(
            workloads, seed=seed, arrivals=arrivals, threads=threads
        )
        if departures > 0:
            trace = trace.with_departures(fraction=departures, seed=seed)
        return trace
    return load_trace(spec)
