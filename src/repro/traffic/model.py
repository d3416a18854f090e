"""The open-loop traffic model: curve × mix → a seeded ArrivalTrace.

``TrafficModel.generate`` samples a nonhomogeneous Poisson process by
Lewis–Shedler thinning: candidate arrivals at the curve's *peak* rate,
each kept with probability ``multiplier(t) / peak``.  Thinning is what
makes the stream honestly open-loop — arrival times never depend on
what the scheduler did with earlier arrivals — while still following
the diurnal shape exactly in expectation.

Determinism contract (pinned by a golden-trace test): one
``random.Random(seed)`` stream, with this draw order per candidate —

1. ``expovariate(peak_rate)``        — gap to the next candidate
2. ``random()``                      — thinning accept roll
   ... and for accepted candidates only:
3. ``random()``                      — workload pick on the weight line
4. ``uniform(*solo_s)``              — solo work size
5. ``expovariate(1 / gap_s)``        — per-workload deferral, only when
                                       the component sets ``gap_s > 0``
6. ``random()``                      — cat-hint roll, only when the
                                       component sets ``cat_propensity > 0``
7. ``random()``                      — pin-hint roll, only when the
                                       component sets ``pin_propensity > 0``

Conditional draws (5–7) consume nothing when their knob is off, so a
mix without gaps or hints generates the exact trace it always did.
Floats are rounded to microseconds at emission, tenant ids are assigned
in final time order, and optional departures reuse
:meth:`ArrivalTrace.with_departures` (its own documented stream).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import TrafficError
from repro.sched.trace import ArrivalTrace, TraceEvent
from repro.traffic.diurnal import DiurnalCurve
from repro.traffic.mix import WorkloadMix

#: Default arrivals per *trace hour* at multiplier 1.0 (the peak).  With
#: the business-hours curve (mean multiplier ~0.52) a day yields ~75
#: arrivals — big enough to show peak-vs-trough contrast, small enough
#: for the argument-free campaign artifact.
DEFAULT_RATE_PER_HOUR = 6.0

#: Hard cap on candidates per generate() call, against degenerate knobs.
_MAX_CANDIDATES = 1_000_000


@dataclass(frozen=True)
class TrafficModel:
    """A diurnal curve plus a workload mix plus the rate knobs."""

    mix: WorkloadMix
    curve: DiurnalCurve = DiurnalCurve()
    #: Arrivals per trace hour when the curve multiplier is 1.0.
    rate_per_hour: float = DEFAULT_RATE_PER_HOUR
    #: Fraction of arrivals that gain a seeded early departure.
    departures: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_hour <= 0:
            raise TrafficError("rate_per_hour must be > 0")
        if not 0.0 <= self.departures <= 1.0:
            raise TrafficError(
                f"departures fraction must lie in [0, 1], got {self.departures}"
            )

    def generate(self, seed: int = 0, hours: float = 24.0) -> ArrivalTrace:
        """A seeded open-loop day (or part of one): ``hours`` trace
        hours of thinned Poisson arrivals shaped by the curve.  Same
        ``(model, seed, hours)``, byte-identical trace."""
        if hours <= 0:
            raise TrafficError("hours must be > 0")
        duration_s = hours * self.curve.sim_s_per_hour
        peak = self.curve.peak_multiplier
        # Peak candidate rate in arrivals per *simulated* second.
        peak_rate = self.rate_per_hour * peak / self.curve.sim_s_per_hour
        rng = random.Random(seed)
        drawn: list[tuple[float, Any, float, str]] = []
        last_emit: dict[str, float] = {}
        t = 0.0
        for _ in range(_MAX_CANDIDATES):
            t += rng.expovariate(peak_rate)                      # draw 1
            if t >= duration_s:
                break
            if rng.random() >= self.curve.multiplier_at(t) / peak:  # draw 2
                continue
            comp = self.mix.pick(rng.random())                   # draw 3
            solo = rng.uniform(*comp.solo_s)                     # draw 4
            time_s = t
            if comp.gap_s > 0:
                defer = rng.expovariate(1.0 / comp.gap_s)        # draw 5
                earliest = last_emit.get(comp.workload, -1e18) + defer
                time_s = max(time_s, earliest)
                if time_s >= duration_s:
                    continue
            last_emit[comp.workload] = time_s
            hint = ""
            if comp.cat_propensity > 0:
                if rng.random() < comp.cat_propensity:           # draw 6
                    hint = "cat"
            if comp.pin_propensity > 0:
                if rng.random() < comp.pin_propensity and not hint:  # draw 7
                    hint = "pin"
            drawn.append((time_s, comp, solo, hint))
        else:
            raise TrafficError(
                "traffic generation exceeded the candidate cap; "
                "rate_per_hour x hours is degenerate"
            )
        if not drawn:
            raise TrafficError(
                f"model generated no arrivals over {hours} hour(s) at "
                f"{self.rate_per_hour}/h — raise the rate or the duration"
            )
        # Deferrals can reorder; a stable sort on time pins tie order to
        # draw order, then tenant ids follow final time order.
        drawn.sort(key=lambda d: d[0])
        events = tuple(
            TraceEvent(
                time_s=round(time_s, 6),
                kind="arrival",
                tenant=f"u{i:04d}",
                workload=comp.workload,
                threads=comp.threads,
                solo_s=round(solo, 6),
                hint=hint,
            )
            for i, (time_s, comp, solo, hint) in enumerate(drawn)
        )
        trace = ArrivalTrace(events)
        if self.departures > 0:
            trace = trace.with_departures(fraction=self.departures, seed=seed)
        return trace

    # -- round-trip ---------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        return {
            "curve": self.curve.payload(),
            "mix": self.mix.payload(),
            "rate_per_hour": self.rate_per_hour,
            "departures": self.departures,
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "TrafficModel":
        if "mix" not in payload:
            raise TrafficError("bad traffic-model payload: no mix")
        return TrafficModel(
            mix=WorkloadMix.from_payload(payload["mix"]),
            curve=(
                DiurnalCurve.from_payload(payload["curve"])
                if "curve" in payload
                else DiurnalCurve()
            ),
            rate_per_hour=float(payload.get("rate_per_hour", DEFAULT_RATE_PER_HOUR)),
            departures=float(payload.get("departures", 0.0)),
        )

    def to_json(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.payload(), indent=1) + "\n")
        return path


def load_model(
    path: "str | Path",
    *,
    seed: "int | None" = None,
    hours: "float | None" = None,
) -> tuple[TrafficModel, int, float]:
    """Load a traffic-model JSON file (the :meth:`TrafficModel.payload`
    shape, optionally with top-level ``seed`` / ``hours`` keys): the
    model, and the seed and hours to generate it with.  Explicit
    arguments win over the file's keys; the fallbacks are seed 0 and a
    full 24-hour day."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TrafficError(f"cannot read traffic model {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise TrafficError(f"traffic model {path} is not a JSON object")
    if seed is None:
        seed = int(payload.get("seed", 0))
    if hours is None:
        hours = float(payload.get("hours", 24.0))
    return TrafficModel.from_payload(payload), seed, hours


def generate_from_file(
    path: "str | Path",
    *,
    seed: "int | None" = None,
    hours: "float | None" = None,
) -> ArrivalTrace:
    """Generate a trace from a model file, with the seed and hours
    :func:`load_model` resolves."""
    model, seed, hours = load_model(path, seed=seed, hours=hours)
    return model.generate(seed=seed, hours=hours)


def parse_diurnal(spec: str, workloads: Sequence[str]) -> ArrivalTrace:
    """Parse the ``diurnal:S[:H[:T]]`` trace-spec form: a business-hours
    day over a uniform mix of ``workloads`` — seed S, H trace hours
    (default 24), time scale factor T (default 60).  The heavier knobs
    (custom curves, weights, gaps, hints, departures) live in a model
    file passed via ``--traffic``."""
    parts = spec.split(":")
    if not parts or parts[0] != "diurnal":
        raise TrafficError(f"not a diurnal spec: {spec!r}")
    try:
        seed = int(parts[1])
        hours = float(parts[2]) if len(parts) > 2 else 24.0
        scale = float(parts[3]) if len(parts) > 3 else 60.0
    except (IndexError, ValueError):
        raise TrafficError(
            f"bad trace spec {spec!r}; expected diurnal:S[:H[:T]], "
            f"e.g. diurnal:0 or diurnal:0:24:60"
        ) from None
    model = TrafficModel(
        mix=WorkloadMix.uniform(workloads),
        curve=DiurnalCurve.business_hours(scale),
    )
    return model.generate(seed=seed, hours=hours)
