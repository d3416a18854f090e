"""repro.traffic — seeded open-loop diurnal traffic generation.

The traffic layer turns the scheduler's memoryless synthetic streams
into *shaped days*: a :class:`DiurnalCurve` maps simulated seconds to a
time-of-day rate multiplier (brad-style ``time_scale_factor``
compression, so one trace day fits in seconds of simulated time), a
:class:`WorkloadMix` weights the roster and draws per-arrival work
sizes and placement-hint propensities, and a :class:`TrafficModel`
combines the two into ``generate(seed, hours)`` — a nonhomogeneous
Poisson stream (Lewis–Shedler thinning) emitted as a plain
:class:`~repro.sched.trace.ArrivalTrace` every existing consumer
(``sched replay``, ``serve drain``, the campaign runners) already
speaks.  Determinism contract: one ``random.Random(seed)`` stream with
a pinned draw order; same inputs, byte-identical trace.

See ``docs/trace-format.md`` for the trace schema and the
``diurnal:S[:H[:T]]`` / ``--traffic FILE`` spec grammar.
"""

from repro._lazy import lazy_exports
from repro.traffic.diurnal import DiurnalCurve
from repro.traffic.mix import WorkloadComponent, WorkloadMix
from repro.traffic.model import (
    TrafficModel,
    generate_from_file,
    load_model,
    parse_diurnal,
)

__all__ = [
    "DiurnalCurve",
    "WorkloadComponent",
    "WorkloadMix",
    "TrafficModel",
    "TraceStats",
    "trace_stats",
    "generate_from_file",
    "load_model",
    "parse_diurnal",
]

# ``traffic stats``' per-hour summary.
__getattr__ = lazy_exports(__name__, {
    "repro.traffic.stats": ("TraceStats", "trace_stats"),
})
