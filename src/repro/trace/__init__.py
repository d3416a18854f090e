"""Trace layer: access streams, reuse distances, miss-ratio curves and
the profiler that measures a user's own kernel (the measurement
methodology of Section III-C)."""

from repro._lazy import lazy_exports
from repro.trace.mrc import MissRatioCurve
from repro.trace.reuse import (
    COLD,
    miss_ratio_at,
    reuse_distances,
    reuse_distances_bruteforce,
)

__all__ = [
    "AccessBatch",
    "COLD",
    "MissRatioCurve",
    "TraceCharacterization",
    "TraceProfiler",
    "TraceSource",
    "concat_lines",
    "miss_ratio_at",
    "reuse_distances",
    "reuse_distances_bruteforce",
    "synth",
    "take",
    "total_accesses",
]

# What measures a user's own kernel: every workload profile needs only
# its miss-ratio curves.
__getattr__ = lazy_exports(__name__, {
    "repro.trace.profiler": ("TraceCharacterization", "TraceProfiler"),
    "repro.trace.stream": (
        "AccessBatch", "TraceSource", "concat_lines", "take", "total_accesses",
    ),
    "repro.trace.synth": ("synth",),
})
