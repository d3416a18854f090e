"""Trace layer: access streams, reuse distances, miss-ratio curves and
the profiler that measures a user's own kernel (the measurement
methodology of Section III-C)."""

from repro.trace.mrc import MissRatioCurve
from repro.trace.profiler import TraceCharacterization, TraceProfiler
from repro.trace.reuse import (
    COLD,
    miss_ratio_at,
    reuse_distances,
    reuse_distances_bruteforce,
)
from repro.trace.stream import (
    AccessBatch,
    TraceSource,
    concat_lines,
    take,
    total_accesses,
)
from repro.trace import synth

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
