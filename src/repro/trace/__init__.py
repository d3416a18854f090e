"""Trace layer: access streams, reuse distances, miss-ratio curves and
the profiler that measures a user's own kernel (the measurement
methodology of Section III-C)."""

from repro._lazy import lazy_exports

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

# Every name loads on first use: the curves and reuse distances are
# numpy code, and a workload profile needs them only once it is built.
__getattr__ = lazy_exports(__name__, {
    "repro.trace.mrc": ("MissRatioCurve",),
    "repro.trace.profiler": ("TraceCharacterization", "TraceProfiler"),
    "repro.trace.reuse": (
        "COLD", "miss_ratio_at", "reuse_distances", "reuse_distances_bruteforce",
    ),
    "repro.trace.stream": (
        "AccessBatch", "TraceSource", "concat_lines", "take", "total_accesses",
    ),
    "repro.trace.synth": ("synth",),
})
