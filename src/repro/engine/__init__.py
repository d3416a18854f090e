"""Interval engine: analytic co-execution simulation (Section V's
methodology as a predictive model).

Every name resolves on first use (:mod:`repro._lazy`).  The engine's
knobs and cells (:mod:`repro.engine.config`) and its result containers
(:mod:`repro.engine.results`) import no numpy; the two solvers
(:mod:`repro.engine.interval`, :mod:`repro.engine.batch`) and the
models they stand on load when a process first asks for one of their
names, that is when it first builds an engine or solves a batch.  A
process that only reads results from a warm store never loads them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AppMetrics",
    "BandwidthSample",
    "BatchCell",
    "BusState",
    "EngineConfig",
    "IntervalEngine",
    "LazyTimeline",
    "MAX_BATCH_SLOTS",
    "MIN_SHARE_FRACTION",
    "PREFETCH_COVERAGE",
    "PREFETCH_HIDE",
    "PREFETCH_OVERFETCH",
    "RegionMetrics",
    "SMT_MARGINAL_THROUGHPUT",
    "ScenarioRunResult",
    "SoloRunResult",
    "allocate_llc",
    "resolve_bus",
    "solve_batch",
]

__getattr__ = lazy_exports(__name__, {
    "repro.engine.bandwidth": ("BusState", "resolve_bus"),
    "repro.engine.batch": ("MAX_BATCH_SLOTS", "solve_batch"),
    "repro.engine.config": ("BatchCell", "EngineConfig"),
    "repro.engine.interval": (
        "IntervalEngine", "PREFETCH_COVERAGE", "PREFETCH_HIDE", "PREFETCH_OVERFETCH",
        "SMT_MARGINAL_THROUGHPUT",
    ),
    "repro.engine.llc_sharing": ("MIN_SHARE_FRACTION", "allocate_llc"),
    "repro.engine.results": (
        "AppMetrics", "BandwidthSample", "LazyTimeline", "RegionMetrics", "ScenarioRunResult",
        "SoloRunResult",
    ),
})
