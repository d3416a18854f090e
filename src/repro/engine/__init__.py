"""Interval engine: analytic co-execution simulation (Section V's
methodology as a predictive model)."""

from repro.engine.bandwidth import BusState, resolve_bus
from repro.engine.batch import MAX_BATCH_SLOTS, solve_batch
from repro.engine.interval import (
    PREFETCH_COVERAGE,
    PREFETCH_HIDE,
    PREFETCH_OVERFETCH,
    SMT_MARGINAL_THROUGHPUT,
    BatchCell,
    EngineConfig,
    IntervalEngine,
)
from repro.engine.llc_sharing import MIN_SHARE_FRACTION, allocate_llc
from repro.engine.results import (
    AppMetrics,
    BandwidthSample,
    CoRunResult,
    LazyTimeline,
    RegionMetrics,
    ScenarioRunResult,
    SoloRunResult,
)

__all__ = [
    "AppMetrics",
    "BandwidthSample",
    "BatchCell",
    "BusState",
    "CoRunResult",
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
