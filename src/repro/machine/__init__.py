"""Hardware model of the paper's platform.

Public surface:

* :func:`~repro.machine.spec.xeon_e5_4650` / :class:`~repro.machine.spec.MachineSpec`
  — the platform configuration (Section III-A) every layer runs on;
* :class:`~repro.machine.hierarchy.CoreCacheHierarchy` — one core's
  L1D, L2 and LLC with the four hardware prefetchers behind one on/off
  switch, the cache model the trace profiler measures kernels on;
* :class:`~repro.machine.cache.SetAssociativeCache` — exact LRU cache;
* :func:`~repro.machine.memory.queueing_latency_multiplier` — the
  memory bus's queueing-delay curve the interval engine uses.
"""

from repro._lazy import lazy_exports
from repro.machine.memory import queueing_latency_multiplier
from repro.machine.spec import (
    CacheSpec,
    MachineSpec,
    MemorySpec,
    PrefetcherSpec,
    small_test_machine,
    xeon_e5_4650,
)

__all__ = [
    "AccessOutcome",
    "CacheSpec",
    "CacheStats",
    "CoreCacheHierarchy",
    "CorePrefetchers",
    "EnergyBreakdown",
    "EnergySpec",
    "energy_of_run",
    "energy_of_window",
    "L1IpStridePrefetcher",
    "L1NextLinePrefetcher",
    "L2AdjacentLinePrefetcher",
    "L2StreamerPrefetcher",
    "MachineSpec",
    "MemorySpec",
    "PrefetcherSpec",
    "SetAssociativeCache",
    "queueing_latency_multiplier",
    "small_test_machine",
    "xeon_e5_4650",
]

# The trace profiler's cache model and the energy accounting of the
# efficiency study: no engine solve or admission runs them.
__getattr__ = lazy_exports(__name__, {
    "repro.machine.cache": ("AccessOutcome", "CacheStats", "SetAssociativeCache"),
    "repro.machine.energy": (
        "EnergyBreakdown", "EnergySpec", "energy_of_run", "energy_of_window",
    ),
    "repro.machine.hierarchy": ("CoreCacheHierarchy",),
    "repro.machine.prefetcher": (
        "CorePrefetchers", "L1IpStridePrefetcher", "L1NextLinePrefetcher",
        "L2AdjacentLinePrefetcher", "L2StreamerPrefetcher",
    ),
})
