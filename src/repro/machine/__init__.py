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

from repro.machine.cache import AccessOutcome, CacheStats, SetAssociativeCache
from repro.machine.energy import EnergyBreakdown, EnergySpec, energy_of_run, energy_of_window
from repro.machine.hierarchy import CoreCacheHierarchy
from repro.machine.memory import queueing_latency_multiplier
from repro.machine.prefetcher import (
    CorePrefetchers,
    L1IpStridePrefetcher,
    L1NextLinePrefetcher,
    L2AdjacentLinePrefetcher,
    L2StreamerPrefetcher,
)
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
