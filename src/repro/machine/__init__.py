"""Hardware model of the paper's platform (trace layer).

Public surface:

* :func:`~repro.machine.spec.xeon_e5_4650` / :class:`~repro.machine.spec.MachineSpec`
  — the platform configuration (Section III-A);
* :class:`~repro.machine.machine.Machine` — the assembled machine with
  core binding, MSR-gated prefetchers, shared LLC and DRAM model;
* :class:`~repro.machine.cache.SetAssociativeCache` — exact LRU cache;
* :class:`~repro.machine.msr.MsrBank` / MSR constants — prefetcher control.
"""

from repro.machine.cache import AccessOutcome, CacheStats, SetAssociativeCache
from repro.machine.energy import EnergyBreakdown, EnergySpec, energy_of_run, energy_of_window
from repro.machine.hierarchy import AccessResult, CoreCacheHierarchy, HierarchyStats
from repro.machine.machine import Machine
from repro.machine.memory import (
    MemoryController,
    TransferStats,
    effective_shares,
    queueing_latency_multiplier,
)
from repro.machine.msr import MSR_MISC_FEATURE_CONTROL, MsrBank, PrefetchDisable
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
    "AccessResult",
    "CacheSpec",
    "CacheStats",
    "CoreCacheHierarchy",
    "CorePrefetchers",
    "EnergyBreakdown",
    "EnergySpec",
    "energy_of_run",
    "energy_of_window",
    "HierarchyStats",
    "L1IpStridePrefetcher",
    "L1NextLinePrefetcher",
    "L2AdjacentLinePrefetcher",
    "L2StreamerPrefetcher",
    "MSR_MISC_FEATURE_CONTROL",
    "Machine",
    "MachineSpec",
    "MemoryController",
    "MemorySpec",
    "MsrBank",
    "PrefetchDisable",
    "PrefetcherSpec",
    "SetAssociativeCache",
    "TransferStats",
    "effective_shares",
    "queueing_latency_multiplier",
    "small_test_machine",
    "xeon_e5_4650",
]
