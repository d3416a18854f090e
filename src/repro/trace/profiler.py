"""Trace-layer profiler: measure a kernel's memory behaviour.

``TraceProfiler`` pushes a workload's access stream through a one-core
cache model and extracts exactly the quantities the interval engine's
:class:`~repro.workloads.base.RegionProfile` needs:

* private-cache behaviour — L1/L2 miss ratios and the fixed L2 MPKI;
* the LLC miss-ratio curve, from exact stack distances of the L2-miss
  stream (what actually reaches the shared cache);
* prefetchable *regularity*, measured the honest way: run the same
  stream through a fresh :class:`~repro.machine.CoreCacheHierarchy`
  with its prefetchers on, then off, and compare DRAM demand traffic —
  the model of the paper's Fig 4 experiment, which flips MSR 0x1A4 on
  real cores;
* footprint and write fraction.

This is how a user characterizes *their own* application against the
library (see ``examples/custom_workload.py``); the built-in calibrated
profiles follow the same schema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.machine.cache import SetAssociativeCache
from repro.machine.hierarchy import CoreCacheHierarchy
from repro.machine.spec import MachineSpec, xeon_e5_4650
from repro.trace.mrc import MissRatioCurve
from repro.trace.reuse import reuse_distances
from repro.trace.stream import AccessBatch, TraceSource, take
from repro.units import MiB

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # deferred: workloads.base imports trace.mrc at runtime
    from repro.workloads.base import CodeRegion, ScalingModel, WorkloadProfile


@dataclass(frozen=True)
class TraceCharacterization:
    """Measured memory behaviour of one trace (one code region)."""

    accesses: int
    instructions: int
    l1_miss_ratio: float
    l2_miss_ratio: float
    #: Demand misses past private L2 per kilo-instruction.
    l2_mpki: float
    #: LLC miss-ratio curve of the L2-miss stream.
    llc_mrc: MissRatioCurve
    #: Fraction of DRAM demand traffic removed by the prefetchers.
    regularity: float
    #: Distinct-line footprint of the L2-miss stream, in bytes.
    footprint_bytes: float
    #: Write share of accesses (proxy for writeback intensity).
    write_fraction: float

    @property
    def refs_per_kinstr(self) -> float:
        """Memory references per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.accesses / self.instructions


class TraceProfiler:
    """Characterize traces against one core of a machine model."""

    def __init__(self, spec: MachineSpec | None = None) -> None:
        self.spec = spec if spec is not None else xeon_e5_4650()

    # -- internals -------------------------------------------------------

    def _materialize(
        self, trace: TraceSource, max_accesses: int | None
    ) -> list[AccessBatch]:
        if max_accesses is not None:
            batches = list(take(trace, max_accesses))
        else:
            batches = list(trace)
        if not batches or not any(len(b) for b in batches):
            raise TraceError("cannot profile an empty trace")
        return batches

    def _private_pass(self, batches: list[AccessBatch]) -> tuple[dict, np.ndarray]:
        """Run the trace through private L1+L2 only (no prefetch);
        return counters and the L2-miss line stream."""
        l1 = SetAssociativeCache(self.spec.l1d)
        l2 = SetAssociativeCache(self.spec.l2)
        l2_miss_lines: list[np.ndarray] = []
        for batch in batches:
            miss_mask = np.zeros(len(batch), dtype=bool)
            for i in range(len(batch)):
                line = int(batch.lines[i])
                if l1.access(line, write=bool(batch.writes[i])).hit:
                    continue
                if not l2.access(line).hit:
                    miss_mask[i] = True
            l2_miss_lines.append(batch.lines[miss_mask])
        counters = {
            "l1_hits": l1.stats.hits,
            "l1_misses": l1.stats.misses,
            "l2_hits": l2.stats.hits,
            "l2_misses": l2.stats.misses,
        }
        stream = (
            np.concatenate(l2_miss_lines) if l2_miss_lines else np.empty(0, np.int64)
        )
        return counters, stream

    def _dram_demand_bytes(self, batches: list[AccessBatch], *, prefetch: bool) -> int:
        core = CoreCacheHierarchy(self.spec, prefetch=prefetch)
        for batch in batches:
            for i in range(len(batch)):
                core.access(
                    int(batch.ips[i]), int(batch.lines[i]), write=bool(batch.writes[i])
                )
        return core.demand_bytes

    # -- public API ------------------------------------------------------

    def characterize(
        self, trace: TraceSource, *, max_accesses: int | None = 60_000
    ) -> TraceCharacterization:
        """Measure a trace; truncates to ``max_accesses`` for tractability."""
        batches = self._materialize(trace, max_accesses)
        accesses = sum(len(b) for b in batches)
        instructions = sum(b.instructions for b in batches)
        writes = sum(int(b.writes.sum()) for b in batches)

        counters, l2_miss_stream = self._private_pass(batches)
        l1_total = counters["l1_hits"] + counters["l1_misses"]
        l2_total = counters["l2_hits"] + counters["l2_misses"]
        l1_mr = counters["l1_misses"] / l1_total if l1_total else 0.0
        l2_mr = counters["l2_misses"] / l2_total if l2_total else 0.0
        l2_mpki = 1000.0 * counters["l2_misses"] / instructions if instructions else 0.0

        if len(l2_miss_stream):
            dists = reuse_distances(l2_miss_stream)
            mrc = MissRatioCurve.from_reuse_distances(
                dists, line_bytes=self.spec.line_bytes
            )
            footprint = float(len(np.unique(l2_miss_stream)) * self.spec.line_bytes)
        else:
            mrc = MissRatioCurve.constant(0.0)
            footprint = float(self.spec.line_bytes)

        demand_off = self._dram_demand_bytes(batches, prefetch=False)
        demand_on = self._dram_demand_bytes(batches, prefetch=True)
        regularity = (
            max(0.0, 1.0 - demand_on / demand_off) if demand_off > 0 else 0.0
        )

        return TraceCharacterization(
            accesses=accesses,
            instructions=instructions,
            l1_miss_ratio=l1_mr,
            l2_miss_ratio=l2_mr,
            l2_mpki=l2_mpki,
            llc_mrc=mrc,
            regularity=min(1.0, regularity),
            footprint_bytes=footprint,
            write_fraction=writes / accesses if accesses else 0.0,
        )

    def build_profile(
        self,
        name: str,
        trace: TraceSource,
        *,
        suite: str = "custom",
        region: "CodeRegion | None" = None,
        ipc_core: float = 2.0,
        mlp: float = 2.0,
        total_kinstr: float | None = None,
        scaling: "ScalingModel | None" = None,
        max_accesses: int | None = 60_000,
    ) -> "WorkloadProfile":
        """One-stop conversion: trace -> engine-ready WorkloadProfile.

        ``ipc_core`` and ``mlp`` are compute-side properties a memory
        trace cannot reveal; callers supply them (defaults are moderate).
        """
        from repro.workloads.base import (
            CodeRegion,
            RegionProfile,
            ScalingModel,
            WorkloadProfile,
        )

        char = self.characterize(trace, max_accesses=max_accesses)
        if region is None:
            region = CodeRegion(name=f"{name}.main", file=f"{name}.py", line_lo=1, line_hi=1)
        rp = RegionProfile(
            region=region,
            weight=1.0,
            ipc_core=ipc_core,
            l2_mpki=char.l2_mpki,
            mrc=char.llc_mrc,
            regularity=char.regularity,
            mlp=mlp,
            write_fraction=min(1.0, char.write_fraction + 0.1),
            footprint_bytes=max(char.footprint_bytes, 1 * MiB),
        )
        kinstr = total_kinstr if total_kinstr is not None else char.instructions / 1000.0
        return WorkloadProfile(
            name=name,
            suite=suite,
            total_kinstr=kinstr,
            regions=(rp,),
            scaling=scaling if scaling is not None else ScalingModel(),
        )
