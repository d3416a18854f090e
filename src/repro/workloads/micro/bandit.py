"""Bandit: the cache-conflict bandwidth mini-benchmark (Xu et al.,
IPDPS'17 — the same authors' Dr-BW work).

Bandit issues memory requests where *every access conflicts with the
previous one in the caches*: consecutive addresses map to the same set,
so each access evicts its predecessor and goes to DRAM.  The result is
pure bandwidth pressure (~18 GB/s at 4 threads) with an almost-zero
cache footprint — unlike STREAM it neither benefits from prefetchers
nor pollutes the LLC, which is exactly why the paper finds co-running
with Bandit far gentler than with STREAM (Fig 6a vs 6b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import WorkloadError
from repro.trace.stream import AccessBatch
from repro.trace.synth import conflict_chase
from repro.workloads.base import CodeRegion, Workload


@dataclass
class Bandit(Workload):
    """Same-set conflict chase sized against a target LLC geometry."""

    name: ClassVar[str] = "Bandit"
    suite: ClassVar[str] = "mini-benchmarks"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("conflict_loop", "bandit.c", 22, 41),
    )

    #: LLC set count of the target machine (Xeon E5-4650 LLC: 16384).
    llc_sets: int = 16384
    n_accesses: int = 200_000

    def __post_init__(self) -> None:
        if self.llc_sets <= 0 or self.n_accesses <= 0:
            raise WorkloadError("llc_sets and n_accesses must be positive")

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        # One line per access, all in set 0 of the LLC: the footprint
        # that matters (LLC occupancy) is a single set's worth of lines.
        return list(
            conflict_chase(
                self.n_accesses, n_sets=self.llc_sets,
                ip=1040, instructions_per_access=1.2, region=0, seed=seed,
            )
        )
