"""SPEC CPU2017 605.mcf_s: minimum-cost flow.

mcf solves single-depot vehicle scheduling as min-cost network flow;
its hot loop chases arc/node pointers with no spatial locality — the
paper's Fig 3 shows it among the highest-bandwidth SPEC codes, yet it
scales well (Table II High) because each instance is independent
(SPEC-rate style).

The trace is that pricing loop: random walks over the arc structs,
each followed by scattered node updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class MCF(Workload):
    """Min-cost flow pricing over ``n_nodes`` nodes and ``n_arcs`` arcs."""

    name: ClassVar[str] = "mcf"
    suite: ClassVar[str] = "SPEC CPU2017"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("primal_bea_mpp", "pbeampp.c", 165, 230),
    )

    n_nodes: int = 64
    n_arcs: int = 256
    seed: int = 10
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amap = AddressMap(base_line=1 << 36)
        amap.alloc("nodes", self.n_nodes * 8, 8)
        amap.alloc("arcs", self.n_arcs * 16, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        rng = np.random.default_rng(seed + self.seed)
        out: list[AccessBatch] = []
        # Pointer chasing over arc structs: dependent irregular loads
        # (the pricing loop of primal_bea_mpp).
        n_arc_words = self.n_arcs * 16
        for _ in range(12):
            walk = rng.permutation(n_arc_words)[: n_arc_words // 2].astype(np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("arcs", walk),
                    ip=970, instructions=4 * len(walk), region=0,
                )
            )
            node_idx = rng.integers(0, self.n_nodes * 8, size=len(walk) // 4)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("nodes", node_idx.astype(np.int64)),
                    ip=971, write=True, instructions=3 * len(node_idx), region=0,
                )
            )
        return out
