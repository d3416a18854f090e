"""SPEC CPU2017 644.nab_s: molecular dynamics.

nab (Nucleic Acid Builder) spends its time in non-bonded force loops:
cutoff pair forces over cell-sorted neighbour lists, integrated with
velocity Verlet.  The trace is that loop per timestep: piecewise-local
gathers of particle positions (~25 instructions each), then a write
of the forces.

Systems profile: neighbour gathers have decent locality (cell-sorted),
high FLOPs per byte — low bandwidth, near-linear scaling in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class Nab(Workload):
    """Lennard-Jones force loop over ``n_particles`` particles."""

    name: ClassVar[str] = "nab"
    suite: ClassVar[str] = "SPEC CPU2017"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("mme_nonbonded", "eff.c", 1907, 1988),
    )

    n_particles: int = 64
    steps: int = 10
    seed: int = 12
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amap = AddressMap(base_line=1 << 39)
        amap.alloc("pos", self.n_particles * 3, 8)
        amap.alloc("force", self.n_particles * 3, 8)
        amap.alloc("neigh", self.n_particles * 64, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        rng = np.random.default_rng(seed + self.seed)
        out: list[AccessBatch] = []
        n3 = self.n_particles * 3
        for _ in range(self.steps):
            # Cell-ordered neighbour gathers: piecewise-local irregular.
            order = np.concatenate(
                [np.sort(rng.choice(n3, size=16, replace=False)) for _ in range(self.n_particles)]
            ).astype(np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("pos", order % n3),
                    ip=1000,
                    instructions=25 * len(order),  # r^2, r^-6, FMA-heavy
                    region=0,
                )
            )
            idx = np.arange(0, n3, 8, dtype=np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("force", idx),
                    ip=1001, write=True, instructions=4 * len(idx), region=0,
                )
            )
        return out
