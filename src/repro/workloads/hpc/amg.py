"""AMG2006: the LLNL parallel algebraic multigrid solver.

The trace follows AMG2006's three-phase structure that the paper calls
out (Sections IV-A, V-A) on a ``(2^k + 1)^2`` grid:

1. **setup phase 1** (serial): fine-grid operator and right-hand side
   construction — one sequential pass;
2. **setup phase 2** (serial): coarse-grid hierarchy construction —
   one pass over the hierarchy;
3. **solve phase** (parallel): V-cycle iterations — repeated full-grid
   smoothing and residual sweeps with intensive, regular memory
   traffic.

Because only the last phase parallelizes and it is bandwidth-hungry,
AMG2006 lands in the paper's Low-scalability class while still showing
a short high-bandwidth burst (its "exception" behaviour as an offender
in Fig 5's discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class AMG2006(Workload):
    """Multigrid Poisson solve with AMG2006's three-phase shape."""

    name: ClassVar[str] = "AMG2006"
    suite: ClassVar[str] = "HPC"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("setup_fine_grid", "amg_setup.c", 120, 168, ),
        CodeRegion("setup_coarse_hierarchy", "amg_setup.c", 200, 266),
        CodeRegion("vcycle_solve", "amg_solve.c", 77, 140),
    )

    k: int = 6  # grid = (2^k + 1)^2
    cycles: int = 6
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n = (1 << self.k) + 1
        pts = self.n * self.n
        amap = AddressMap(base_line=1 << 35)
        amap.alloc("rhs", pts, 8)
        amap.alloc("x", pts, 8)
        amap.alloc("residual", pts, 8)
        amap.alloc("hierarchy", 2 * pts, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        pts = self.n * self.n
        idx = np.arange(0, pts, 8, dtype=np.int64)
        out: list[AccessBatch] = []
        # Phase 1 (serial): RHS construction — one sequential pass.
        out.append(
            AccessBatch.from_lines(
                self._amap.lines("rhs", idx),
                ip=960, write=True, instructions=8 * len(idx), region=0,
            )
        )
        # Phase 2 (serial): hierarchy construction — two passes.
        h_idx = np.arange(0, 2 * pts, 8, dtype=np.int64)
        out.append(
            AccessBatch.from_lines(
                self._amap.lines("hierarchy", h_idx),
                ip=961, write=True, instructions=5 * len(h_idx), region=1,
            )
        )
        # Phase 3 (parallel): V-cycles — repeated full-grid sweeps with
        # low compute per point: the high-bandwidth burst.
        for _ in range(self.cycles):
            for arr, ip, wr in (("x", 962, False), ("residual", 963, True), ("x", 964, True)):
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines(arr, idx),
                        ip=ip, write=wr, instructions=2 * len(idx), region=2,
                    )
                )
        return out
