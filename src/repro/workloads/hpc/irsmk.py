"""IRSmk: the LLNL implicit-radiation-solver matrix-multiply kernel.

The real IRSmk is a banded 27-point matrix-vector product written as
nested do-loops: for every interior grid point, accumulate 27
coefficient*neighbour products, with a *separate coefficient array per
stencil point*.  That layout means ~29 simultaneous sequential streams
(27 coefficient arrays + x + b) — the reason IRSmk consumes ~18 GB/s,
is among the most prefetcher-sensitive codes in the paper (Fig 4),
saturates after ~6 threads (Fig 2f) and is a chronic *offender*
(Table III, Fig 5).  The trace sweeps those streams once per matvec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class IRSmk(Workload):
    """Repeated 27-point matvec sweeps over a 3D grid."""

    name: ClassVar[str] = "IRSmk"
    suite: ClassVar[str] = "HPC"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("rmatmult3", "irsmk.c", 37, 118),
    )

    n: int = 24
    sweeps: int = 4
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = self.n**3
        amap = AddressMap(base_line=1 << 33)
        amap.alloc("coef", 27 * pts, 8)
        amap.alloc("x", pts, 8)
        amap.alloc("b", pts, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        pts = self.n**3
        out: list[AccessBatch] = []
        x_idx = np.arange(0, pts, 8, dtype=np.int64)
        for _ in range(self.sweeps):
            # 27 coefficient streams + the x stream + the b write stream,
            # all sequential: the most regular, heaviest traffic pattern.
            coef_idx = np.arange(0, 27 * pts, 8, dtype=np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("coef", coef_idx),
                    ip=940, instructions=2 * len(coef_idx), region=0,
                )
            )
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("x", x_idx),
                    ip=941, instructions=2 * len(x_idx), region=0,
                )
            )
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("b", x_idx),
                    ip=942, write=True, instructions=len(x_idx), region=0,
                )
            )
        return out
