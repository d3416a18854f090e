"""PARSEC streamcluster: online k-median clustering.

The benchmark streams blocks of points and maintains at most ``k``
medians by repeatedly evaluating the *gain* of opening a new center —
each evaluation sweeps the whole resident block computing distances.
Those repeated linear sweeps over a block much larger than the LLC are
why streamcluster is the bandwidth hog of PARSEC (Fig 3) and strongly
prefetcher-sensitive (Fig 4), saturating after 4 threads (Table II).

The trace has the same structure: per streamed block, four full-block
sweeps (each with a read of the ``k`` centers) and one write of the
block's assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import WorkloadError
from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class StreamCluster(Workload):
    """Online k-median over ``n_points`` points of ``dim`` floats."""

    name: ClassVar[str] = "streamcluster"
    suite: ClassVar[str] = "PARSEC"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("pgain", "streamcluster.cpp", 652, 744),
    )

    n_points: int = 4096
    dim: int = 16
    k: int = 8
    block: int = 1024
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.k <= 0 or self.block <= 0:
            raise WorkloadError("k and block must be positive")
        amap = AddressMap(base_line=1 << 32)
        amap.alloc("block_points", self.block * self.dim, 8)
        amap.alloc("centers", self.k * self.dim, 8)
        amap.alloc("assign", self.block, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        out: list[AccessBatch] = []
        n_blocks = self.n_points // self.block
        pt_idx = np.arange(0, self.block * self.dim, 8, dtype=np.int64)
        c_idx = np.arange(0, self.k * self.dim, 8, dtype=np.int64)
        for _ in range(n_blocks):
            # pgain: repeated full-block sweeps (distance evaluations) —
            # streaming reads with low compute per element.
            for _sweep in range(4):
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines("block_points", pt_idx),
                        ip=930, instructions=3 * len(pt_idx), region=0,
                    )
                )
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines("centers", c_idx),
                        ip=931, instructions=2 * len(c_idx), region=0,
                    )
                )
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("assign", np.arange(0, self.block, 8, dtype=np.int64)),
                    ip=932, write=True, instructions=self.block // 8, region=0,
                )
            )
        return out
