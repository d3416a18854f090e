"""PARSEC swaptions: Monte-Carlo interest-rate derivative pricing.

The original prices swaptions under the HJM framework by per-path
stochastic simulation: tiny per-path state, heavy math.  The trace is
that shape: every time step updates each path's state (~30
instructions per path), and a final pass writes the discount factors.

Like blackscholes it is compute-dense and cache-resident: the paper
finds it completely Harmony in every pairing.
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
class Swaptions(Workload):
    """Monte-Carlo path simulation over ``n_paths`` paths."""

    name: ClassVar[str] = "swaptions"
    suite: ClassVar[str] = "PARSEC"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("HJM_SimPath_Forward", "HJM_SimPath.c", 45, 102),
    )

    n_paths: int = 4000
    n_steps: int = 64
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_paths <= 0 or self.n_steps <= 0:
            raise WorkloadError("paths and steps must be positive")
        amap = AddressMap(base_line=1 << 30)
        amap.alloc("path_state", self.n_paths, 8)
        amap.alloc("discounts", self.n_paths, 8)
        amap.alloc("rng_state", 64, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        out: list[AccessBatch] = []
        path_idx = np.arange(0, self.n_paths, 8, dtype=np.int64)
        for _ in range(self.n_steps):
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("path_state", path_idx),
                    ip=910,
                    write=True,
                    # exp + normal draw + FMA per path: compute heavy.
                    instructions=30 * len(path_idx),
                    region=0,
                )
            )
        out.append(
            AccessBatch.from_lines(
                self._amap.lines("discounts", path_idx),
                ip=911,
                write=True,
                instructions=5 * len(path_idx),
                region=0,
            )
        )
        return out
