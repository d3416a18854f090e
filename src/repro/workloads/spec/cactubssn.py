"""SPEC CPU2017 607.cactuBSSN_s: numerical relativity stencils.

cactuBSSN evolves Einstein's equations in the BSSN formulation — its
kernels are high-order finite-difference stencils over ~25 3D grid
functions with heavy pointwise algebra.  The trace is the
representative computation: per timestep, a sweep over four coupled
fields at ~60 instructions per point (4th-order derivative taps plus a
nonlinear right-hand side), then a write of the right-hand side.

Systems profile: regular sweeps like fotonik3d, but with far more FLOPs
per point, so it is compute- rather than bandwidth-bound: near-linear
scaling (Fig 2e), low-mid bandwidth, Harmony in pairings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class CactuBSSN(Workload):
    """BSSN-like right-hand-side sweeps on an ``n``^3 grid."""

    name: ClassVar[str] = "cactuBSSN"
    suite: ClassVar[str] = "SPEC CPU2017"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("ML_BSSN_RHS", "ML_BSSN_EvolutionInterior.cc", 301, 402),
    )

    n: int = 20
    steps: int = 6
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = self.n**3
        amap = AddressMap(base_line=1 << 41)
        for f in ("phi", "K", "gxx", "beta", "rhs"):
            amap.alloc(f, pts, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        pts = self.n**3
        idx = np.arange(0, pts, 8, dtype=np.int64)
        out: list[AccessBatch] = []
        for _ in range(self.steps):
            for f in ("phi", "K", "gxx", "beta"):
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines(f, idx),
                        ip=1020,
                        # ~60 FLOPs per point (derivative taps + algebra).
                        instructions=60 * len(idx),
                        region=0,
                    )
                )
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("rhs", idx),
                    ip=1021, write=True, instructions=4 * len(idx), region=0,
                )
            )
        return out
