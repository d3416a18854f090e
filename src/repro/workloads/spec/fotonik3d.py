"""SPEC CPU2017 649.fotonik3d_s: FDTD electromagnetics.

fotonik3d computes photonic-waveguide transmission with the finite-
difference time-domain (Yee) method: six field arrays updated by curl
stencils every timestep, perfectly regular sweeps over data far larger
than any cache.  That makes it the paper's canonical *offender*: ~18.4
GB/s solo (Table III), strongly prefetcher-sensitive (Fig 4), scaling
collapse after 4 threads as it saturates the bus alone (Fig 2e), and
the workload that inflates G-CC's runtime to ~2x (Fig 5).  The paper's
Table IV profiles its ``UUS`` update region.

The trace sweeps the six field arrays (read and write) in the ``UUS``
region every timestep, then makes one ``power_sum`` reduction pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class Fotonik3D(Workload):
    """Yee FDTD sweeps over six ``n``^3 field arrays."""

    name: ClassVar[str] = "fotonik3d"
    suite: ClassVar[str] = "SPEC CPU2017"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("UUS", "update.F90", 33, 92),
        CodeRegion("power_sum", "power.F90", 12, 30),
    )

    n: int = 24
    steps: int = 10
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = self.n**3
        amap = AddressMap(base_line=1 << 37)
        for f in ("ex", "ey", "ez", "hx", "hy", "hz"):
            amap.alloc(f, pts, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        pts = self.n**3
        idx = np.arange(0, pts, 8, dtype=np.int64)
        out: list[AccessBatch] = []
        for _ in range(self.steps):
            # UUS region: all six arrays swept sequentially, read+write,
            # ~2 FLOPs per point: bandwidth-bound by construction.
            for f in ("ex", "ey", "ez"):
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines(f, idx),
                        ip=980, write=True, instructions=2 * len(idx), region=0,
                    )
                )
            for f in ("hx", "hy", "hz"):
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines(f, idx),
                        ip=981, write=True, instructions=2 * len(idx), region=0,
                    )
                )
            # power_sum region: one reduction pass over E fields.
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("ez", idx),
                    ip=982, instructions=2 * len(idx), region=1,
                )
            )
        return out
