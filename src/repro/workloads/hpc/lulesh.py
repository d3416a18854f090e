"""LULESH: the Sedov-blast shock-hydrodynamics proxy app.

LULESH solves the Sedov point-blast problem for one material on a 3D
mesh.  Each timestep makes several full-grid field sweeps: the state
is read twice, and flux and scratch fields are written, with neighbour
reads (regular, prefetchable) and moderate FLOPs per point.  The
trace replays those sweeps for ``steps`` timesteps on an ``n``^3 grid;
the paper measures good scalability (Fig 2f) and mid-range bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class Lulesh(Workload):
    """Sedov blast on an ``n``^3 grid for ``steps`` timesteps."""

    name: ClassVar[str] = "lulesh"
    suite: ClassVar[str] = "HPC"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("CalcHourglassControlForElems", "lulesh.cc", 714, 760),
        CodeRegion("EvalEOSForElems", "lulesh.cc", 1260, 1308),
    )

    n: int = 24
    steps: int = 12
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = self.n**3
        amap = AddressMap(base_line=1 << 34)
        amap.alloc("state", 5 * pts, 8)
        amap.alloc("flux", 5 * pts, 8)
        amap.alloc("scratch", 5 * pts, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        pts = self.n**3
        out: list[AccessBatch] = []
        for _ in range(self.steps):
            for arr, ip, wr, ipa in (
                ("state", 950, False, 6),
                ("flux", 951, True, 4),
                ("state", 952, False, 6),
                ("scratch", 953, True, 3),
            ):
                idx = np.arange(0, 5 * pts, 8, dtype=np.int64)
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines(arr, idx),
                        ip=ip, write=wr, instructions=ipa * len(idx),
                        region=0 if not wr else 1,
                    )
                )
        return out
