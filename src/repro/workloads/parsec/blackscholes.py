"""PARSEC blackscholes: analytic European option pricing.

The benchmark prices a portfolio of options with the closed-form
Black-Scholes formula; the trace is its access stream: one sequential
read of the six input arrays and one write of the prices per sweep,
with ~45 instructions per touched line.  It is the archetypal
*harmless* co-runner in the paper: hundreds of FLOPs per touched cache
line, tiny working set, negligible bandwidth; neither a victim nor an
offender in any pairing (Fig 5's near-all-1.0 row and column).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class BlackScholes(Workload):
    """Price ``n_options`` synthetic options, ``sweeps`` times over."""

    name: ClassVar[str] = "blackscholes"
    suite: ClassVar[str] = "PARSEC"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("BlkSchlsEqEuroNoDiv", "blackscholes.c", 255, 291),
    )

    n_options: int = 4096
    sweeps: int = 4
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n_options
        amap = AddressMap(base_line=1 << 29)
        amap.alloc("inputs", 6 * n, 8)
        amap.alloc("prices", n, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        n = self.n_options
        out: list[AccessBatch] = []
        for _ in range(self.sweeps):
            idx = np.arange(0, 6 * n, 8, dtype=np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("inputs", idx),
                    ip=900,
                    # ~40 FLOPs (log/exp/erf) per option, 6 loads each:
                    # extremely compute-dense per line.
                    instructions=45 * len(idx),
                    region=0,
                )
            )
            w_idx = np.arange(0, n, 8, dtype=np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("prices", w_idx),
                    ip=901,
                    write=True,
                    instructions=2 * len(w_idx),
                    region=0,
                )
            )
        return out
