"""SPEC CPU2017 623.xalancbmk_s: XSLT/XML transformation.

xalancbmk applies XSLT stylesheets to XML documents — tree walks with
pointer-chasing over heap-allocated nodes, string handling, and very
little arithmetic.  The trace is one walk per stylesheet pass: a
random permutation over the node heap and random reads of the string
pool.

Systems profile: irregular pointer chasing over a modest footprint,
low bandwidth (Fig 3), Harmony in essentially all pairings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class Xalancbmk(Workload):
    """Stylesheet passes over an ``n_nodes``-node document."""

    name: ClassVar[str] = "xalancbmk"
    suite: ClassVar[str] = "SPEC CPU2017"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("transformNode", "XSLTEngineImpl.cpp", 611, 689),
    )

    n_nodes: int = 2000
    passes: int = 4
    seed: int = 13
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amap = AddressMap(base_line=1 << 40)
        amap.alloc("nodes", self.n_nodes * 8, 8)
        amap.alloc("strings", self.n_nodes * 16, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        rng = np.random.default_rng(seed + self.seed)
        out: list[AccessBatch] = []
        n_words = self.n_nodes * 8
        for _ in range(self.passes):
            # DFS pointer chase: parent -> child jumps over the heap.
            walk = rng.permutation(n_words).astype(np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("nodes", walk),
                    ip=1010, instructions=12 * len(walk), region=0,
                )
            )
            s_idx = rng.integers(0, self.n_nodes * 16, size=n_words // 2).astype(np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("strings", s_idx),
                    ip=1011, instructions=8 * len(s_idx), region=0,
                )
            )
        return out
