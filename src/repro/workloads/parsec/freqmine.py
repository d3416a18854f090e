"""PARSEC freqmine: frequent-itemset mining with FP-growth.

The benchmark builds an FP-tree over a transaction database, then mines
every itemset above the support threshold by recursive
conditional-tree projection.  The trace is that run's access stream: a
sequential scan of the transactions, then Zipf-skewed pointer chasing
over the tree nodes.

Memory behaviour: FP-tree construction and projection chase parent/
child node links — irregular but over a modest footprint; the paper
measures low bandwidth and near-linear scalability for freqmine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class FreqMine(Workload):
    """FP-growth over ``n_transactions`` transactions of ``avg_len`` items."""

    name: ClassVar[str] = "freqmine"
    suite: ClassVar[str] = "PARSEC"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("FP_growth", "fp_tree.cpp", 310, 371),
    )

    n_transactions: int = 800
    avg_len: int = 8
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amap = AddressMap(base_line=1 << 31)
        amap.alloc("tree_nodes", 8 * self.n_transactions * self.avg_len, 8)
        amap.alloc("transactions", self.n_transactions * self.avg_len, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        rng = np.random.default_rng(seed)
        n_nodes = 8 * self.n_transactions * self.avg_len
        out: list[AccessBatch] = []
        # Phase 1: sequential transaction scan (tree build input).
        scan = np.arange(0, self.n_transactions * self.avg_len, 8, dtype=np.int64)
        out.append(
            AccessBatch.from_lines(
                self._amap.lines("transactions", scan),
                ip=920, instructions=6 * len(scan), region=0,
            )
        )
        # Phase 2: pointer-chasing over tree nodes during mining —
        # irregular, but with strong reuse of the hot upper tree.
        for _ in range(6):
            hot = rng.zipf(1.3, size=4000) % n_nodes
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("tree_nodes", hot.astype(np.int64)),
                    ip=921, instructions=8 * len(hot), region=0,
                )
            )
        return out
