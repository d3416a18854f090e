"""SPEC CPU2017 631.deepsjeng_s: game-tree search.

deepsjeng is a chess engine dominated by alpha-beta search with a
transposition table.  The trace is that search's access stream from
``n_roots`` root positions: random probes into the transposition
table and writes to a small board stack, with ~40 instructions per
probe (move generation, evaluation).

Systems profile: tiny working set (TT lookups hit in cache), high IPC,
near-zero bandwidth — a perfect Harmony citizen (Fig 5) with linear
SPEC-rate scaling (Fig 2e prose).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


@dataclass
class DeepSjeng(Workload):
    """Alpha-beta search from ``n_roots`` root positions."""

    name: ClassVar[str] = "deepsjeng"
    suite: ClassVar[str] = "SPEC CPU2017"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("search", "search.cpp", 404, 498),
    )

    n_roots: int = 4
    seed: int = 11
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amap = AddressMap(base_line=1 << 38)
        amap.alloc("tt", 100_003 * 2, 8)
        amap.alloc("board_stack", 4096, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        rng = np.random.default_rng(seed + self.seed)
        out: list[AccessBatch] = []
        for _ in range(self.n_roots):
            # TT probes: random within the table (moderate footprint).
            probes = rng.integers(0, 100_003 * 2, size=5000).astype(np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("tt", probes),
                    ip=990,
                    # Search is compute-dominated: move gen, eval, etc.
                    instructions=40 * len(probes),
                    region=0,
                )
            )
            stack = rng.integers(0, 4096, size=2000).astype(np.int64)
            out.append(
                AccessBatch.from_lines(
                    self._amap.lines("board_stack", stack),
                    ip=991, write=True, instructions=10 * len(stack), region=0,
                )
            )
        return out
