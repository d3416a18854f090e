"""McCalpin STREAM: the canonical bandwidth mini-benchmark.

Copy / Scale / Add / Triad over arrays far larger than any cache.  The
paper uses STREAM as the *heavy* interference generator (Fig 6b): its
perfectly regular pattern is amplified by the hardware prefetchers to
~24.5 GB/s at 4 threads (of ~28 GB/s practical peak), and its streaming
insertions continuously flush the shared LLC — the combination that
slows GeminiGraph applications to ~208% of their solo runtime.
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
class StreamBench(Workload):
    """STREAM's four kernels over ``n_elems`` float64 per array."""

    name: ClassVar[str] = "Stream"
    suite: ClassVar[str] = "mini-benchmarks"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("triad", "stream.c", 345, 348),
    )

    n_elems: int = 1 << 18
    repetitions: int = 2
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_elems <= 0:
            raise WorkloadError("n_elems must be positive")
        amap = AddressMap(base_line=1 << 42)
        amap.alloc("a", self.n_elems, 8)
        amap.alloc("b", self.n_elems, 8)
        amap.alloc("c", self.n_elems, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        idx = np.arange(0, self.n_elems, 8, dtype=np.int64)
        out: list[AccessBatch] = []
        for _ in range(self.repetitions):
            for reads, writes, ip in (
                (("a",), ("c",), 1030),          # copy
                (("c",), ("b",), 1031),          # scale
                (("a", "b"), ("c",), 1032),      # add
                (("b", "c"), ("a",), 1033),      # triad
            ):
                for r in reads:
                    out.append(
                        AccessBatch.from_lines(
                            self._amap.lines(r, idx),
                            ip=ip, instructions=2 * len(idx), region=0,
                        )
                    )
                for w in writes:
                    out.append(
                        AccessBatch.from_lines(
                            self._amap.lines(w, idx),
                            ip=ip + 100, write=True,
                            instructions=len(idx), region=0,
                        )
                    )
        return out
