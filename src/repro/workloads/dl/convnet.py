"""ConvNet workloads: the CNTK image-recognition models (CIFAR, MNIST).

Training runs im2col convolutions, max-pooling, a dense classifier and
SGD.  The trace is each training step's three GEMMs (the two im2col
convolutions and the dense layer) as blocked-GEMM access streams over
the im2col workspaces, weights and activations (the paper only
measures the training phase's performance, not accuracy).

The memory behaviour that matters for interference: the im2col
workspace is streamed sequentially (GEMM-friendly, moderately
prefetchable), weights are small and heavily reused (cache-resident),
so ConvNet-CIFAR lands at ~7.3 GB/s solo — an *offender* against graph
workloads yet much milder than fotonik3d/IRSmk (paper Section VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload


def _gemm_trace_batches(
    amap: AddressMap,
    a_name: str,
    b_name: str,
    c_name: str,
    m: int,
    k: int,
    n: int,
    *,
    elem: int = 8,
    tile: int = 64,
    region: int = 0,
    ip_base: int = 700,
) -> list[AccessBatch]:
    """Blocked-GEMM access pattern: stream B per row-tile of A, then
    write the C tile.  A-tiles are re-read (reuse), B streams (regular)."""
    out: list[AccessBatch] = []
    a_elems, b_elems, c_elems = m * k, k * n, m * n
    for row0 in range(0, m, tile):
        rows = min(tile, m - row0)
        a_idx = (row0 * k + np.arange(0, rows * k, max(elem, 1))) % a_elems
        out.append(
            AccessBatch.from_lines(
                amap.lines(a_name, a_idx),
                ip=ip_base,
                instructions=4 * len(a_idx),
                region=region,
            )
        )
        b_idx = np.arange(0, b_elems, 8, dtype=np.int64)  # one touch per line
        out.append(
            AccessBatch.from_lines(
                amap.lines(b_name, b_idx),
                ip=ip_base + 1,
                instructions=6 * len(b_idx),
                region=region,
            )
        )
        c_idx = (row0 * n + np.arange(0, rows * n, 8, dtype=np.int64)) % c_elems
        out.append(
            AccessBatch.from_lines(
                amap.lines(c_name, c_idx),
                ip=ip_base + 2,
                write=True,
                instructions=2 * len(c_idx),
                region=region,
            )
        )
    return out


@dataclass
class ConvNet(Workload):
    """Two-conv-layer classifier trained with SGD."""

    name: ClassVar[str] = "ConvNet"
    suite: ClassVar[str] = "CNTK"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("im2col_gemm", "convolution.cpp", 112, 140),
        CodeRegion("sgd_update", "learner.cpp", 88, 95),
    )

    in_channels: int = 3
    image_size: int = 32
    n_classes: int = 10
    batch: int = 16
    filters1: int = 8
    filters2: int = 16
    steps: int = 3
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        c, s = self.in_channels, self.image_size
        f1, f2 = self.filters1, self.filters2
        fc_in = f2 * (s // 4) * (s // 4)
        amap = AddressMap(base_line=1 << 26)
        # im2col workspaces and weight arrays drive the trace.
        cols1 = self.batch * c * 9 * s * s
        cols2 = self.batch * f1 * 9 * (s // 2) * (s // 2)
        amap.alloc("cols1", cols1, 8)
        amap.alloc("w1", f1 * c * 9, 8)
        amap.alloc("act1", self.batch * f1 * s * s, 8)
        amap.alloc("cols2", cols2, 8)
        amap.alloc("w2", f2 * f1 * 9, 8)
        amap.alloc("act2", self.batch * f2 * (s // 2) * (s // 2), 8)
        amap.alloc("fc_w", fc_in * self.n_classes, 8)
        amap.alloc("logits", self.batch * self.n_classes, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        s, c = self.image_size, self.in_channels
        f1, f2 = self.filters1, self.filters2
        out: list[AccessBatch] = []
        for _ in range(self.steps):
            # conv1 GEMM: (f1) x (c*9) @ (c*9) x (s*s*batch)
            out.extend(
                _gemm_trace_batches(
                    self._amap, "cols1", "w1", "act1",
                    m=self.batch * s * s, k=c * 9, n=f1, region=0,
                )
            )
            out.extend(
                _gemm_trace_batches(
                    self._amap, "cols2", "w2", "act2",
                    m=self.batch * (s // 2) ** 2, k=f1 * 9, n=f2, region=0,
                    ip_base=710,
                )
            )
            out.extend(
                _gemm_trace_batches(
                    self._amap, "act2", "fc_w", "logits",
                    m=self.batch, k=f2 * (s // 4) ** 2, n=self.n_classes,
                    region=1, ip_base=720,
                )
            )
        return out


@dataclass
class ConvNetCIFAR(ConvNet):
    """ConvNet on CIFAR-shaped inputs (3x32x32, 10 classes)."""

    name: ClassVar[str] = "CIFAR"


@dataclass
class ConvNetMNIST(ConvNet):
    """ConvNet on MNIST-shaped inputs (1x28x28, 10 classes)."""

    name: ClassVar[str] = "MNIST"

    in_channels: int = 1
    image_size: int = 28
