"""LSTM-AN4: the CNTK speech model (LSTM over CMU-AN4-shaped input).

A single-layer LSTM trained by backpropagation-through-time.  The
trace is its training-phase access stream (the phase the paper
measures): per timestep, the input GEMM and the recurrent GEMM, both
re-reading their weight matrices.

Memory behaviour: the recurrent weight matrices are re-read every
timestep (strong LLC reuse, small footprint), activations stream per
step — medium bandwidth, good scalability (paper: LSTM scales to ~6.3x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload
from repro.workloads.dl.convnet import _gemm_trace_batches


@dataclass
class LSTMAn4(Workload):
    """Sequence classifier: LSTM -> mean pool -> linear -> softmax."""

    name: ClassVar[str] = "LSTM"
    suite: ClassVar[str] = "CNTK"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("lstm_step_gemm", "recurrentnodes.cpp", 204, 231),
        CodeRegion("bptt_accumulate", "recurrentnodes.cpp", 260, 288),
    )

    seq_len: int = 20
    input_dim: int = 64
    hidden: int = 96
    batch: int = 8
    steps: int = 3
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d, h = self.input_dim, self.hidden
        amap = AddressMap(base_line=1 << 27)
        amap.alloc("wx", d * 4 * h, 8)
        amap.alloc("wh", h * 4 * h, 8)
        amap.alloc("x_seq", self.seq_len * self.batch * d, 8)
        amap.alloc("h_state", self.batch * h, 8)
        amap.alloc("gates", self.batch * 4 * h, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        out: list[AccessBatch] = []
        for _ in range(self.steps):
            for _t in range(self.seq_len):
                # gates = x @ wx + h @ wh : two GEMMs re-reading weights.
                out.extend(
                    _gemm_trace_batches(
                        self._amap, "x_seq", "wx", "gates",
                        m=self.batch, k=self.input_dim, n=4 * self.hidden,
                        region=0, ip_base=730,
                    )
                )
                out.extend(
                    _gemm_trace_batches(
                        self._amap, "h_state", "wh", "gates",
                        m=self.batch, k=self.hidden, n=4 * self.hidden,
                        region=1, ip_base=740,
                    )
                )
        return out
