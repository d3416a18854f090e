"""ATIS: the CNTK natural-language (air-travel information) model.

A slot-tagging network — embedding lookup, one LSTM layer, per-token
linear head — trained on token sequences.  The trace is its training
loop per token step: the embedding gather for the step's tokens, the
recurrent GEMM and a barrier spin.  Computationally it is tiny; its
defining systems property in the paper is *synchronization-bound
scaling*: above 2 threads, 80% of CPU cycles land in OpenMP's
``kmp_hyper_barrier_release`` (Section IV-A), so ATIS shows *no*
scalability and nearly zero bandwidth (Fig 2c, Fig 3).  We expose that
barrier as a first-class code region; the calibrated profile gives it
the paper's cycle shares via the scaling model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload
from repro.workloads.dl.convnet import _gemm_trace_batches


@dataclass
class ATIS(Workload):
    """Embedding + LSTM + per-token tag head, trained with SGD."""

    name: ClassVar[str] = "ATIS"
    suite: ClassVar[str] = "CNTK"
    regions: ClassVar[tuple[CodeRegion, ...]] = (
        CodeRegion("tagger_forward", "atis.cpp", 44, 71),
        CodeRegion("kmp_hyper_barrier_release", "kmp_barrier.cpp", 1, 1),
    )

    vocab: int = 512
    seq_len: int = 12
    embed_dim: int = 32
    hidden: int = 48
    n_tags: int = 16
    batch: int = 8
    steps: int = 3
    seed: int = 2
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        d, h = self.embed_dim, self.hidden
        # The tokens follow the model's weight matrices (embedding, LSTM
        # input and recurrent weights, tag head) in this generator's
        # stream: skip one normal per weight so the tokens, and with
        # them the pinned trace, stay the same.
        rng.normal(size=self.vocab * d + d * 4 * h + h * 4 * h + h * self.n_tags)
        self._tokens = rng.integers(0, self.vocab, (self.seq_len, self.batch))
        amap = AddressMap(base_line=1 << 28)
        amap.alloc("emb", self.vocab * d, 8)
        amap.alloc("wx", d * 4 * h, 8)
        amap.alloc("wh", h * 4 * h, 8)
        amap.alloc("h_state", self.batch * h, 8)
        amap.alloc("gates", self.batch * 4 * h, 8)
        amap.alloc("barrier_flags", 64, 8)
        self._amap = amap

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        rng = np.random.default_rng(seed)
        out: list[AccessBatch] = []
        for _ in range(self.steps):
            for t in range(self.seq_len):
                # Embedding gather: irregular but tiny footprint.
                toks = self._tokens[t]
                idx = (toks[:, None] * self.embed_dim + np.arange(0, self.embed_dim, 8)).ravel()
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines("emb", idx),
                        ip=800,
                        instructions=2 * len(idx),
                        region=0,
                    )
                )
                out.extend(
                    _gemm_trace_batches(
                        self._amap, "h_state", "wh", "gates",
                        m=self.batch, k=self.hidden, n=4 * self.hidden,
                        region=0, ip_base=810,
                    )
                )
                # Barrier spin: hammering a handful of flag lines —
                # (nearly) zero bandwidth, pure synchronization cycles.
                spin = rng.integers(0, 64, size=200)
                out.append(
                    AccessBatch.from_lines(
                        self._amap.lines("barrier_flags", spin),
                        ip=820,
                        instructions=20 * len(spin),
                        region=1,
                    )
                )
        return out
