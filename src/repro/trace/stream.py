"""Memory-access trace representation.

A trace is an iterable of :class:`AccessBatch` objects — struct-of-array
chunks holding instruction pointers, cache-line addresses and write
flags, plus the number of dynamic instructions the chunk represents
(memory instructions *and* the compute instructions between them) and a
code-region id for attribution.  Batching keeps the numpy-vectorized
generators efficient while the cache model consumes accesses one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError


@dataclass(frozen=True)
class AccessBatch:
    """One chunk of a memory-access trace.

    Attributes:
        ips: Instruction-pointer ids, one per access (drives IP-stride
            prefetch detection; synthetic kernels use small stable ids).
        lines: Cache-line addresses, one per access.
        writes: Write flag per access (False = load).
        instructions: Dynamic instructions this chunk represents; must be
            at least ``len(lines)`` (every access is an instruction).
        region: Code-region index for profiler attribution.
    """

    ips: np.ndarray
    lines: np.ndarray
    writes: np.ndarray
    instructions: int = 0
    region: int = 0

    def __post_init__(self) -> None:
        n = len(self.lines)
        if len(self.ips) != n or len(self.writes) != n:
            raise TraceError(
                f"ragged batch: ips={len(self.ips)} lines={n} writes={len(self.writes)}"
            )
        if n and int(self.lines.min()) < 0:
            raise TraceError("negative line address in batch")
        inst = self.instructions if self.instructions else n
        if inst < n:
            raise TraceError(
                f"batch claims {inst} instructions for {n} memory accesses"
            )
        object.__setattr__(self, "instructions", inst)

    def __len__(self) -> int:
        return len(self.lines)

    @staticmethod
    def from_lines(
        lines: np.ndarray | list[int],
        *,
        ip: int = 0,
        write: bool = False,
        instructions: int = 0,
        region: int = 0,
    ) -> "AccessBatch":
        """Build a batch of same-IP, same-direction accesses."""
        arr = np.asarray(lines, dtype=np.int64)
        return AccessBatch(
            ips=np.full(arr.shape, ip, dtype=np.int64),
            lines=arr,
            writes=np.full(arr.shape, write, dtype=bool),
            instructions=instructions,
            region=region,
        )


#: A trace is any iterable of batches.
TraceSource = Iterable[AccessBatch]


def concat_lines(trace: TraceSource) -> np.ndarray:
    """Flatten a trace into one line-address array (order preserved)."""
    parts = [b.lines for b in trace]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def total_accesses(trace: TraceSource) -> int:
    """Number of memory accesses in a trace (consumes the iterable)."""
    return sum(len(b) for b in trace)


def take(trace: TraceSource, max_accesses: int) -> Iterator[AccessBatch]:
    """Yield batches until ``max_accesses`` accesses have been produced,
    truncating the final batch if needed."""
    if max_accesses <= 0:
        raise TraceError("max_accesses must be positive")
    remaining = max_accesses
    for batch in trace:
        if len(batch) <= remaining:
            yield batch
            remaining -= len(batch)
        else:
            frac = remaining / len(batch)
            yield AccessBatch(
                ips=batch.ips[:remaining],
                lines=batch.lines[:remaining],
                writes=batch.writes[:remaining],
                instructions=max(remaining, int(batch.instructions * frac)),
                region=batch.region,
            )
            remaining = 0
        if remaining == 0:
            return
