"""Address-space layout helper for tracing a user's own kernel.

A kernel's trace holds the cache-line addresses its data structures
would occupy.  :class:`AddressMap` hands each named array a disjoint,
page-aligned line range so traces from different arrays never alias,
and converts element indices to line addresses in one vectorized step.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.units import CACHE_LINE

#: Line-granular alignment for each allocated region (64 lines = 4 KiB).
_REGION_ALIGN_LINES = 64


class AddressMap:
    """Bump allocator over a synthetic line-address space."""

    def __init__(self, base_line: int = 1 << 20) -> None:
        if base_line < 0:
            raise TraceError("base_line must be non-negative")
        self._next = base_line
        self._arrays: dict[str, tuple[int, int, int]] = {}

    def alloc(self, name: str, n_elems: int, elem_bytes: int) -> None:
        """Reserve a region for ``n_elems`` elements of ``elem_bytes``."""
        if name in self._arrays:
            raise TraceError(f"array {name!r} already allocated")
        if n_elems <= 0 or elem_bytes <= 0:
            raise TraceError(f"array {name!r}: sizes must be positive")
        n_lines = -(-n_elems * elem_bytes // CACHE_LINE)  # ceil div
        n_lines = -(-n_lines // _REGION_ALIGN_LINES) * _REGION_ALIGN_LINES
        self._arrays[name] = (self._next, elem_bytes, n_elems)
        self._next += n_lines

    def lines(self, name: str, indices: np.ndarray | int) -> np.ndarray:
        """Line addresses of elements ``indices`` of array ``name``."""
        try:
            base, elem_bytes, n_elems = self._arrays[name]
        except KeyError:
            raise TraceError(f"unknown array {name!r}") from None
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n_elems):
            raise TraceError(
                f"array {name!r}: index out of bounds [0, {n_elems})"
            )
        return base + (idx * elem_bytes) // CACHE_LINE
