"""Compressed Sparse Row graph representation.

Both graph engines (Gemini-style and PowerGraph-style) run over this
structure.  ``out`` CSR stores forward edges (push direction), and
:meth:`CSRGraph.reversed` builds the in-edge CSR used by pull-mode
PageRank — the access pattern of the paper's Fig 9 listing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.graph.generate import EdgeList


@dataclass(frozen=True)
class CSRGraph:
    """CSR adjacency: ``indices[indptr[v]:indptr[v+1]]`` are v's
    out-neighbours; optional per-edge weights align with ``indices``."""

    n_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.indptr) != self.n_vertices + 1:
            raise WorkloadError("indptr length must be n_vertices + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise WorkloadError("indptr must start at 0 and end at n_edges")
        if np.any(np.diff(self.indptr) < 0):
            raise WorkloadError("indptr must be non-decreasing")
        if len(self.indices) and (
            int(self.indices.min()) < 0 or int(self.indices.max()) >= self.n_vertices
        ):
            raise WorkloadError("neighbour index out of range")
        if self.weights is not None and len(self.weights) != len(self.indices):
            raise WorkloadError("weights must align with indices")

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def neighbours(self, v: int) -> np.ndarray:
        """Out-neighbours of one vertex."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @staticmethod
    def from_edges(
        edges: EdgeList, *, weights: np.ndarray | None = None, sort_neighbours: bool = True
    ) -> "CSRGraph":
        """Build CSR from an edge list (stable counting sort by source)."""
        n = edges.n_vertices
        order = np.argsort(edges.src, kind="stable")
        src_sorted = edges.src[order]
        indices = edges.dst[order].astype(np.int64)
        w = weights[order].astype(np.float64) if weights is not None else None
        counts = np.bincount(src_sorted, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if sort_neighbours:
            for v in range(n):
                lo, hi = indptr[v], indptr[v + 1]
                if hi - lo > 1:
                    sub = np.argsort(indices[lo:hi], kind="stable")
                    indices[lo:hi] = indices[lo:hi][sub]
                    if w is not None:
                        w[lo:hi] = w[lo:hi][sub]
        return CSRGraph(n, indptr, indices, w)

    def reversed(self) -> "CSRGraph":
        """The transpose graph (in-edges become out-edges)."""
        rev_edges = EdgeList(self.n_vertices, self.indices, _expand_src(self))
        return CSRGraph.from_edges(rev_edges, weights=self.weights)

    def with_random_weights(self, *, lo: float = 1.0, hi: float = 64.0, seed: int = 0) -> "CSRGraph":
        """Copy with uniform random edge weights."""
        rng = np.random.default_rng(seed)
        return CSRGraph(
            self.n_vertices,
            self.indptr,
            self.indices,
            rng.uniform(lo, hi, size=self.n_edges),
        )


def _expand_src(csr: CSRGraph) -> np.ndarray:
    """Per-edge source vertex array (inverse of the indptr compression)."""
    return np.repeat(
        np.arange(csr.n_vertices, dtype=np.int64), np.diff(csr.indptr)
    )
