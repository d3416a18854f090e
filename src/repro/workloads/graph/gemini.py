"""GeminiGraph-style workloads: G-PR, G-BFS, G-CC, G-SSSP, G-BC.

Gemini (Zhu et al., OSDI'16) is a computation-centric graph system with
chunk-based vertex partitioning and a dense (pull) / sparse (push) dual
engine.  We model the traversals of its five applications from the
paper over a CSR graph:

* **G-PR** — pull-mode PageRank.  The hot loop is the paper's Fig 9
  listing (``pagerank.c:63-70``): for every destination vertex, walk the
  in-edge list and gather ``curr[src]`` — sequential index reads plus an
  irregular value gather, the access pattern that makes graph analytics
  LLC/bandwidth victims.
* **G-BFS** — direction-optimizing frontier BFS.
* **G-CC**  — connected components by label propagation (on the
  symmetrized graph).
* **G-SSSP** — frontier Bellman-Ford with real edge weights.
* **G-BC**  — Brandes betweenness from sampled sources.

Each kernel's trace is its traversal as a line-address stream for the
trace-layer profiler: the Fig 9 edge sweep over every vertex for the
dense rounds (G-PR, G-CC), over each frontier for the frontier
algorithms.  G-BFS computes its real BFS levels (checked against
networkx in the test suite) to get its frontiers, which G-BC reuses
for its forward and backward sweeps; G-SSSP relaxes its random edge
weights to get its frontier sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload
from repro.workloads.graph.csr import CSRGraph
from repro.workloads.graph.generate import friendster_mini

#: Instructions per traversed edge (index load, value load, ALU, branch).
_EDGE_IPA = 6.0
#: Vertices per emitted trace chunk.
_CHUNK = 512


def _gather_batches(
    amap: AddressMap,
    csr: CSRGraph,
    vertices: np.ndarray,
    *,
    value_array: str,
    region: int,
    write_array: str | None = None,
    ip_base: int = 100,
) -> list[AccessBatch]:
    """Trace of one pull-style edge sweep over ``vertices``.

    Per chunk: sequential ``indptr`` reads, sequential ``indices`` reads,
    an irregular gather from ``value_array`` and (optionally) a write per
    vertex to ``write_array`` — exactly the Fig 9 loop structure.
    """
    out: list[AccessBatch] = []
    for lo in range(0, len(vertices), _CHUNK):
        chunk = vertices[lo : lo + _CHUNK]
        out.append(
            AccessBatch.from_lines(
                amap.lines("indptr", chunk),
                ip=ip_base,
                instructions=2 * len(chunk),
                region=region,
            )
        )
        # Edge positions of the whole chunk, in traversal order.
        spans = [np.arange(csr.indptr[v], csr.indptr[v + 1]) for v in chunk]
        if spans:
            pos = np.concatenate(spans) if len(spans) > 1 else spans[0]
        else:  # pragma: no cover - empty chunk cannot happen
            pos = np.empty(0, dtype=np.int64)
        if len(pos):
            out.append(
                AccessBatch.from_lines(
                    amap.lines("indices", pos),
                    ip=ip_base + 1,
                    instructions=len(pos),
                    region=region,
                )
            )
            neigh = csr.indices[pos]
            out.append(
                AccessBatch.from_lines(
                    amap.lines(value_array, neigh),
                    ip=ip_base + 2,
                    instructions=int(len(neigh) * (_EDGE_IPA - 2)),
                    region=region,
                )
            )
        if write_array is not None:
            out.append(
                AccessBatch.from_lines(
                    amap.lines(write_array, chunk),
                    ip=ip_base + 3,
                    write=True,
                    instructions=2 * len(chunk),
                    region=region,
                )
            )
    return out


@dataclass
class GeminiWorkload(Workload):
    """Base class for the five Gemini applications."""

    name: ClassVar[str] = "G-BASE"
    suite: ClassVar[str] = "GeminiGraph"
    regions: ClassVar[tuple[CodeRegion, ...]] = ()

    graph: CSRGraph | None = None
    scale: float = 1.0
    seed: int = 7
    _amap: AddressMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.graph is None:
            self.graph = CSRGraph.from_edges(
                friendster_mini(self.scale, seed=self.seed), sort_neighbours=False
            )
        g = self.graph
        amap = AddressMap()
        amap.alloc("indptr", g.n_vertices + 1, 8)
        amap.alloc("indices", max(g.n_edges, 1), 8)
        amap.alloc("curr", g.n_vertices, 8)
        amap.alloc("next", g.n_vertices, 8)
        amap.alloc("weights", max(g.n_edges, 1), 8)
        self._amap = amap


class GeminiPageRank(GeminiWorkload):
    """G-PR: pull-mode PageRank, ``iterations`` sweeps of every in-edge."""

    name = "G-PR"
    regions = (CodeRegion("pull_edge_loop", "pagerank.c", 63, 70),)

    iterations: int = 10

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        in_csr = self.graph.reversed()
        vertices = np.arange(self.graph.n_vertices, dtype=np.int64)
        out: list[AccessBatch] = []
        for _ in range(self.iterations):
            out.extend(
                _gather_batches(
                    self._amap, in_csr, vertices, value_array="curr",
                    write_array="next", region=0,
                )
            )
        return out


class GeminiBFS(GeminiWorkload):
    """G-BFS: direction-optimizing breadth-first search from ``root``.

    Gemini's dual engine switches between sparse (top-down push: scan
    the frontier's out-edges) and dense (bottom-up pull: every
    unvisited vertex scans its in-edges for a visited parent) — the
    Beamer-style optimization its near-linear scalability relies on.
    The switch triggers when the frontier exceeds ``dense_threshold``
    of the vertices, and :attr:`mode_history` records the decision per
    depth.  The trace sweeps each level's frontier.
    """

    name = "G-BFS"
    regions = (CodeRegion("frontier_expand", "bfs.c", 53, 61),)

    root: int = 0
    dense_threshold: float = 0.05

    def _levels(self) -> np.ndarray:
        """Per-vertex BFS level from ``root`` (-1 = unreachable)."""
        g = self.graph
        rev = g.reversed()
        n = g.n_vertices
        level = np.full(n, -1, dtype=np.int64)
        level[self.root] = 0
        frontier = np.array([self.root], dtype=np.int64)
        depth = 0
        self.mode_history: list[str] = []
        while len(frontier):
            depth += 1
            if len(frontier) > self.dense_threshold * n:
                # Dense / bottom-up pull: unvisited vertices look for a
                # parent on the current frontier via their in-edges.
                self.mode_history.append("pull")
                on_frontier = np.zeros(n, dtype=bool)
                on_frontier[frontier] = True
                nxt: list[int] = []
                for v in np.flatnonzero(level < 0):
                    for u in rev.neighbours(int(v)):
                        if on_frontier[u]:
                            level[v] = depth
                            nxt.append(int(v))
                            break
            else:
                # Sparse / top-down push: expand the frontier's out-edges.
                self.mode_history.append("push")
                nxt = []
                for u in frontier:
                    for v in g.neighbours(int(u)):
                        if level[v] < 0:
                            level[v] = depth
                            nxt.append(int(v))
            frontier = np.array(sorted(set(nxt)), dtype=np.int64)
        return level

    def _frontiers(self) -> list[np.ndarray]:
        levels = self._levels()
        return [
            np.flatnonzero(levels == d).astype(np.int64)
            for d in range(int(levels.max()) + 1)
        ]

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        out: list[AccessBatch] = []
        for frontier in self._frontiers():
            out.extend(
                _gather_batches(
                    self._amap, self.graph, frontier, value_array="curr",
                    write_array="next", region=0, ip_base=200,
                )
            )
        return out


class GeminiCC(GeminiWorkload):
    """G-CC: connected components by min-label propagation on the
    symmetrized graph."""

    name = "G-CC"
    regions = (CodeRegion("label_propagate", "cc.c", 64, 72),)

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        vertices = np.arange(self.graph.n_vertices, dtype=np.int64)
        # Label propagation converges quickly; trace the active rounds.
        rounds = 6
        out: list[AccessBatch] = []
        for _ in range(rounds):
            out.extend(
                _gather_batches(
                    self._amap, self.graph, vertices, value_array="curr",
                    write_array="next", region=0, ip_base=300,
                )
            )
        return out


class GeminiSSSP(GeminiWorkload):
    """G-SSSP: frontier Bellman-Ford with uniform-random edge weights."""

    name = "G-SSSP"
    regions = (CodeRegion("relax_edges", "sssp.c", 65, 74),)

    root: int = 0

    def _weighted(self) -> CSRGraph:
        return self.graph.with_random_weights(seed=self.seed)

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        # Relax the edge weights to replay their frontier sequence.
        g = self._weighted()
        dist = np.full(g.n_vertices, np.inf)
        dist[self.root] = 0.0
        frontier = np.array([self.root], dtype=np.int64)
        out: list[AccessBatch] = []
        while len(frontier):
            out.extend(
                _gather_batches(
                    self._amap, self.graph, frontier, value_array="curr",
                    write_array="next", region=0, ip_base=400,
                )
            )
            changed: list[int] = []
            for u in frontier:
                lo, hi = g.indptr[u], g.indptr[u + 1]
                for k in range(lo, hi):
                    v = int(g.indices[k])
                    nd = dist[u] + g.weights[k]
                    if nd < dist[v]:
                        dist[v] = nd
                        changed.append(v)
            frontier = np.array(sorted(set(changed)), dtype=np.int64)
        return out


class GeminiBC(GeminiWorkload):
    """G-BC: Brandes betweenness centrality from ``n_sources`` roots."""

    name = "G-BC"
    regions = (CodeRegion("dependency_accum", "bc.c", 76, 88),)

    n_sources: int = 4

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        out: list[AccessBatch] = []
        bfs = GeminiBFS(graph=self.graph)
        for s in range(min(self.n_sources, self.graph.n_vertices)):
            bfs.root = s
            frontiers = bfs._frontiers()
            for frontier in frontiers:  # forward sweep
                out.extend(
                    _gather_batches(
                        self._amap, self.graph, frontier, value_array="curr",
                        region=0, ip_base=500,
                    )
                )
            for frontier in reversed(frontiers):  # backward sweep
                out.extend(
                    _gather_batches(
                        self._amap, self.graph, frontier, value_array="next",
                        write_array="curr", region=0, ip_base=510,
                    )
                )
        return out


def gemini_workloads(scale: float = 1.0, seed: int = 7) -> dict[str, GeminiWorkload]:
    """All five Gemini applications sharing one graph instance."""
    g = CSRGraph.from_edges(friendster_mini(scale, seed=seed), sort_neighbours=False)
    return {
        w.name: w
        for w in (
            GeminiPageRank(graph=g),
            GeminiBFS(graph=g),
            GeminiCC(graph=g),
            GeminiSSSP(graph=g),
            GeminiBC(graph=g),
        )
    }
