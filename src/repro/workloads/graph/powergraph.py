"""PowerGraph-style workloads: P-PR, P-SSSP, P-CC.

PowerGraph (Gonzalez et al., OSDI'12) executes vertex programs in the
Gather-Apply-Scatter (GAS) model with bulk-synchronous supersteps.  The
paper profiles P-PR's ``gather`` function (its Fig 10 listing,
``pagerank.c:63-66``) as the contentious region: it loads every in-edge
source's data — a massive irregular gather.

Each application's trace is one full in-edge gather sweep per
superstep.  P-PR runs a fixed number of supersteps; P-SSSP and P-CC run
their real vertex programs on a synchronous GAS engine to count the
supersteps to their fixed point.  P-SSSP deliberately runs with
*identical edge weights*, reproducing the paper's observation that this
unrealistic assumption causes its poor scalability (every superstep
re-relaxes the whole edge set while the frontier advances one hop at a
time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from repro.trace.stream import AccessBatch
from repro.workloads.addr import AddressMap
from repro.workloads.base import CodeRegion, Workload
from repro.workloads.graph.csr import CSRGraph, _expand_src
from repro.workloads.graph.gemini import _gather_batches
from repro.workloads.graph.generate import EdgeList, friendster_mini


def gas_supersteps(
    in_csr: CSRGraph,
    init: np.ndarray,
    gather_reduce: Callable[[np.ndarray, CSRGraph], np.ndarray],
    apply_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    max_iters: int,
) -> tuple[np.ndarray, int]:
    """Run synchronous GAS supersteps until the data stops changing.

    Args:
        in_csr: In-edge CSR (gather direction).
        init: Initial per-vertex data.
        gather_reduce: (data, in_csr) -> per-vertex accumulated gather
            value.
        apply_fn: (old data, accumulated) -> new data.
        max_iters: Superstep budget.

    Returns:
        (final data, supersteps executed).
    """
    data = init.copy()
    steps = 0
    for _ in range(max_iters):
        new = apply_fn(data, gather_reduce(data, in_csr))
        steps += 1
        if np.array_equal(new, data):
            break
        data = new
    return data, steps


def _segment_reduce(
    values: np.ndarray, indptr: np.ndarray, op: np.ufunc, empty: float
) -> np.ndarray:
    """Per-segment reduction over CSR spans (empty segments -> ``empty``)."""
    n = len(indptr) - 1
    out = np.full(n, empty, dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if len(nonempty) and len(values):
        out[nonempty] = op.reduceat(values, indptr[nonempty])
    return out


@dataclass
class PowerGraphWorkload(Workload):
    """Base class for the three PowerGraph applications."""

    name: ClassVar[str] = "P-BASE"
    suite: ClassVar[str] = "PowerGraph"
    regions: ClassVar[tuple[CodeRegion, ...]] = ()

    graph: CSRGraph | None = None
    scale: float = 1.0
    seed: int = 7
    _amap: AddressMap = field(init=False, repr=False)
    _in_csr: CSRGraph = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.graph is None:
            self.graph = CSRGraph.from_edges(
                friendster_mini(self.scale, seed=self.seed), sort_neighbours=False
            )
        self._in_csr = self.graph.reversed()
        amap = AddressMap(base_line=1 << 24)
        g = self.graph
        amap.alloc("indptr", g.n_vertices + 1, 8)
        # Sized for the symmetrized in-edge CSR (P-CC doubles the edges).
        amap.alloc("indices", max(2 * g.n_edges, 1), 8)
        amap.alloc("curr", g.n_vertices, 8)
        amap.alloc("next", g.n_vertices, 8)
        amap.alloc("edge_data", max(2 * g.n_edges, 1), 8)
        self._amap = amap

    def _superstep_count(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _trace_batches(self, seed: int) -> list[AccessBatch]:
        """GAS gather traces: every superstep sweeps all in-edges."""
        vertices = np.arange(self.graph.n_vertices, dtype=np.int64)
        out: list[AccessBatch] = []
        for _ in range(self._superstep_count()):
            out.extend(
                _gather_batches(
                    self._amap, self._in_csr, vertices, value_array="curr",
                    write_array="next", region=0, ip_base=600,
                )
            )
        return out


class PowerGraphPageRank(PowerGraphWorkload):
    """P-PR: GAS PageRank; the `gather` region is the paper's Fig 10."""

    name = "P-PR"
    regions = (CodeRegion("gather", "pagerank.c", 63, 66),)

    iterations: int = 10

    def _superstep_count(self) -> int:
        return self.iterations


class PowerGraphSSSP(PowerGraphWorkload):
    """P-SSSP with identical (unit) edge weights — the paper's
    low-scalability culprit: the frontier advances one hop per
    superstep while every superstep gathers the full edge set."""

    name = "P-SSSP"
    regions = (CodeRegion("gather_min_dist", "sssp.c", 58, 66),)

    root: int = 0
    max_iters: int = 128

    def _supersteps(self) -> tuple[np.ndarray, int]:
        """Distances from ``root`` under unit weights (= hop counts) and
        the supersteps GAS runs to reach them."""
        n = self.graph.n_vertices
        init = np.full(n, np.inf)
        init[self.root] = 0.0

        def gather_reduce(data, in_csr):
            cand = data[in_csr.indices] + 1.0  # identical weight = 1
            return _segment_reduce(cand, in_csr.indptr, np.minimum, np.inf)

        return gas_supersteps(
            self._in_csr, init, gather_reduce, np.minimum, max_iters=self.max_iters
        )

    def _superstep_count(self) -> int:
        return self._supersteps()[1]


class PowerGraphCC(PowerGraphWorkload):
    """P-CC: min-label propagation over the symmetrized graph."""

    name = "P-CC"
    regions = (CodeRegion("gather_min_label", "cc.c", 55, 62),)

    max_iters: int = 128

    def __post_init__(self) -> None:
        super().__post_init__()
        src = _expand_src(self.graph)
        sym = EdgeList(
            self.graph.n_vertices,
            np.concatenate([src, self.graph.indices]),
            np.concatenate([self.graph.indices, src]),
        )
        self._in_csr = CSRGraph.from_edges(sym, sort_neighbours=False)

    def _supersteps(self) -> tuple[np.ndarray, int]:
        """Component labels (min vertex id per component) and the
        supersteps GAS runs to reach them."""
        init = np.arange(self.graph.n_vertices, dtype=np.float64)

        def gather_reduce(data, in_csr):
            return _segment_reduce(data[in_csr.indices], in_csr.indptr, np.minimum, np.inf)

        labels, steps = gas_supersteps(
            self._in_csr, init, gather_reduce, np.minimum, max_iters=self.max_iters
        )
        return labels.astype(np.int64), steps

    def _superstep_count(self) -> int:
        return self._supersteps()[1]


def powergraph_workloads(scale: float = 1.0, seed: int = 7) -> dict[str, PowerGraphWorkload]:
    """The three PowerGraph applications sharing one graph instance."""
    g = CSRGraph.from_edges(friendster_mini(scale, seed=seed), sort_neighbours=False)
    return {
        w.name: w
        for w in (
            PowerGraphPageRank(graph=g),
            PowerGraphSSSP(graph=g),
            PowerGraphCC(graph=g),
        )
    }
