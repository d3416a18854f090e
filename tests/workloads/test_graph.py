"""Tests for graph generation, CSR, and the Gemini/PowerGraph suites.

The algorithms the traces depend on (G-BFS levels, the P-SSSP and P-CC
supersteps) are validated against networkx on small deterministic
graphs; trace generation is checked for shape properties (irregular
gathers, footprint, instruction accounting).
"""

import networkx as nx
import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.trace import TraceStats, total_accesses
from repro.workloads.graph import (
    CSRGraph,
    EdgeList,
    GeminiBFS,
    GeminiPageRank,
    PowerGraphCC,
    PowerGraphSSSP,
    chung_lu,
    degree_histogram,
    friendster_mini,
    gemini_workloads,
    powergraph_workloads,
)


def small_graph() -> CSRGraph:
    """A fixed 8-vertex digraph with distinct edges (no multi-edges)."""
    edges = [
        (0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (3, 4),
        (4, 5), (5, 6), (6, 4), (1, 5), (2, 6),
    ]
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return CSRGraph.from_edges(EdgeList(8, src, dst))


def nx_digraph(csr: CSRGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(csr.n_vertices))
    for v in range(csr.n_vertices):
        for u in csr.neighbours(v):
            g.add_edge(v, int(u))
    return g


class TestGeneration:
    def test_chung_lu_shape(self):
        e = chung_lu(500, 3000, seed=1)
        assert e.n_vertices == 500
        assert 2500 < e.n_edges <= 3000  # a few self-loops removed

    def test_degree_skew(self):
        e = chung_lu(2000, 30000, alpha=2.1, seed=2)
        deg = np.sort(degree_histogram(e))[::-1]
        # Heavy tail: the top 1% of vertices carries >10% of edges.
        assert deg[:20].sum() > 0.10 * e.n_edges

    def test_deterministic(self):
        a, b = chung_lu(100, 500, seed=3), chung_lu(100, 500, seed=3)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            chung_lu(1, 5)
        with pytest.raises(WorkloadError):
            chung_lu(10, 0)
        with pytest.raises(WorkloadError):
            chung_lu(10, 5, alpha=0.5)

    def test_friendster_mini_scale(self):
        small = friendster_mini(0.25)
        big = friendster_mini(1.0)
        assert big.n_vertices == 4 * small.n_vertices

    def test_edgelist_validation(self):
        with pytest.raises(WorkloadError):
            EdgeList(4, np.array([0, 5]), np.array([1, 2]))
        with pytest.raises(WorkloadError):
            EdgeList(4, np.array([0]), np.array([1, 2]))


class TestCSR:
    def test_roundtrip(self):
        g = small_graph()
        assert g.n_edges == 11
        assert g.neighbours(0).tolist() == [1, 2]
        assert np.diff(g.indptr).tolist() == [2, 2, 2, 2, 1, 1, 1, 0]

    def test_reversed(self):
        g = small_graph()
        r = g.reversed()
        assert sorted(r.neighbours(2).tolist()) == [0, 1]  # in-edges of 2
        assert r.n_edges == g.n_edges

    def test_weights_follow_sort(self):
        src = np.array([0, 0, 1], dtype=np.int64)
        dst = np.array([2, 1, 0], dtype=np.int64)
        w = np.array([10.0, 20.0, 30.0])
        g = CSRGraph.from_edges(EdgeList(3, src, dst), weights=w)
        # Vertex 0's neighbours sorted: [1, 2] with weights [20, 10].
        assert g.neighbours(0).tolist() == [1, 2]
        assert g.weights[g.indptr[0]:g.indptr[1]].tolist() == [20.0, 10.0]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            CSRGraph(2, np.array([0, 1]), np.array([0]))  # indptr too short
        with pytest.raises(WorkloadError):
            CSRGraph(2, np.array([0, 2, 1]), np.array([0]))  # decreasing


class TestGeminiBFS:
    def test_matches_networkx(self):
        g = small_graph()
        bfs = GeminiBFS(graph=g)
        ours = bfs._levels()
        ref = nx.single_source_shortest_path_length(nx_digraph(g), 0)
        for v in range(g.n_vertices):
            assert ours[v] == ref.get(v, -1)

    def test_unreachable(self):
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        bfs = GeminiBFS(graph=CSRGraph.from_edges(EdgeList(3, src, dst)))
        assert bfs._levels().tolist() == [0, 1, -1]

    def test_dense_mode_engages_on_powerlaw_graph(self):
        g = CSRGraph.from_edges(chung_lu(400, 4000, seed=10))
        bfs = GeminiBFS(graph=g)
        bfs._levels()
        assert "pull" in bfs.mode_history  # the fat middle frontier
        assert bfs.mode_history[0] == "push"  # root frontier is sparse

    def test_threshold_one_forces_push_only(self):
        g = CSRGraph.from_edges(chung_lu(200, 1200, seed=11))
        bfs = GeminiBFS(graph=g)
        bfs.dense_threshold = 1.1
        bfs._levels()
        assert set(bfs.mode_history) == {"push"}


class TestPowerGraph:
    def test_sssp_unit_weights_equals_hops(self):
        g = small_graph()
        dist, _ = PowerGraphSSSP(graph=g)._supersteps()
        hops = GeminiBFS(graph=g)._levels()
        for v in range(g.n_vertices):
            if hops[v] >= 0:
                assert dist[v] == pytest.approx(float(hops[v]))
            else:
                assert np.isinf(dist[v])

    def test_sssp_superstep_count_is_diameter_bound(self):
        g = small_graph()
        w = PowerGraphSSSP(graph=g)
        hops = GeminiBFS(graph=g)._levels()
        assert w._superstep_count() >= hops.max()

    def test_cc_matches_networkx(self):
        e = chung_lu(100, 250, seed=6)
        g = CSRGraph.from_edges(e)
        labels, _ = PowerGraphCC(graph=g)._supersteps()
        comps = list(nx.connected_components(nx_digraph(g).to_undirected()))
        for comp in comps:
            assert {int(labels[v]) for v in comp} == {min(comp)}
        assert len(set(labels.tolist())) == len(comps)


class TestTraces:
    @pytest.mark.parametrize("factory", [gemini_workloads, powergraph_workloads])
    def test_all_traces_nonempty_and_bounded(self, factory):
        for name, w in factory(scale=0.1).items():
            n = total_accesses(w.trace(max_accesses=5000))
            assert 0 < n <= 5000, name

    def test_pagerank_trace_is_irregular(self):
        w = GeminiPageRank(scale=0.25)
        st = TraceStats.collect(w.trace(max_accesses=20000))
        # Mixed pattern: index arrays sequential, value gather irregular.
        assert 0.15 < st.sequential_fraction < 0.9
        assert st.distinct_lines > 100

    def test_trace_instruction_accounting(self):
        w = GeminiPageRank(scale=0.1)
        st = TraceStats.collect(w.trace(max_accesses=10000))
        assert st.instructions >= st.accesses

    def test_trace_deterministic(self):
        w = GeminiPageRank(scale=0.1)
        a = TraceStats.collect(w.trace(max_accesses=3000))
        b = TraceStats.collect(w.trace(max_accesses=3000))
        assert a.accesses == b.accesses and a.distinct_lines == b.distinct_lines

    def test_shared_graph_instances(self):
        ws = gemini_workloads(scale=0.1)
        graphs = {id(w.graph) for w in ws.values()}
        assert len(graphs) == 1
