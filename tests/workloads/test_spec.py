"""Tests for the SPEC CPU2017 workload models' traces."""

from repro.trace import TraceStats
from repro.workloads.spec import MCF, Fotonik3D


class TestMCF:
    def test_trace_irregular(self):
        w = MCF()
        st = TraceStats.collect(w.trace(max_accesses=20000))
        assert st.sequential_fraction < 0.3


class TestFotonik3D:
    def test_trace_is_streaming(self):
        w = Fotonik3D(n=12, steps=2)
        st = TraceStats.collect(w.trace())
        assert st.sequential_fraction > 0.9
        assert st.writes > 0
