"""Tests for the HPC workload models' traces (lulesh, IRSmk, AMG2006)."""

from repro.trace import TraceStats
from repro.workloads.hpc import AMG2006, IRSmk, Lulesh


class TestIRSmk:
    def test_trace_is_highly_sequential(self):
        w = IRSmk(n=12, sweeps=1)
        st = TraceStats.collect(w.trace())
        assert st.sequential_fraction > 0.9  # 29 sequential streams
        # Low compute density: bandwidth-bound.
        assert st.instructions < 4 * st.accesses


class TestLulesh:
    def test_trace_regular(self):
        w = Lulesh(n=12, steps=2)
        st = TraceStats.collect(w.trace(max_accesses=20000))
        assert st.sequential_fraction > 0.8


class TestAMGWorkload:
    def test_three_phase_trace(self):
        w = AMG2006(k=5, cycles=3)
        regions = {b.region for b in w.trace()}
        assert regions == {0, 1, 2}
