"""Tests for the PARSEC workload models' traces."""

import pytest

from repro.errors import WorkloadError
from repro.trace import TraceStats
from repro.workloads.parsec import BlackScholes, StreamCluster, Swaptions


class TestBlackScholes:
    def test_trace_compute_dense(self):
        w = BlackScholes(n_options=512, sweeps=2)
        st = TraceStats.collect(w.trace(max_accesses=4000))
        # Compute-dense: many instructions per access.
        assert st.instructions > 10 * st.accesses


class TestSwaptions:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            Swaptions(n_paths=0)

    def test_trace_small_footprint(self):
        w = Swaptions(n_paths=2000, n_steps=16)
        st = TraceStats.collect(w.trace())
        assert st.footprint_bytes < 1 << 20


class TestStreamCluster:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            StreamCluster(k=0)
        with pytest.raises(WorkloadError):
            StreamCluster(block=0)

    def test_trace_is_streaming(self):
        w = StreamCluster()
        st = TraceStats.collect(w.trace(max_accesses=30000))
        # pgain sweeps: overwhelmingly sequential (prefetchable).
        assert st.sequential_fraction > 0.6
