"""Tests for the CNTK application models' traces."""

from repro.trace import TraceStats
from repro.workloads.dl import ATIS, ConvNetCIFAR, ConvNetMNIST, LSTMAn4


class TestConvNet:
    def test_trace_mostly_regular(self):
        net = ConvNetCIFAR(steps=1, batch=4, image_size=16)
        st = TraceStats.collect(net.trace(max_accesses=20000))
        # GEMM streaming: high spatial locality but not purely sequential.
        assert st.sequential_fraction > 0.4
        assert st.writes > 0

    def test_trace_bounded(self):
        net = ConvNetMNIST(steps=1, batch=2)
        st = TraceStats.collect(net.trace(max_accesses=5000))
        assert 0 < st.accesses <= 5000


class TestLSTM:
    def test_weight_reuse_in_trace(self):
        m = LSTMAn4(steps=1, seq_len=6, batch=4, hidden=32, input_dim=16)
        st = TraceStats.collect(m.trace())
        # Weights are re-read every timestep: footprint much smaller
        # than total accesses.
        assert st.distinct_lines * 3 < st.accesses


class TestATIS:
    def test_has_barrier_region(self):
        m = ATIS()
        names = [r.name for r in m.regions]
        assert "kmp_hyper_barrier_release" in names

    def test_trace_tiny_footprint(self):
        m = ATIS(steps=1)
        st = TraceStats.collect(m.trace(max_accesses=20000))
        # ATIS barely touches memory (paper Fig 3: lowest bandwidth).
        assert st.footprint_bytes < 2 * 1024 * 1024
