"""Tests for the Bandit and STREAM mini-benchmarks."""

import pytest

from repro.errors import WorkloadError
from repro.machine import CoreCacheHierarchy, small_test_machine
from repro.trace import TraceStats, concat_lines
from repro.workloads.micro import Bandit, StreamBench


class TestStreamBench:
    def test_trace_perfectly_sequential(self):
        w = StreamBench(n_elems=4096, repetitions=1)
        st = TraceStats.collect(w.trace())
        assert st.sequential_fraction > 0.95
        assert st.writes > 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            StreamBench(n_elems=0)

    def test_footprint_spans_three_arrays(self):
        w = StreamBench(n_elems=8192, repetitions=1)
        st = TraceStats.collect(w.trace())
        # 3 arrays x 8192 elems x 8 B = 192 KiB; one touch per line.
        assert st.footprint_bytes == pytest.approx(3 * 8192 * 8, rel=0.1)


class TestBandit:
    def test_all_accesses_same_llc_set(self):
        w = Bandit(llc_sets=1024, n_accesses=500)
        lines = concat_lines(w.trace())
        assert len({int(l) % 1024 for l in lines}) == 1

    def test_validation(self):
        with pytest.raises(WorkloadError):
            Bandit(llc_sets=0)

    def test_every_access_misses_in_cache(self):
        """The defining property: every access conflicts with its
        predecessor, so (almost) every access reaches memory."""
        spec = small_test_machine()
        core = CoreCacheHierarchy(spec, prefetch=False)
        w = Bandit(llc_sets=spec.llc.n_sets, n_accesses=2000)
        for batch in w.trace(max_accesses=2000):
            for i in range(len(batch)):
                core.access(int(batch.ips[i]), int(batch.lines[i]))
        # L1/L2/LLC all conflict on the same set index bits
        # (llc_sets is a multiple of the smaller caches' set counts).
        assert core.demand_bytes > 0.95 * 2000 * spec.line_bytes

    def test_tiny_llc_occupancy(self):
        spec = small_test_machine()
        core = CoreCacheHierarchy(spec, prefetch=False)
        w = Bandit(llc_sets=spec.llc.n_sets, n_accesses=3000)
        for batch in w.trace(max_accesses=3000):
            for i in range(len(batch)):
                core.access(int(batch.ips[i]), int(batch.lines[i]))
        resident = core.llc.resident_lines()
        # Occupies at most one set's worth of ways.
        assert len(resident) <= spec.llc.associativity
