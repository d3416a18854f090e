"""Tests for the one-core cache hierarchy the trace profiler runs on."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CoreCacheHierarchy, small_test_machine


def hierarchy(*, prefetch: bool = True) -> CoreCacheHierarchy:
    return CoreCacheHierarchy(small_test_machine(), prefetch=prefetch)


#: Read streams over a footprint that overflows every level of the
#: small test machine (LLC: 1024 lines).
READS = st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300)


class TestAccessPath:
    def test_first_access_goes_to_memory(self):
        core = hierarchy()
        core.access(0, 100)
        assert core.demand_bytes == core.spec.line_bytes
        assert core.llc.stats.misses == 1

    def test_repeat_hits_l1(self):
        core = hierarchy()
        core.access(0, 100)
        core.access(0, 100)
        assert core.l1d.stats.hits == 1
        assert core.demand_bytes == core.spec.line_bytes

    def test_l2_hit_after_l1_eviction(self):
        core = hierarchy()
        spec = core.spec
        # Touch enough distinct lines to overflow L1 (4 KiB = 64 lines)
        # but stay within L2 (16 KiB = 256 lines).
        lines = spec.l1d.n_lines * 2
        for line in range(lines):
            core.access(0, line)
        core.prefetchers.enabled = False
        before = core.demand_bytes
        core.access(0, 0)
        assert core.demand_bytes == before  # served by L2 or LLC, not DRAM

    def test_llc_hit_after_l2_eviction_costs_no_dram(self):
        core = hierarchy(prefetch=False)
        # Overflow L2 (256 lines) but stay within the LLC (1024 lines).
        for line in range(core.spec.l2.n_lines * 2):
            core.access(0, line)
        before, llc_hits = core.demand_bytes, core.llc.stats.hits
        core.access(0, 0)
        assert core.demand_bytes == before
        assert core.llc.stats.hits == llc_hits + 1

    def test_write_miss_fetches_the_line(self):
        core = hierarchy(prefetch=False)
        core.access(0, 5, write=True)
        assert core.demand_bytes == core.spec.line_bytes
        assert core.l1d.stats.misses == 1

    def test_dirty_l1_victim_written_back_to_l2(self):
        core = hierarchy(prefetch=False)
        core.access(0, 0, write=True)
        # Four more lines in L1 set 0 (16 sets x 4 ways) push line 0 out.
        for line in (16, 32, 48, 64):
            core.access(0, line)
        assert core.l1d.stats.writebacks == 1
        # Five demand misses plus the writeback, which hits L2's copy.
        assert core.l2.stats.accesses == 6 and core.l2.stats.hits == 1
        assert core.demand_bytes == 5 * core.spec.line_bytes

    def test_dirty_l2_victim_written_back_to_llc(self):
        core = hierarchy(prefetch=False)
        core.access(0, 0, write=True)
        # Lines in L1 set 0 and L2 set 0 (64 sets x 4 ways): line 0
        # leaves L1 dirty, then leaves L2 dirty.
        for line in (64, 128, 192, 256, 320, 384, 448):
            core.access(0, line)
        assert core.l2.stats.writebacks == 1
        # Eight demand misses plus the writeback, which hits the LLC copy.
        assert core.llc.stats.accesses == 9 and core.llc.stats.hits == 1
        assert core.demand_bytes == 8 * core.spec.line_bytes


class TestCounters:
    @pytest.mark.parametrize("prefetch", [True, False], ids=["on", "off"])
    @given(lines=READS)
    @settings(max_examples=25, deadline=None)
    def test_read_stream_conserves_misses_down_the_levels(self, prefetch, lines):
        core = hierarchy(prefetch=prefetch)
        for line in lines:
            core.access(0, line)
        # Prefetch fills are not demand accesses: each level sees exactly
        # the demand misses of the one above, and only LLC demand misses
        # are charged as DRAM demand bytes.
        assert core.l2.stats.accesses == core.l1d.stats.misses
        assert core.llc.stats.accesses == core.l2.stats.misses
        assert core.demand_bytes == core.llc.stats.misses * core.spec.line_bytes

    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4095), st.booleans()),
        min_size=1, max_size=300,
    ))
    @settings(max_examples=25, deadline=None)
    def test_l2_sees_l1_misses_and_dirty_victims(self, accesses):
        core = hierarchy(prefetch=False)
        for line, write in accesses:
            core.access(0, line, write=write)
        l1 = core.l1d.stats
        assert core.l2.stats.accesses == l1.misses + l1.writebacks

    @given(lines=READS)
    @settings(max_examples=25, deadline=None)
    def test_more_llc_ways_never_more_dram_bytes(self, lines):
        spec = small_test_machine()
        # Same sets, twice the ways: LRU inclusion on the unchanged
        # L2-miss stream the LLC sees.
        llc = replace(spec.llc, size_bytes=spec.llc.size_bytes * 2,
                      associativity=spec.llc.associativity * 2)
        small = CoreCacheHierarchy(spec, prefetch=False)
        big = CoreCacheHierarchy(replace(spec, llc=llc), prefetch=False)
        for line in lines:
            small.access(0, line)
            big.access(0, line)
        assert big.llc.n_sets == small.llc.n_sets
        assert big.demand_bytes <= small.demand_bytes

    def test_same_stream_same_counters(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 4096, size=1500)
        writes = rng.random(1500) < 0.3
        a, b = hierarchy(), hierarchy()
        for core in (a, b):
            for i, (line, write) in enumerate(zip(lines, writes)):
                core.access(i % 5, int(line), write=bool(write))
        for x, y in ((a.l1d, b.l1d), (a.l2, b.l2), (a.llc, b.llc)):
            assert x.stats == y.stats
        assert a.demand_bytes == b.demand_bytes


class TestPrefetchIntegration:
    def test_sequential_scan_benefits_from_prefetchers(self):
        on, off = hierarchy(), hierarchy(prefetch=False)
        for line in range(2000):
            on.access(1, line)
            off.access(1, line)
        assert on.demand_bytes < off.demand_bytes
        # Prefetch traffic is not free: every LLC prefetch fill is a
        # line fetched from DRAM.
        assert on.llc.stats.prefetch_fills > 0

    def test_prefetchers_do_not_help_random(self):
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 1 << 22, size=3000)
        on, off = hierarchy(), hierarchy(prefetch=False)
        for line in lines:
            on.access(2, int(line))
            off.access(2, int(line))
        # Within 25%: random traffic gains nothing (and pays pollution).
        assert on.demand_bytes >= off.demand_bytes * 0.75

    def test_switch_off_issues_no_fills(self):
        core = hierarchy(prefetch=False)
        for line in range(500):
            core.access(1, line)
        for cache in (core.l1d, core.l2, core.llc):
            assert cache.stats.prefetch_fills == 0

    def test_switch_flips_mid_stream(self):
        core = hierarchy()

        def fills():
            return tuple(c.stats.prefetch_fills for c in (core.l1d, core.l2, core.llc))

        for line in range(500):
            core.access(1, line)
        on = fills()
        assert all(on)
        core.prefetchers.enabled = False
        for line in range(1000, 1500):
            core.access(1, line)
        assert fills() == on
        core.prefetchers.enabled = True
        for line in range(2000, 2500):
            core.access(1, line)
        assert all(after > before for after, before in zip(fills(), on))

    def test_l1_prefetch_fills_every_level(self):
        core = hierarchy()
        core.access(0, 100)  # L1 miss: next-line prefetch of 101
        for cache in (core.l1d, core.l2, core.llc):
            assert cache.probe(101)
            assert cache.stats.prefetch_fills == 1
        # The prefetch fill is not charged as demand traffic.
        assert core.demand_bytes == core.spec.line_bytes

    def test_l2_prefetch_skips_l1(self):
        core = hierarchy()
        core.access(0, 101)  # L2 miss: adjacent-line prefetch of 100
        assert core.l2.probe(100) and core.llc.probe(100)
        assert not core.l1d.probe(100)

    def test_prefetched_lines_turn_into_demand_hits(self):
        on, off = hierarchy(), hierarchy(prefetch=False)
        for line in range(500):
            on.access(1, line)
            off.access(1, line)
        assert on.l1d.stats.prefetch_hits > 0
        assert on.l1d.stats.hits > off.l1d.stats.hits == 0

    def test_dirty_l2_victim_of_a_prefetch_fill_reaches_llc(self):
        core = hierarchy()
        spec = core.spec
        line = 1000
        # Fill the L2 set of line+1 with dirty lines the LLC never saw.
        target = (line + 1) % spec.l2.n_sets
        dirty = [target + k * spec.l2.n_sets for k in range(spec.l2.associativity)]
        for victim in dirty:
            core.l2.access(victim, write=True)
        assert not any(core.llc.probe(victim) for victim in dirty)
        core.access(0, line)  # next-line prefetch of line+1 evicts dirty[0]
        assert core.l2.probe(line + 1)
        assert core.llc.probe(dirty[0])
        assert not any(core.llc.probe(victim) for victim in dirty[1:])
