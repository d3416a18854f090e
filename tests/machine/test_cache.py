"""Tests for the set-associative LRU cache, including LRU-stack
(inclusion) properties checked with hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineConfigError
from repro.machine import CacheSpec, SetAssociativeCache
from repro.units import KiB


def tiny_cache(ways: int = 2, sets: int = 4) -> SetAssociativeCache:
    spec = CacheSpec("T", sets * ways * 64, associativity=ways, latency_cycles=1)
    return SetAssociativeCache(spec)


class TestBasics:
    def test_first_access_misses_then_hits(self):
        c = tiny_cache()
        assert not c.access(10).hit
        assert c.access(10).hit
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_negative_line_rejected(self):
        c = tiny_cache()
        with pytest.raises(MachineConfigError):
            c.access(-1)
        with pytest.raises(MachineConfigError):
            c.fill(-5)

    def test_miss_ratio(self):
        c = tiny_cache()
        c.access(1)
        c.access(1)
        c.access(2)
        assert c.stats.miss_ratio == pytest.approx(2 / 3)

    def test_empty_miss_ratio_is_zero(self):
        assert tiny_cache().stats.miss_ratio == 0.0

    def test_resident_lines_tracks_contents(self):
        c = tiny_cache(ways=2, sets=4)
        for line in (0, 1, 2, 3):
            c.access(line)
        c.fill(9)
        assert sorted(c.resident_lines().tolist()) == [0, 1, 2, 3, 9]


class TestLru:
    def test_lru_eviction_order(self):
        c = tiny_cache(ways=2, sets=1)  # every line maps to set 0
        c.access(0)
        c.access(1)
        c.access(0)  # 1 is now LRU
        out = c.access(2)
        assert out.evicted_line == 1

    def test_conflict_within_one_set(self):
        c = tiny_cache(ways=2, sets=4)
        # lines 0, 4, 8 all map to set 0 with 4 sets.
        c.access(0)
        c.access(4)
        out = c.access(8)
        assert out.evicted_line == 0
        assert not c.probe(0) and c.probe(4) and c.probe(8)

    def test_capacity_thrash(self):
        c = tiny_cache(ways=2, sets=2)  # 4 lines total
        for line in range(8):
            c.access(line)
        for line in range(8):  # footprint 8 > capacity 4: all miss again
            c.access(line)
        assert c.stats.misses == 16


class TestWriteback:
    def test_dirty_eviction_reports_writeback(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0, write=True)
        out = c.access(1)
        assert out.evicted_line == 0 and out.evicted_dirty
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0)
        out = c.access(1)
        assert out.evicted_line == 0 and not out.evicted_dirty
        assert c.stats.writebacks == 0

    def test_write_miss_installs_dirty(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0, write=True)
        assert c.access(1).evicted_dirty

    def test_fill_evicting_dirty_line_reports_writeback(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0, write=True)
        out = c.fill(1)
        assert out.evicted_line == 0 and out.evicted_dirty
        assert c.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        c = tiny_cache(ways=1, sets=1)
        c.access(0)
        c.access(0, write=True)
        out = c.access(1)
        assert out.evicted_dirty


class TestPrefetchFills:
    def test_fill_then_demand_hit_counts_prefetch_hit(self):
        c = tiny_cache()
        c.fill(3)
        out = c.access(3)
        assert out.hit and out.was_prefetched
        assert c.stats.prefetch_hits == 1
        # Second access is an ordinary hit.
        assert not c.access(3).was_prefetched

    def test_redundant_fill_is_noop(self):
        c = tiny_cache()
        c.access(3)
        c.fill(3)
        assert c.stats.prefetch_fills == 0

    def test_fill_into_full_set_evicts_lru(self):
        c = tiny_cache(ways=2, sets=1)
        c.access(0)
        c.access(1)
        out = c.fill(2)
        assert out.evicted_line == 0
        assert c.stats.evictions == 1

    def test_redundant_fill_does_not_touch_lru(self):
        c = tiny_cache(ways=2, sets=1)
        c.access(0)
        c.access(1)
        c.fill(0)  # already resident: must NOT refresh line 0
        assert c.access(2).evicted_line == 0

    def test_fill_counts(self):
        c = tiny_cache()
        c.fill(1)
        c.fill(2)
        assert c.stats.prefetch_fills == 2
        assert c.stats.accesses == 0  # fills are not demand accesses


class TestMaintenance:
    def test_probe_does_not_touch_lru(self):
        c = tiny_cache(ways=2, sets=1)
        c.access(0)
        c.access(1)
        c.probe(0)  # must NOT refresh line 0
        out = c.access(2)
        assert out.evicted_line == 0


@st.composite
def trace_and_geometry(draw):
    ways = draw(st.integers(min_value=1, max_value=4))
    trace = draw(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    return ways, trace


class TestLruStackProperty:
    """For LRU with a fixed set count, a cache with more ways contains a
    superset of the smaller cache's lines (Mattson inclusion), hence never
    more misses."""

    @given(trace_and_geometry())
    @settings(max_examples=60, deadline=None)
    def test_more_ways_never_more_misses(self, tw):
        ways, trace = tw
        small = tiny_cache(ways=ways, sets=4)
        big = tiny_cache(ways=ways * 2, sets=4)
        for line in trace:
            small.access(line)
            big.access(line)
        assert big.stats.misses <= small.stats.misses

    @given(st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_stats_conserved(self, trace):
        c = tiny_cache(ways=2, sets=8)
        for line in trace:
            c.access(line)
        assert c.stats.hits + c.stats.misses == len(trace)
        assert int(c.resident_lines().size) <= c.n_sets * c.n_ways
        # Evictions happen only on misses after the cache warmed up.
        assert c.stats.evictions <= c.stats.misses

    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_resident_lines_unique(self, trace):
        c = tiny_cache(ways=4, sets=2)
        for line in trace:
            c.access(line)
        lines = c.resident_lines()
        assert len(np.unique(lines)) == len(lines)
