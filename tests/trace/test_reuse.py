"""Tests for reuse-distance computation and derived miss ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace import (
    COLD,
    miss_ratio_at,
    reuse_distances,
    reuse_distances_bruteforce,
)


class TestKnownPatterns:
    def test_cold_only(self):
        d = reuse_distances(np.array([1, 2, 3, 4]))
        assert (d == COLD).all()

    def test_immediate_reuse(self):
        d = reuse_distances(np.array([7, 7, 7]))
        assert d.tolist() == [COLD, 0, 0]

    def test_classic_example(self):
        # a b c b a : b reused over {c} -> 1; a reused over {b, c} -> 2.
        d = reuse_distances(np.array([1, 2, 3, 2, 1]))
        assert d.tolist() == [COLD, COLD, COLD, 1, 2]

    def test_cyclic_scan(self):
        # 0..3 repeated: every reuse sees 3 distinct other lines.
        d = reuse_distances(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        assert d[4:].tolist() == [3, 3, 3, 3]

    def test_empty(self):
        assert reuse_distances(np.array([], dtype=np.int64)).size == 0

    def test_rejects_2d(self):
        with pytest.raises(TraceError):
            reuse_distances(np.zeros((2, 2)))


class TestAgainstBruteForce:
    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, lines):
        arr = np.asarray(lines, dtype=np.int64)
        fast = reuse_distances(arr)
        slow = reuse_distances_bruteforce(arr)
        assert np.array_equal(fast, slow)


class TestMissRatio:
    def test_sequential_always_misses(self):
        d = reuse_distances(np.arange(100))
        assert miss_ratio_at(d, 8) == 1.0

    def test_cyclic_scan_hits_when_cache_big_enough(self):
        lines = np.tile(np.arange(4), 10)
        d = reuse_distances(lines)
        assert miss_ratio_at(d, 4) == pytest.approx(4 / 40)  # only cold misses
        assert miss_ratio_at(d, 3) == 1.0  # LRU thrash: distance 3 >= 3

    def test_capacity_monotonicity(self):
        rng = np.random.default_rng(0)
        d = reuse_distances(rng.integers(0, 64, 2000))
        ratios = [miss_ratio_at(d, c) for c in [1, 2, 4, 8, 16, 32, 64, 128]]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_invalid_capacity(self):
        with pytest.raises(TraceError):
            miss_ratio_at(np.array([1]), 0)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=150),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_matches_lru_simulation(self, lines, capacity):
        """Stack distances must predict a fully-associative LRU cache
        exactly: this is the Mattson correspondence."""
        arr = np.asarray(lines, dtype=np.int64)
        d = reuse_distances(arr)
        predicted_misses = int((d == COLD).sum() + (d[d != COLD] >= capacity).sum())
        # Simulate fully-associative LRU.
        stack: list[int] = []
        misses = 0
        for x in arr:
            x = int(x)
            if x in stack:
                stack.remove(x)
            else:
                misses += 1
                if len(stack) == capacity:
                    stack.pop()
            stack.insert(0, x)
        assert predicted_misses == misses
