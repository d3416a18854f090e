"""Tests for the synthetic access-pattern generators."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace import concat_lines, synth


class TestSequential:
    def test_lines_are_consecutive(self):
        lines = concat_lines(synth.sequential(100, start_line=5))
        assert lines.tolist() == list(range(5, 105))

    def test_instruction_density(self):
        batches = list(synth.sequential(10, instructions_per_access=7.0))
        assert sum(b.instructions for b in batches) == 70

    def test_rejects_bad_n(self):
        with pytest.raises(TraceError):
            list(synth.sequential(0))


class TestRandomUniform:
    def test_within_footprint(self):
        lines = concat_lines(synth.random_uniform(1000, 256, base_line=10, seed=1))
        assert lines.min() >= 10 and lines.max() < 266

    def test_deterministic_by_seed(self):
        a = concat_lines(synth.random_uniform(100, 64, seed=3))
        b = concat_lines(synth.random_uniform(100, 64, seed=3))
        assert np.array_equal(a, b)

    def test_write_ratio(self):
        batches = list(synth.random_uniform(5000, 64, write_ratio=0.3, seed=2))
        writes = sum(int(b.writes.sum()) for b in batches)
        assert 0.2 < writes / 5000 < 0.4


class TestZipf:
    def test_skewed_popularity(self):
        lines = concat_lines(synth.zipf(20000, 1000, alpha=1.2, seed=4))
        _, counts = np.unique(lines, return_counts=True)
        counts = np.sort(counts)[::-1]
        # Top decile of lines takes most of the traffic under Zipf.
        assert counts[:100].sum() > 0.5 * len(lines)

    def test_footprint_respected(self):
        lines = concat_lines(synth.zipf(1000, 50, seed=5))
        assert lines.max() < 50


class TestConflictChase:
    def test_same_set_mapping(self):
        n_sets = 128
        lines = concat_lines(synth.conflict_chase(50, n_sets=n_sets))
        assert len(set(int(x) % n_sets for x in lines)) == 1

    def test_all_lines_distinct(self):
        lines = concat_lines(synth.conflict_chase(100, n_sets=64))
        assert len(np.unique(lines)) == 100
