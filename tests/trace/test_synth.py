"""Tests for the synthetic access-pattern generators."""

import hashlib

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace import concat_lines, synth, take


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


#: name -> trace at a given seed; 6000 accesses span two batches.
GENERATORS = {
    "sequential": lambda seed: synth.sequential(6000, start_line=100, seed=seed),
    "sequential-writes": lambda seed: synth.sequential(
        6000, write_ratio=0.25, instructions_per_access=3.0, region=1, seed=seed
    ),
    "random-uniform": lambda seed: synth.random_uniform(6000, 1 << 12, seed=seed),
    "random-writes": lambda seed: synth.random_uniform(
        6000, 512, base_line=4096, write_ratio=0.5, instructions_per_access=1.5,
        seed=seed,
    ),
    "zipf": lambda seed: synth.zipf(6000, 2048, seed=seed),
    "zipf-steep": lambda seed: synth.zipf(
        6000, 2048, alpha=2.0, write_ratio=0.1, seed=seed
    ),
    "conflict-chase": lambda seed: synth.conflict_chase(6000, n_sets=1024, seed=seed),
    "conflict-chase-offset": lambda seed: synth.conflict_chase(
        6000, base_line=7, ip=9, instructions_per_access=1.0, seed=seed
    ),
}

#: sha256 (first 16 hex digits) of each generator's trace at seeds 0
#: and 1 (see ``_trace_digest``).  The seed drives only random draws:
#: line order and write flags.  Sequential and conflict-chase lines
#: are fixed, so without writes their two digests agree.
DIGESTS = {
    "conflict-chase": ("43ec56766e805689", "43ec56766e805689"),
    "conflict-chase-offset": ("49e5462faad47507", "49e5462faad47507"),
    "random-uniform": ("cd3648c9094bc383", "a50aeb94fc496700"),
    "random-writes": ("4597da940b0d2362", "3fe9a551ef3effc6"),
    "sequential": ("891e06a6b0bd9098", "891e06a6b0bd9098"),
    "sequential-writes": ("5cf90f17ae7beaae", "bce777ce8dca9adf"),
    "zipf": ("8b1d23e291717620", "85bbeb1a5d3850b5"),
    "zipf-steep": ("3bd3b9f43e5bd121", "06935f58000ee535"),
}


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for batch in trace:
        h.update(batch.ips.tobytes())
        h.update(batch.lines.tobytes())
        h.update(batch.writes.tobytes())
        h.update(f"{len(batch)},{batch.instructions},{batch.region};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestGeneratorContract:
    """Properties every generator's trace keeps, generator by generator."""

    def test_batches_well_formed(self, name):
        batches = list(GENERATORS[name](0))
        assert sum(len(b) for b in batches) == 6000
        for b in batches:
            assert 0 < len(b) <= 4096
            assert b.ips.dtype == np.int64 and b.lines.dtype == np.int64
            assert b.writes.dtype == np.bool_
            assert b.instructions >= len(b)
        # One generator call is one instruction pointer in one region.
        assert len({int(ip) for b in batches for ip in np.unique(b.ips)}) == 1
        assert len({b.region for b in batches}) == 1

    def test_truncated_trace_is_a_prefix(self, name):
        batches = list(GENERATORS[name](0))
        n = 5000
        cut = list(take(GENERATORS[name](0), n))
        assert sum(len(b) for b in cut) == n
        assert np.array_equal(concat_lines(cut), concat_lines(batches)[:n])
        # Whole batches pass through unchanged; only the last is cut.
        assert _trace_digest(cut[:-1]) == _trace_digest(batches[: len(cut) - 1])
        last, full = cut[-1], batches[len(cut) - 1]
        assert last.region == full.region
        assert np.array_equal(last.ips, full.ips[: len(last)])
        assert np.array_equal(last.writes, full.writes[: len(last)])
        assert len(last) <= last.instructions <= full.instructions

    def test_retrace_is_identical(self, name):
        assert _trace_digest(GENERATORS[name](0)) == _trace_digest(GENERATORS[name](0))

    def test_seed_digests(self, name):
        got = tuple(_trace_digest(GENERATORS[name](seed)) for seed in (0, 1))
        assert got == DIGESTS[name]
