"""Tests for AccessBatch / trace utilities."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace import AccessBatch, concat_lines, take, total_accesses


def batch(lines, **kw):
    return AccessBatch.from_lines(np.asarray(lines, dtype=np.int64), **kw)


class TestAccessBatch:
    def test_from_lines_defaults(self):
        b = batch([1, 2, 3])
        assert len(b) == 3
        assert b.instructions == 3
        assert not b.writes.any()

    def test_instructions_default_to_access_count(self):
        b = AccessBatch(
            ips=np.zeros(4, dtype=np.int64),
            lines=np.arange(4, dtype=np.int64),
            writes=np.zeros(4, dtype=bool),
        )
        assert b.instructions == 4

    def test_ragged_rejected(self):
        with pytest.raises(TraceError):
            AccessBatch(
                ips=np.zeros(2, dtype=np.int64),
                lines=np.arange(3, dtype=np.int64),
                writes=np.zeros(3, dtype=bool),
            )

    def test_negative_lines_rejected(self):
        with pytest.raises(TraceError):
            batch([-1, 2])

    def test_too_few_instructions_rejected(self):
        with pytest.raises(TraceError):
            batch([1, 2, 3], instructions=2)

    def test_write_flag(self):
        b = batch([1], write=True)
        assert b.writes.all()


class TestHelpers:
    def test_concat_lines(self):
        got = concat_lines([batch([1, 2]), batch([3])])
        assert got.tolist() == [1, 2, 3]

    def test_concat_empty(self):
        assert concat_lines([]).size == 0

    def test_total_accesses(self):
        assert total_accesses([batch([1, 2]), batch([3, 4, 5])]) == 5

    def test_take_truncates(self):
        src = [batch(range(10), instructions=40), batch(range(10, 20), instructions=40)]
        out = list(take(iter(src), 13))
        assert total_accesses(out) == 13
        # Instruction count scales with the truncation.
        assert out[1].instructions == pytest.approx(12, abs=1)

    def test_take_whole(self):
        src = [batch(range(5))]
        out = list(take(iter(src), 100))
        assert total_accesses(out) == 5

    def test_take_invalid(self):
        with pytest.raises(TraceError):
            list(take(iter([]), 0))
