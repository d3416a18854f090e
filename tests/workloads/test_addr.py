"""Tests for the address-space helper a user's own kernel traces with."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads.addr import AddressMap

#: 4 KiB of 64-byte lines.
PAGE_LINES = 64


class TestAddressMap:
    def test_regions_are_disjoint_and_page_aligned(self):
        amap = AddressMap(base_line=PAGE_LINES * 3)
        sizes = {"A": (1000, 8), "B": (3, 64), "C": (100, 24), "D": (64 * 64, 16)}
        for name, (n, elem_bytes) in sizes.items():
            amap.alloc(name, n, elem_bytes)
        spans = []
        for name, (n, elem_bytes) in sizes.items():
            lines = amap.lines(name, np.arange(n))
            assert int(lines[0]) % PAGE_LINES == 0, name
            assert len(np.unique(lines)) == -(-n * elem_bytes // 64), name
            spans.append((int(lines[0]), int(lines[-1])))
        # Allocation order, first region at the base line, no overlap.
        assert spans[0][0] == PAGE_LINES * 3
        for (_, last), (first, _) in zip(spans, spans[1:]):
            assert last < first

    def test_element_to_line(self):
        amap = AddressMap()
        amap.alloc("x", 100, 8)
        base = 1 << 20
        assert amap.lines("x", 0).tolist() == [base]
        assert amap.lines("x", [7, 8, 99]).tolist() == [base, base + 1, base + 12]

    def test_negative_base_rejected(self):
        with pytest.raises(TraceError, match="non-negative"):
            AddressMap(base_line=-1)

    def test_double_alloc_rejected(self):
        amap = AddressMap()
        amap.alloc("x", 10, 8)
        with pytest.raises(TraceError, match="already allocated"):
            amap.alloc("x", 10, 8)

    @pytest.mark.parametrize("n_elems, elem_bytes", [(0, 8), (10, 0), (-1, 8)])
    def test_non_positive_sizes_rejected(self, n_elems, elem_bytes):
        with pytest.raises(TraceError, match="positive"):
            AddressMap().alloc("x", n_elems, elem_bytes)

    def test_unknown_array_rejected(self):
        with pytest.raises(TraceError, match="unknown array"):
            AddressMap().lines("nope", 0)

    @pytest.mark.parametrize("index", [-1, 10, [0, 10]])
    def test_out_of_bounds_index_rejected(self, index):
        amap = AddressMap()
        amap.alloc("x", 10, 8)
        with pytest.raises(TraceError, match="out of bounds"):
            amap.lines("x", index)
