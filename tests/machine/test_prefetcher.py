"""Tests for the four hardware prefetcher models."""

from repro.machine import (
    CorePrefetchers,
    L1IpStridePrefetcher,
    L1NextLinePrefetcher,
    L2AdjacentLinePrefetcher,
    L2StreamerPrefetcher,
    PrefetcherSpec,
)

SPEC = PrefetcherSpec()


class TestNextLine:
    def test_prefetches_next_on_miss(self):
        pf = L1NextLinePrefetcher()
        assert pf.observe(0, 100, miss=True) == [101]

    def test_silent_on_hit(self):
        pf = L1NextLinePrefetcher()
        assert pf.observe(0, 100, miss=False) == []


class TestIpStride:
    def test_learns_constant_stride(self):
        pf = L1IpStridePrefetcher(SPEC)
        ip = 0x400123
        out = []
        for line in [10, 14, 18, 22]:
            out = pf.observe(ip, line, miss=True)
        # stride 4 learned: prefetch 22 + 4 = 26
        assert out == [26]

    def test_needs_confidence(self):
        pf = L1IpStridePrefetcher(SPEC)
        assert pf.observe(1, 10, miss=True) == []
        assert pf.observe(1, 14, miss=True) == []  # first stride observation

    def test_stride_change_resets_confidence(self):
        pf = L1IpStridePrefetcher(SPEC)
        for line in [10, 14, 18]:
            pf.observe(2, line, miss=True)
        assert pf.observe(2, 19, miss=True) == []  # stride changed 4 -> 1
        assert pf.observe(2, 20, miss=True) == [21]  # stride 1 re-established

    def test_distinct_ips_tracked_separately(self):
        pf = L1IpStridePrefetcher(SPEC)
        for line in [10, 20, 30]:
            pf.observe(3, line, miss=True)
        # A different IP has no history yet.
        assert pf.observe(4, 100, miss=True) == []

    def test_same_line_repeat_is_ignored(self):
        pf = L1IpStridePrefetcher(SPEC)
        pf.observe(5, 10, miss=True)
        assert pf.observe(5, 10, miss=True) == []


class TestAdjacent:
    def test_companion_line(self):
        pf = L2AdjacentLinePrefetcher()
        assert pf.observe(0, 100, miss=True) == [101]
        assert pf.observe(0, 101, miss=True) == [100]

    def test_silent_on_hit(self):
        assert L2AdjacentLinePrefetcher().observe(0, 100, miss=False) == []


class TestStreamer:
    def test_detects_ascending_stream(self):
        pf = L2StreamerPrefetcher(SPEC)
        pf.observe(0, 0, miss=True)
        pf.observe(0, 1, miss=True)
        out = pf.observe(0, 2, miss=True)
        assert out == [3, 4, 5, 6]  # depth 4 ahead

    def test_detects_descending_stream(self):
        pf = L2StreamerPrefetcher(SPEC)
        pf.observe(0, 10, miss=True)
        pf.observe(0, 9, miss=True)
        out = pf.observe(0, 8, miss=True)
        assert out == [7, 6, 5, 4]

    def test_does_not_cross_page(self):
        pf = L2StreamerPrefetcher(SPEC)
        pf.observe(0, 61, miss=True)
        pf.observe(0, 62, miss=True)
        out = pf.observe(0, 63, miss=True)
        assert out == []  # lines 64+ are the next 4 KiB page

    def test_random_pattern_stays_quiet(self):
        pf = L2StreamerPrefetcher(SPEC)
        outs = []
        for line in [5, 40, 12, 33, 7, 21]:
            outs.extend(pf.observe(0, line, miss=True))
        # direction flips every access: run length never reaches threshold+1 twice ascending
        assert len(outs) <= 8

    def test_page_table_lru_bounded(self):
        pf = L2StreamerPrefetcher(SPEC)
        for page in range(100):
            pf.observe(0, page * 64, miss=True)
        assert len(pf._pages) <= pf._TRACKED_PAGES


class TestCorePrefetchers:
    def test_gating(self):
        core = CorePrefetchers(SPEC)
        core.enabled = False
        assert core.l1_candidates(0, 10, miss=True) == []
        assert core.l2_candidates(0, 10, miss=True) == []

    def test_l1_combines_next_and_stride(self):
        core = CorePrefetchers(SPEC)
        for line in [10, 14, 18]:
            out = core.l1_candidates(7, line, miss=True)
        assert 19 in out  # next line
        assert 22 in out  # stride

    def test_l2_combines_adjacent_and_stream(self):
        core = CorePrefetchers(SPEC)
        for line in [1, 2]:
            core.l2_candidates(0, line, miss=True)
        out = core.l2_candidates(0, 3, miss=True)
        assert 2 in out  # adjacent line (3 ^ 1)
        assert 7 in out  # streamer, depth 4 ahead

    def test_switched_off_prefetchers_keep_what_they_learned(self):
        core = CorePrefetchers(SPEC)
        for line in [10, 14, 18]:
            core.l1_candidates(7, line, miss=True)
        core.enabled = False
        for line in [100, 300, 500]:  # not observed while off
            core.l1_candidates(7, line, miss=True)
        core.enabled = True
        assert 26 in core.l1_candidates(7, 22, miss=True)  # stride 4 kept
