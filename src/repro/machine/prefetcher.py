"""The four Sandy Bridge hardware prefetchers (paper Section IV-C).

Each engine watches the demand-access stream of one core and proposes
prefetch fills:

* :class:`L1NextLinePrefetcher` — "DCU prefetcher": fetches the next
  cache line into L1D after a demand miss.
* :class:`L1IpStridePrefetcher` — "DCU IP prefetcher": per-instruction-
  pointer stride detection; prefetches ``line + stride`` once a stride
  repeats with enough confidence.
* :class:`L2AdjacentLinePrefetcher` — fetches the companion line of the
  128-byte-aligned pair into L2 on an L2 miss.
* :class:`L2StreamerPrefetcher` — detects ascending/descending streams
  within a 4 KiB page and runs ahead of them by ``depth`` lines.

:class:`CorePrefetchers` puts all four behind one on/off switch, the
model of the paper's Fig 4 experiment, which disables them together by
writing MSR 0x1A4 on every core.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.machine.spec import PrefetcherSpec

#: Lines per 4 KiB page with 64-byte lines.
_LINES_PER_PAGE = 64


def _same_page(a: int, b: int) -> bool:
    """Hardware prefetchers never cross 4 KiB page boundaries (the
    physical address of the next page is unknown to them)."""
    return a // _LINES_PER_PAGE == b // _LINES_PER_PAGE


class L1NextLinePrefetcher:
    """DCU next-line prefetcher: on an L1D demand miss, fetch ``line+1``
    (within the same 4 KiB page)."""

    name = "l1_next_line"

    def observe(self, ip: int, line: int, *, miss: bool) -> list[int]:
        """Return prefetch candidates for a demand access at ``line``."""
        if not miss or not _same_page(line, line + 1):
            return []
        return [line + 1]


class L1IpStridePrefetcher:
    """DCU IP-stride prefetcher.

    Keeps a small table keyed by the low bits of the instruction
    pointer.  When the same IP issues loads whose line addresses step by
    a constant stride ``conf`` times in a row, it prefetches one stride
    ahead.
    """

    name = "l1_ip_stride"

    def __init__(self, spec: PrefetcherSpec) -> None:
        self._entries = spec.l1_ip_entries
        self._confidence = spec.l1_ip_confidence
        # ip-slot -> (last_line, stride, confidence)
        self._table: dict[int, tuple[int, int, int]] = {}

    def observe(self, ip: int, line: int, *, miss: bool) -> list[int]:
        """Update the stride table with this access; maybe prefetch."""
        slot = ip % self._entries
        prev = self._table.get(slot)
        out: list[int] = []
        if prev is None:
            self._table[slot] = (line, 0, 0)
            return out
        last_line, stride, conf = prev
        new_stride = line - last_line
        if new_stride == 0:
            # Same line again: keep state, nothing to learn.
            return out
        if new_stride == stride:
            conf += 1
        else:
            stride, conf = new_stride, 1
        target = line + stride
        if conf >= self._confidence and target >= 0 and _same_page(line, target):
            out.append(target)
        self._table[slot] = (line, stride, conf)
        return out


class L2AdjacentLinePrefetcher:
    """Adjacent-line ("buddy") prefetcher: on an L2 miss, fetch the other
    half of the 128-byte-aligned line pair."""

    name = "l2_adjacent"

    def observe(self, ip: int, line: int, *, miss: bool) -> list[int]:
        """Return the companion line on a miss."""
        if not miss:
            return []
        return [line ^ 1]


class L2StreamerPrefetcher:
    """L2 streamer: per-4 KiB-page stream detection.

    Tracks the most recent access direction per page in a small LRU
    table.  Once ``threshold`` monotonic accesses are seen, prefetches
    the next ``depth`` lines in the detected direction, clipped to the
    page (the real streamer does not cross 4 KiB boundaries).
    """

    name = "l2_stream"

    _TRACKED_PAGES = 32

    def __init__(self, spec: PrefetcherSpec) -> None:
        self._depth = spec.l2_stream_depth
        self._threshold = spec.l2_stream_threshold
        # page -> (last_offset, direction, run_length)
        self._pages: OrderedDict[int, tuple[int, int, int]] = OrderedDict()

    def observe(self, ip: int, line: int, *, miss: bool) -> list[int]:
        """Update page-stream state; return run-ahead prefetch lines."""
        page, offset = divmod(line, _LINES_PER_PAGE)
        state = self._pages.pop(page, None)
        out: list[int] = []
        if state is None:
            self._pages[page] = (offset, 0, 1)
        else:
            last_offset, direction, run = state
            step = offset - last_offset
            if step == 0:
                self._pages[page] = state
            else:
                new_dir = 1 if step > 0 else -1
                run = run + 1 if new_dir == direction or direction == 0 else 1
                self._pages[page] = (offset, new_dir, run)
                if run >= self._threshold:
                    for k in range(1, self._depth + 1):
                        nxt = offset + new_dir * k
                        if 0 <= nxt < _LINES_PER_PAGE:
                            out.append(page * _LINES_PER_PAGE + nxt)
        while len(self._pages) > self._TRACKED_PAGES:
            self._pages.popitem(last=False)
        return out


class CorePrefetchers:
    """The full per-core prefetcher complement behind one switch.

    With ``enabled`` False no prefetcher observes the stream or issues
    a fill, so their learned state stays untouched.
    """

    def __init__(self, spec: PrefetcherSpec) -> None:
        self.l1_next = L1NextLinePrefetcher()
        self.l1_ip = L1IpStridePrefetcher(spec)
        self.l2_adjacent = L2AdjacentLinePrefetcher()
        self.l2_stream = L2StreamerPrefetcher(spec)
        self.enabled = True

    def l1_candidates(self, ip: int, line: int, *, miss: bool) -> list[int]:
        """Prefetch lines to fill into L1D for this demand access."""
        if not self.enabled:
            return []
        return (self.l1_next.observe(ip, line, miss=miss)
                + self.l1_ip.observe(ip, line, miss=miss))

    def l2_candidates(self, ip: int, line: int, *, miss: bool) -> list[int]:
        """Prefetch lines to fill into L2 for this L2 access."""
        if not self.enabled:
            return []
        return (self.l2_adjacent.observe(ip, line, miss=miss)
                + self.l2_stream.observe(ip, line, miss=miss))
