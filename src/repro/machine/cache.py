"""Exact set-associative LRU cache model.

This is the trace-layer workhorse: every level (L1D, L2, LLC) is an
instance of :class:`SetAssociativeCache`.  State lives in flat numpy
arrays (one slot per line) so a cache is cheap to construct; the
per-access logic is a short Python path over one set's ways, exact LRU,
which is plenty fast for the trace volumes the profiler uses
(~10^5–10^6 accesses).

Each line records whether a hardware prefetcher filled it and no demand
access has touched it yet, so a cache counts its *useful* prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineConfigError
from repro.machine.spec import CacheSpec


@dataclass
class CacheStats:
    """Counters accumulated by one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    #: Demand hits on lines that were brought in by a prefetcher.
    prefetch_hits: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Demand miss ratio; 0.0 when no accesses were made."""
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one demand access or fill."""

    hit: bool
    #: Line address evicted to make room, or -1 when no eviction happened.
    evicted_line: int = -1
    #: Whether the evicted line was dirty (needs a writeback).
    evicted_dirty: bool = False
    #: Whether the hit landed on a not-yet-demanded prefetched line.
    was_prefetched: bool = False


class SetAssociativeCache:
    """One cache level with exact per-set LRU replacement.

    Addresses given to :meth:`access`/:meth:`fill` are *line* addresses
    (byte address >> log2(line size)); callers translate once so the
    hierarchy never repeats the shift.
    """

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.n_sets = spec.n_sets
        self.n_ways = spec.associativity
        self._set_mask = self.n_sets - 1
        slots = self.n_sets * self.n_ways
        # -1 tag means an invalid (empty) way.
        self._tags = np.full(slots, -1, dtype=np.int64)
        self._stamp = np.zeros(slots, dtype=np.int64)
        self._dirty = np.zeros(slots, dtype=bool)
        self._prefetched = np.zeros(slots, dtype=bool)
        self._clock = 0
        self.stats = CacheStats()

    # -- internals -------------------------------------------------------

    def _set_slice(self, line: int) -> slice:
        base = (line & self._set_mask) * self.n_ways
        return slice(base, base + self.n_ways)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _install(self, sl: slice, line: int, *,
                 dirty: bool, prefetched: bool) -> AccessOutcome:
        """Place ``line`` in set ``sl``, evicting LRU if the set is full."""
        tags = self._tags[sl]
        empties = np.flatnonzero(tags == -1)
        if empties.size:
            idx = sl.start + int(empties[0])
            evicted, evicted_dirty = -1, False
        else:
            rel = int(np.argmin(self._stamp[sl]))
            idx = sl.start + rel
            evicted = int(self._tags[idx])
            evicted_dirty = bool(self._dirty[idx])
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.writebacks += 1
        self._tags[idx] = line
        self._stamp[idx] = self._tick()
        self._dirty[idx] = dirty
        self._prefetched[idx] = prefetched
        return AccessOutcome(hit=False, evicted_line=evicted, evicted_dirty=evicted_dirty)

    # -- public API ------------------------------------------------------

    def access(self, line: int, *, write: bool = False) -> AccessOutcome:
        """Demand access to ``line``; allocates on miss (write-allocate).

        Returns an :class:`AccessOutcome` describing hit/miss, any
        eviction, and whether the hit consumed a prefetched line.
        """
        if line < 0:
            raise MachineConfigError(f"negative line address {line}")
        sl = self._set_slice(line)
        ways = np.flatnonzero(self._tags[sl] == line)
        if ways.size:
            idx = sl.start + int(ways[0])
            self._stamp[idx] = self._tick()
            was_pf = bool(self._prefetched[idx])
            if was_pf:
                self.stats.prefetch_hits += 1
                self._prefetched[idx] = False
            if write:
                self._dirty[idx] = True
            self.stats.hits += 1
            return AccessOutcome(hit=True, was_prefetched=was_pf)
        self.stats.misses += 1
        return self._install(sl, line, dirty=write, prefetched=False)

    def fill(self, line: int) -> AccessOutcome:
        """Prefetch fill: install ``line`` without counting a demand access.

        A fill that hits an already-resident line is a no-op (the real
        prefetchers drop redundant requests at the cache lookup).
        """
        if line < 0:
            raise MachineConfigError(f"negative line address {line}")
        sl = self._set_slice(line)
        if np.any(self._tags[sl] == line):
            return AccessOutcome(hit=True)
        self.stats.prefetch_fills += 1
        return self._install(sl, line, dirty=False, prefetched=True)

    def probe(self, line: int) -> bool:
        """Non-allocating, non-LRU-updating presence check."""
        sl = self._set_slice(line)
        return bool(np.any(self._tags[sl] == line))

    def resident_lines(self) -> np.ndarray:
        """All line addresses currently cached (unordered)."""
        return self._tags[self._tags != -1].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache({self.spec.name}, {self.n_sets} sets x "
            f"{self.n_ways} ways, {self.stats.accesses} accesses)"
        )
