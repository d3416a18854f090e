"""One core's cache hierarchy: L1D, L2 and LLC in front of DRAM.

The access path mirrors the paper's platform (Fig 1): a demand access
checks L1D, then L2, then the LLC, then DRAM.  The core's prefetchers
observe the demand stream at the level they belong to and issue fills;
prefetch fills that are absent from the LLC cost memory bandwidth, which
is the mechanism behind "prefetcher-sensitive applications consume
significant bandwidth" (Section IV-C).

The hierarchy counts the DRAM bytes its demand misses fetch; the trace
profiler compares that count with the prefetchers on and off.
"""

from __future__ import annotations

from repro.machine.cache import SetAssociativeCache
from repro.machine.prefetcher import CorePrefetchers
from repro.machine.spec import MachineSpec


class CoreCacheHierarchy:
    """L1D, L2 and LLC of one core, its four prefetchers behind one
    on/off switch, and the DRAM demand bytes it has fetched."""

    def __init__(self, spec: MachineSpec, *, prefetch: bool = True) -> None:
        self.spec = spec
        self.l1d = SetAssociativeCache(spec.l1d)
        self.l2 = SetAssociativeCache(spec.l2)
        self.llc = SetAssociativeCache(spec.llc)
        self.prefetchers = CorePrefetchers(spec.prefetch)
        self.prefetchers.enabled = prefetch
        #: Bytes fetched from DRAM by demand misses (prefetch fills excluded).
        self.demand_bytes = 0

    def _prefetch(self, line: int, *, into_l1: bool) -> None:
        """Bring ``line`` into L2 (and L1D when ``into_l1``), filling the
        LLC first when it is absent there."""
        if not self.llc.probe(line):
            self.llc.fill(line)
        out_l2 = self.l2.fill(line)
        if out_l2.evicted_dirty:
            # Dirty L2 victim: push to LLC (non-inclusive write-back path).
            self.llc.access(out_l2.evicted_line, write=True)
        if into_l1:
            self.l1d.fill(line)

    def access(self, ip: int, line: int, *, write: bool = False) -> None:
        """One demand access; updates caches, prefetchers and counters."""
        l1_out = self.l1d.access(line, write=write)
        for pf in self.prefetchers.l1_candidates(ip, line, miss=not l1_out.hit):
            self._prefetch(pf, into_l1=True)
        if l1_out.hit:
            return
        if l1_out.evicted_dirty:
            self.l2.access(l1_out.evicted_line, write=True)

        l2_out = self.l2.access(line)
        for pf in self.prefetchers.l2_candidates(ip, line, miss=not l2_out.hit):
            self._prefetch(pf, into_l1=False)
        if l2_out.hit:
            return
        if l2_out.evicted_dirty:
            self.llc.access(l2_out.evicted_line, write=True)

        if not self.llc.access(line, write=write).hit:
            self.demand_bytes += self.spec.line_bytes
