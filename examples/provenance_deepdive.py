#!/usr/bin/env python
"""Provenance deep-dive: why does STREAM destroy graph analytics?

Recreates Section VI's analysis on the interval engine: run G-PR solo
and against STREAM, then show the PCM bandwidth timeline and the VTune
hotspot deltas (Fig 7's CPI / L2_PCP / LLC MPKI / LL story).

Run:  python examples/provenance_deepdive.py
"""

from repro import IntervalEngine, get_profile
from repro.tools import PcmMemoryMonitor, VtuneProfiler


def main() -> None:
    print("== interval layer: G-PR vs STREAM (Fig 7 protocol) ==")
    engine = IntervalEngine()
    gpr, stream = get_profile("G-PR"), get_profile("Stream")
    solo = engine.solo_run(gpr, threads=4)
    co = engine.co_run(gpr, stream, fg_solo_runtime_s=solo.runtime_s)
    print(f"G-PR solo {solo.runtime_s:.1f}s -> with STREAM "
          f"{co.fg.runtime_s:.1f}s ({co.normalized_time:.2f}x)")

    vtune = VtuneProfiler()
    region = gpr.dominant_region.region.name
    cmp = vtune.compare(solo.metrics, co.fg, region)
    print(f"hot region {region!r} (pagerank.c:63-70):")
    print(f"  CPI      {cmp.solo.cpi:6.2f} -> {cmp.corun.cpi:6.2f}  (x{cmp.cpi_inflation:.2f})")
    print(f"  L2_PCP   {cmp.solo.l2_pcp:6.1%} -> {cmp.corun.l2_pcp:6.1%}")
    print(f"  LLC MPKI {cmp.solo.llc_mpki:6.1f} -> {cmp.corun.llc_mpki:6.1f}  (x{cmp.mpki_inflation:.2f})")
    print(f"  LL       {cmp.solo.ll:6.1f} -> {cmp.corun.ll:6.1f}  (x{cmp.ll_inflation:.2f})")

    pcm = PcmMemoryMonitor(granularity_s=10.0)
    report = pcm.observe(co.timeline)
    print(f"pcm-memory: pair average {report.average_gb_s():.1f} GB/s "
          f"(G-PR {report.average_gb_s('G-PR'):.1f}, "
          f"Stream {report.average_gb_s('Stream'):.1f})")


if __name__ == "__main__":
    main()
