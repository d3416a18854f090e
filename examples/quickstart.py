#!/usr/bin/env python
"""Quickstart: characterize two applications and consolidate them.

Reproduces the paper's core workflow on the Session API:

1. pick applications from the Table I roster;
2. open a :class:`repro.Session` — the shared substrate holding the
   machine spec, the cross-experiment solo/scenario caches and the
   seeded jitter model;
3. characterize the pair solo (runtime, bandwidth, scalability class);
4. run the consolidation sweep for the pair (``session.run("fig5")``)
   and classify it (Harmony / Victim-Offender / Both-Victim);
5. attribute the victim's slowdown to its hot code region — the
   co-run comes straight from the session cache, nothing re-runs;
6. keep the record: every artifact returns a RunRecord with
   provenance metadata and a JSON round-trip;
7. make it survive the process: attach a persistent ResultStore
   (``Session(config, store=...)``, or ``repro --store DIR ...`` on
   the CLI) so a cold process re-reads yesterday's measurements from
   disk instead of re-simulating them — ``repro --store .repro-store
   run-all`` builds the whole campaign once and freezes a
   manifest.json of every artifact's provenance;
8. go beyond pairs with declarative Scenarios: a 3-app consolidation
   (something no pair API can express) and an LLC-policy ablation of
   the same placements — ``repro scenario run a:2 b:2 c:2
   --llc-policy static`` on the CLI;
9. partition the cache for real with CAT way masks: give the
   sensitive foreground dedicated LLC ways (``repro scenario run
   xalancbmk:4 Stream:4 --ways xalancbmk:0xF0 Stream:0x0F``), pin
   placements onto explicit cores (``--pin``), and sweep every
   contiguous split with ``repro cat-sweep`` — the Pareto of fg
   slowdown vs. bg throughput;
10. let the measurements *decide*: replay a seeded 10-arrival trace
   through the ``repro.sched`` placement scheduler — the naive slot
   bin-packer vs. the interference-aware SLO-guarded policy over a
   2-machine cluster — with the result store as the scheduler's warm
   cache (``repro sched replay --trace seed:0:10`` on the CLI); a
   second replay over the same store re-simulates nothing.
11. watch it all happen: re-run the demo campaign with telemetry on
   (``repro --store DIR --telemetry ...`` on the CLI, or
   ``repro.telemetry.enable``) and export a Chrome trace of every
   span — one lane per process — that loads straight into Perfetto
   (https://ui.perfetto.dev); ``repro trace summary`` shows where the
   wall time went, and none of it changes a single simulated number.
12. serve it: put the scheduler behind the ``repro serve`` daemon —
   an asyncio JSON-over-HTTP admission API (``repro serve start
   --store DIR``) with per-request latency budgets, departure
   re-planning and an SSE event stream; ``repro serve drain --trace
   seed:0:8:2:0.5`` replays a whole arrival+departure trace against
   the live daemon and reproduces the in-process replay byte for byte.
13. drive it like production: generate a seeded *diurnal* day with
   ``repro.traffic`` (24 hourly rate multipliers, open-loop thinned
   Poisson arrivals — same seed, byte-identical trace), replay it
   cold through the ``traffic-replay`` artifact, replay it warm with
   zero engine runs, and read the per-hour table: peak-hour p95
   slowdown vs the overnight trough (``repro traffic gen|show|stats``
   and ``repro traffic-replay`` on the CLI; the trace format and
   spec grammar live in docs/trace-format.md).

Run:  python examples/quickstart.py
"""

import tempfile

from repro import ExperimentConfig, ResultStore, Session, get_profile, list_workloads
from repro.session import Scenario, ScenarioSet
from repro.tools import VtuneProfiler
from repro.units import GB

FOREGROUND = "G-CC"       # GeminiGraph connected components
BACKGROUND = "fotonik3d"  # SPEC CPU2017 FDTD — the paper's chief offender


def main() -> None:
    print(f"{len(list_workloads())} workloads available:", ", ".join(list_workloads()[:8]), "...")
    session = Session(
        ExperimentConfig(workloads=(FOREGROUND, BACKGROUND), jitter=0.0)
    )

    # --- solo characterization (Figs 2-3 style) ---
    print("\n== solo characterization (4 threads each) ==")
    for name in (FOREGROUND, BACKGROUND):
        solo = session.solo(name, threads=4)
        t = solo.metrics.total
        print(
            f"{name:>12}: runtime {solo.runtime_s:6.1f}s   "
            f"bandwidth {solo.metrics.avg_bandwidth_bytes / GB:5.1f} GB/s   "
            f"CPI {t.cpi:.2f}   LLC MPKI {t.llc_mpki:.1f}"
        )
    scal = session.run("fig2").result
    for name in (FOREGROUND, BACKGROUND):
        print(f"{name:>12}: 8-thread speedup {scal.speedup(name, 8):.1f}x "
              f"-> {scal.classification(name).value} scalability")

    # --- consolidation (Fig 5 protocol) ---
    print(f"\n== co-running {FOREGROUND} (fg) with {BACKGROUND} (bg looping) ==")
    record = session.run("fig5")
    matrix = record.result
    for fg, bg in ((FOREGROUND, BACKGROUND), (BACKGROUND, FOREGROUND)):
        print(f"{fg:>12}: normalized execution time {matrix.value(fg, bg):.2f}x")
    verdict = matrix.classify(FOREGROUND, BACKGROUND)
    print(f"relationship: {verdict.relationship.value}"
          + (f"   victim={', '.join(verdict.victims)} offender={', '.join(verdict.offenders)}"
             if verdict.offenders else ""))

    # --- provenance (Fig 7 / Table IV style) ---
    print(f"\n== where does {FOREGROUND} lose its cycles? ==")
    # The fig5 sweep already ran this co-run; the session serves it
    # from the shared cache instead of re-simulating.
    co = session.run_scenario(Scenario.pair(FOREGROUND, BACKGROUND, threads=4)).result
    solo = session.solo(FOREGROUND, threads=4)
    vtune = VtuneProfiler()
    print(vtune.report(co.fg))
    region = get_profile(FOREGROUND).dominant_region.region.name
    cmp = vtune.compare(solo.metrics, co.fg, region)
    print(
        f"region {region!r}: CPI x{cmp.cpi_inflation:.2f}, "
        f"LLC MPKI x{cmp.mpki_inflation:.2f}, LL x{cmp.ll_inflation:.2f} vs solo"
    )

    # --- provenance record ---
    prov = record.provenance
    print(
        f"\nrecord: artifact={record.artifact} "
        f"spec={prov['spec_fingerprint']} executor={prov['executor']} "
        f"solo-cache hits={session.stats.solo_hits} "
        f"(JSON round-trip: {len(record.to_json())} bytes)"
    )

    # --- warm-store workflow: measurements survive the process ---
    # `repro --store .repro-store run-all` does this for every artifact;
    # here the store round-trips one sweep through a throwaway directory.
    print("\n== persistent store: a cold process over a warm store ==")
    with tempfile.TemporaryDirectory() as store_dir:
        store = ResultStore(store_dir)
        Session(
            ExperimentConfig(workloads=(FOREGROUND, BACKGROUND), jitter=0.0),
            store=store,
        ).run("fig5")  # simulates + persists (write-behind)

        fresh = Session(  # stands in for tomorrow's process
            ExperimentConfig(workloads=(FOREGROUND, BACKGROUND), jitter=0.0),
            store=store,
        )
        warm = fresh.run("fig5")
        print(
            f"warm run: {fresh.stats.solo_disk_hits} solo + "
            f"{fresh.stats.scenario_disk_hits} pair disk hits, "
            f"{fresh.stats.scenario_misses} simulations; "
            f"cells identical: {warm.result.cells == matrix.cells}"
        )
        print(
            f"store record: {store.query(artifact='fig5')[-1].run_id} "
            "(content-addressed, so re-runs are idempotent)"
        )

    # --- scenarios: N-way co-runs and policy ablations ---
    # The paper stops at pairs; a Scenario places any number of apps
    # (first = measured foreground, the rest loop) with optional LLC
    # policy / SMT overrides.  The fig5 pairs above are 2-app
    # scenarios, so every shape shares one cache bit-identically.
    print("\n== scenarios: a 3-way co-run no pair API can express ==")
    session3 = Session(
        ExperimentConfig(workloads=(FOREGROUND, BACKGROUND, "swaptions"), jitter=0.0)
    )
    three_way = Scenario.of(f"{FOREGROUND}:2", f"{BACKGROUND}:2", "swaptions:2")
    res = session3.run_scenario(three_way)
    print(
        f"{FOREGROUND} vs {BACKGROUND}+swaptions: "
        f"{res.normalized_time:.2f}x solo time; backgrounds at "
        + ", ".join(f"{r:.2f}x" for r in res.bg_relative_rates)
    )

    print("\n== LLC-policy ablation of the same placements ==")
    for ablated in session3.run_scenarios(ScenarioSet.policy_ablation(three_way)):
        print(
            f"  llc_policy={ablated.scenario.llc_policy:<9} "
            f"fg slowdown {ablated.normalized_time:.2f}x"
        )
    print(
        "(static = private-LLC idealization, so the victim recovers; "
        "scenario results persist in the store's scenario/ section)"
    )

    # --- CAT way masks: partition the LLC instead of sharing it ---
    # Disjoint bitmaps fence each app into its own ways; the sensitive
    # foreground keeps its working set however hard STREAM inserts.
    # contiguous_split covers *all* of the machine's ways (a hand-rolled
    # nibble pair like 0xF0/0x0F would leave the other ways unused).
    from repro.sched.policy import contiguous_split

    print("\n== CAT way masks: xalancbmk fenced off from STREAM ==")
    cat_session = Session(
        ExperimentConfig(workloads=("xalancbmk", "Stream"), jitter=0.0)
    )
    pair = Scenario.pair("xalancbmk", "Stream", threads=4)
    shared = cat_session.run_scenario(pair)
    n_ways = cat_session.spec.llc_ways
    fg_mask, bg_mask = contiguous_split(n_ways, n_ways // 2)
    fenced = cat_session.run_scenario(
        pair.with_ways({"xalancbmk": fg_mask, "Stream": bg_mask})
    )
    print(
        f"  shared LLC (pressure)        : fg slowdown {shared.normalized_time:.2f}x\n"
        f"  ways {fg_mask:#x} / {bg_mask:#x}: "
        f"fg slowdown {fenced.normalized_time:.2f}x"
    )
    sweep = cat_session.run("cat-sweep", fg="xalancbmk", bg="Stream").result
    frontier = sweep.pareto()
    print(
        f"  cat-sweep: {len(sweep.points)} allocations, "
        f"{len(frontier)} on the Pareto frontier "
        f"(best split beats pressure by "
        f"{sweep.best_masked_vs_policy('pressure'):+.2f}x fg slowdown)"
    )

    # --- scheduling: the measurements decide placements ---
    # A seeded 10-arrival trace replayed over a 2-machine cluster,
    # naive slot bin-packer vs. interference-aware SLO-guarded policy.
    # Every candidate layout the policies score is an ordinary scenario
    # cell, so the result store doubles as the scheduler's warm cache:
    # the second replay below re-simulates nothing.
    print("\n== scheduling: bin-packer vs interference-aware placement ==")
    with tempfile.TemporaryDirectory() as store_dir:
        sched_config = ExperimentConfig(
            workloads=(FOREGROUND, BACKGROUND, "swaptions"), jitter=0.0
        )
        cold = Session(sched_config, store=ResultStore(store_dir))
        comparison = cold.run("sched-replay").result
        for rep in comparison.reports:
            print(
                f"  {rep.policy:<12} {len(rep.admitted):2d} admitted, "
                f"{rep.violations} SLO violation(s), "
                f"p95 slowdown {rep.p95_slowdown:.2f}x"
            )
        warm = Session(sched_config, store=ResultStore(store_dir))
        warm.run("sched-replay")
        print(
            f"  warm replay: {warm.stats.scenario_misses} scenario simulations "
            "(the store answered everything)"
        )

        # --- observability: export a Chrome trace of the demo ---
        # Telemetry is strictly out-of-band: the traced replay below
        # produces byte-identical results; only <store>/telemetry/
        # gains span files.  The exported JSON loads in Perfetto
        # (https://ui.perfetto.dev) with one lane per process.
        print("\n== observability: spans -> Chrome trace ==")
        import json
        from pathlib import Path

        from repro.telemetry import (
            chrome_trace, disable, enable, read_spans, summarize,
        )

        telemetry_dir = Path(store_dir) / "telemetry"
        enable(telemetry_dir)
        try:
            traced = Session(sched_config, store=ResultStore(store_dir))
            traced.run("sched-replay")   # warm store: spans, no sims
        finally:
            disable()
        spans = read_spans(telemetry_dir)
        summary = summarize(spans)
        trace_path = Path(store_dir) / "quickstart-trace.json"
        trace_path.write_text(json.dumps(chrome_trace(spans)))
        hottest = next(iter(summary["names"]))
        print(
            f"  {summary['spans']} span(s) recorded; hottest: {hottest}; "
            f"{summary['coverage'] * 100:.0f}% of wall attributed"
        )
        print(
            f"  Chrome trace written to {trace_path.name} — load it in "
            "Perfetto (CLI: repro --store DIR trace export --format chrome)"
        )

        # --- the service tier: the scheduler as a daemon ---
        # `repro serve start` wraps the scheduler + warm store behind a
        # JSON-over-HTTP admission API; draining a trace against the
        # live daemon reproduces the in-process replay byte for byte.
        print("\n== service tier: drain a trace against a live daemon ==")
        import asyncio

        from repro.sched import parse_trace
        from repro.serve import ServeClient, ServeDaemon, drain_trace

        async def serve_demo():
            daemon = ServeDaemon(
                Session(sched_config, store=ResultStore(store_dir)),
                port=0,           # ephemeral port
                budget_s=0.25,    # per-admission latency budget
            )
            await daemon.start()
            async with ServeClient(daemon.host, daemon.port) as client:
                try:
                    trace = parse_trace("seed:0:8:2:0.5", sched_config.workloads)
                    return await drain_trace(client, trace)
                finally:
                    await daemon.shutdown()

        drained = asyncio.run(serve_demo())
        print(
            f"  {len(drained.latencies)} arrivals admitted over HTTP, "
            f"p95 admission latency {drained.p95_latency_s * 1e3:.1f} ms "
            f"({drained.budget_misses} budget miss(es)); "
            f"{drained.report.replans} departure replan(s)"
        )

    # --- traffic: a diurnal open-loop day, replayed by the hour ---
    # A DiurnalCurve shapes a thinned Poisson stream (night trough,
    # 10:00 peak); the traffic-replay artifact replays the generated
    # day per policy and buckets the report per simulated hour.  A
    # short busy window keeps the demo quick: 3 morning-ramp hours at
    # a peak rate of 40 arrivals/hour.
    print("\n== traffic: a diurnal day, peak hour vs trough ==")
    with tempfile.TemporaryDirectory() as store_dir:
        traffic_config = ExperimentConfig(
            workloads=(FOREGROUND, BACKGROUND, "swaptions"), jitter=0.0
        )
        knobs = dict(hours=3.0, rate=40.0)
        cold = Session(traffic_config, store=ResultStore(store_dir))
        day = cold.run("traffic-replay", **knobs).result
        print(
            f"  {len(day.trace.arrivals)} arrivals over 3 trace hours "
            "(same seed => byte-identical day)"
        )
        for policy in ("baseline", "interference"):
            peak, trough = day.peak_trough(policy)
            print(
                f"  {policy:<12} peak hour {peak.index}: "
                f"{peak.arrivals:2d} arrivals, p95 {peak.p95_slowdown:.2f}x, "
                f"util {peak.utilization * 100:.0f}%  |  trough hour "
                f"{trough.index}: {trough.arrivals} arrivals, "
                f"p95 {trough.p95_slowdown:.2f}x"
            )
        warm = Session(traffic_config, store=ResultStore(store_dir))
        warm.run("traffic-replay", **knobs)
        print(
            f"  warm replay: {warm.stats.scenario_misses} scenario simulations "
            "(the store answered the whole day)"
        )


if __name__ == "__main__":
    main()
