"""Command-line interface: regenerate any paper artifact.

Usage::

    repro list
    repro fig2 --workloads G-PR,G-CC --csv
    repro fig5 --workloads G-CC,fotonik3d,swaptions --parallel
    repro table4
    repro scenario run G-CC:2 fotonik3d:2 swaptions:2 --llc-policy static
    repro scenario run G-CC:8 Stream:8 --smt     # 16 threads on 8 SMT cores
    repro scenario run G-CC:4 Stream:4 --ways G-CC:0xF0 Stream:0x0F  # CAT masks
    repro scenario run G-CC:1 Stream:1 --smt --pin G-CC:0 Stream:0   # share a core
    repro consolidate-n --workloads G-CC,fotonik3d,swaptions
    repro cat-sweep                              # way-mask Pareto sweep
    repro --store .repro-store run-all          # campaign + manifest.json
    repro --store .repro-store run-all --shard 1/2   # one shard of a campaign
    repro --store .repro-store campaign --workers 4  # multi-process campaign
    repro --store .repro-store fig5             # warm-store single artifact
    repro --store .repro-store store ls
    repro --store .repro-store store show fig5
    repro --store .repro-store scenario ls      # persisted N-way scenarios
    repro --store .repro-store store gc --dry-run
    repro --store .repro-store store migrate    # earlier layouts -> schema 2
    repro store diff A/manifest.json B/manifest.json
    repro --store .repro-store sched replay --trace seed:0:10 \\
        --policy interference --policy baseline  # placement policies head to head
    repro --store .repro-store sched replay --trace seed:0:10:2:0.5 --replan
    repro sched decide G-CC:4 --machines 2       # one admission what-if
    repro --store .repro-store serve start --port 7453 --budget-s 0.25
    repro serve submit G-CC:4 t000 --port 7453   # one live admission
    repro serve drain --trace seed:0:10:2:0.5 --port 7453 --json
    repro serve metrics --port 7453; repro serve stop --port 7453
    repro traffic gen --seed 0 --out day.json    # a seeded diurnal day
    repro traffic stats --trace diurnal:0 --json # per-hour arrival shape
    repro --store .repro-store traffic-replay --rate 8 --replan
    repro --store .repro-store sched replay --traffic model.json --hours 2
    repro --store .repro-store store ls --json   # scripted consumption
    repro --store .repro-store store stats       # per-artifact run/cache stats
    repro --store .repro-store campaign --workers 2 --telemetry  # record spans
    repro --store .repro-store trace summary     # where did the wall time go?
    repro --store .repro-store trace export --format chrome --out trace.json
    repro -v --store .repro-store fig5           # INFO logging to stderr

Experiment ids are artifact names in the runner registry
(:mod:`repro.session.registry`): table1, fig2, table2, fig3, fig4,
fig5, table3, fig6, fig7, fig8, table4, plus the extension studies
(solo, insights, predict, efficiency, allocation).  Every invocation
builds one :class:`~repro.session.session.Session`, so ``--parallel``
(or ``--executor thread``) fans the independent sweep cells out with
bit-identical results.

Each verb and sub-verb has a parser of its own: ``repro <verb> [<sub>]
--help`` lists only the flags it takes, and any other flag is a usage
error (exit 2).  The flags every verb shares (``--store``,
``--workloads``, ``--threads``, the executor knobs, ``-v`` ...) may go
before or after the verb.

With ``--store DIR`` the session reads measurements through the
persistent :class:`~repro.store.store.ResultStore` and writes fresh
ones behind, every executed artifact is streamed into
``DIR/results/`` + a per-process index segment under ``DIR/index/``,
and ``run-all`` freezes the campaign into ``DIR/manifest.json``.

One store safely serves many processes: ``repro campaign --workers N``
forks N workers that steal artifacts off the shared registry, and
``run-all --shard I/N`` runs a deterministic slice (launch the N
shards concurrently on one store — the index is per-process segmented
and cache writes are lock-coordinated, so the merged campaign is
cell-for-cell identical to a serial one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core import ExperimentConfig
from repro.engine.interval import LLC_POLICIES
from repro.errors import ReproError, SchedError, StoreError
from repro.session import (
    ParallelExecutor,
    Runner,
    Scenario,
    Session,
    ThreadExecutor,
    get_runner,
    parse_pinning,
    parse_way_mask,
    runner_names,
)
from repro.store import SCHEMA_VERSION, ResultStore
from repro.workloads.calibration import APPLICATIONS, MINI_BENCHMARKS

#: Shipped placement policies (mirrors repro.sched.policy.POLICIES;
#: spelled out so parser construction stays import-light).
_POLICY_CHOICES = ("baseline", "interference")

#: Artifacts that honour the --llc-policy/--smt engine overrides.
_SCENARIO_ARTIFACTS = ("scenario", "consolidate-n", "scenario-set")

#: The parsers declare every flag with ``default=SUPPRESS`` (a subparser
#: copies each default it holds over the namespace, so a real default
#: would erase the same flag given before the verb: ``repro --store S
#: fig5``).  These are the real defaults, filled in after parsing, plus
#: ``needs_store``: the verb named in the error when --store is missing.
_DEFAULTS = {
    "store": None, "workloads": None, "threads": 4, "repetitions": 3,
    "seed": 0, "executor": None, "parallel": False, "workers": None,
    "telemetry": False,
    "verbose": 0, "quiet": False, "csv": False, "json": False,
    "llc_policy": None, "smt": False, "ways": None, "pin": None,
    "dry_run": False, "shard": None, "manifest": None, "trace": None,
    "traffic": None, "hours": None, "scale": None, "rate": None,
    "policy": None, "machines": None, "slo": None, "cluster": None,
    "replan": False, "host": "127.0.0.1", "port": 7453, "budget_s": None,
    "no_replan": False, "solo_s": 1.0, "format": "chrome", "out": None,
    "limit": None, "needs_store": None,
}


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser for one group of flags (see :data:`_DEFAULTS`)."""
    return argparse.ArgumentParser(
        add_help=False, parents=parents, argument_default=argparse.SUPPRESS
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests): one subparser per
    verb and sub-verb, each built from the flag groups it takes."""
    common = _flags()
    shared = common.add_argument_group("shared flags (before or after the verb)")
    shared.add_argument(
        "--store", metavar="DIR",
        help="persistent result store: read measurements through DIR, "
        "write fresh ones behind, stream records + index",
    )
    shared.add_argument(
        "--workloads", help="comma-separated subset of applications (default: all 25)"
    )
    shared.add_argument("--threads", type=int, help="threads per application (default 4)")
    shared.add_argument("--repetitions", type=int, help="measurement repetitions (default 3)")
    shared.add_argument("--seed", type=int, help="jitter seed (default 0)")
    shared.add_argument(
        "--executor", choices=("serial", "parallel", "thread"),
        help="sweep fan-out backend (default serial; 'parallel' = process "
        "pool, 'thread' = thread pool for hosts where fork dominates)",
    )
    shared.add_argument(
        "--parallel", action="store_true", help="shorthand for --executor parallel"
    )
    shared.add_argument(
        "--workers", type=int,
        help="pool size for --executor parallel/thread (default: CPU count); "
        "for 'campaign': number of worker processes (default 2)",
    )
    shared.add_argument(
        "--telemetry", action="store_true",
        help="record spans + metrics into <store>/telemetry during this "
        "invocation (requires --store; inherited by campaign/pool "
        "workers; never changes results — inspect with 'trace')",
    )
    chatter = shared.add_mutually_exclusive_group()
    chatter.add_argument(
        "-v", "--verbose", action="count",
        help="log to stderr: -v INFO, -vv DEBUG (default: warnings only)",
    )
    chatter.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings on stderr (errors only)",
    )

    csv = _flags()
    csv.add_argument("--csv", action="store_true", help="CSV output")
    as_json = _flags()
    as_json.add_argument("--json", action="store_true", help="machine-readable JSON output")
    out = _flags()
    out.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")
    manifest = _flags()
    manifest.add_argument(
        "--manifest", metavar="PATH",
        help="manifest output path (default: <store>/manifest.json)",
    )
    overrides = _flags()
    overrides.add_argument(
        "--llc-policy", choices=LLC_POLICIES,
        help="LLC sharing policy override (default: the engine's 'pressure' model)",
    )
    overrides.add_argument(
        "--smt", action="store_true",
        help="run on the SMT-enabled spec variant (2 hardware threads per core)",
    )
    traffic = {
        "metavar": "MODEL",
        "help": "generate the arrival trace from a traffic-model JSON file "
        "(curve + mix + rate; schema in docs/trace-format.md)",
    }
    hours = {
        "type": float,
        "help": "trace hours to generate (overrides a --traffic file's own; default 24)",
    }
    arrivals = _flags()
    stream = arrivals.add_mutually_exclusive_group()
    stream.add_argument(
        "--trace", metavar="SPEC",
        help="arrival trace: seed:S:N[:T[:D]] (synthetic), diurnal:S[:H[:T]] "
        "(an open-loop diurnal day) or a trace JSON file (docs/trace-format.md)",
    )
    stream.add_argument("--traffic", **traffic)
    arrivals.add_argument("--hours", **hours)
    model = _flags()
    model.add_argument("--traffic", **traffic)
    model.add_argument("--hours", **hours)
    day = _flags()
    day.add_argument(
        "--scale", type=float,
        help="time scale factor: trace minutes per simulated minute (default 60)",
    )
    day.add_argument(
        "--rate", type=float, help="arrivals per trace hour at the diurnal peak (default 6)"
    )
    placement = _flags()
    placement.add_argument(
        "--policy", choices=_POLICY_CHOICES, action="append",
        help="placement policy; replays take several, head to head "
        "(default: both for replays, else interference)",
    )
    placement.add_argument("--machines", type=int, help="homogeneous cluster size (default 2)")
    placement.add_argument(
        "--slo", type=float,
        help="per-tenant slowdown SLO (default: the paper's 1.5x victim threshold)",
    )
    replan = _flags()
    replan.add_argument(
        "--replan", action="store_true",
        help="re-plan the vacated machine on every departure (logged as replan events)",
    )
    cluster = _flags()
    cluster.add_argument(
        "--cluster", metavar="PATH",
        help="cluster state JSON (default: an empty homogeneous cluster of --machines)",
    )
    endpoint = _flags()
    endpoint.add_argument("--host", help="daemon bind/connect address (default 127.0.0.1)")
    endpoint.add_argument(
        "--port", type=int,
        help="daemon port (default 7453; 0 binds an ephemeral port, announced on stdout)",
    )
    replay = _flags(arrivals, placement, replan, as_json)
    start = _flags(endpoint, placement, cluster)
    start.add_argument(
        "--budget-s", type=float,
        help="per-arrival admission-latency budget in seconds; observability "
        "only (overruns are flagged, decisions never change)",
    )
    start.add_argument(
        "--no-replan", action="store_true",
        help="disable departure-time re-planning (on by default, unlike offline replay)",
    )
    inspect = _flags(arrivals, day, as_json)

    parser = argparse.ArgumentParser(
        prog="repro-interference",
        description="Regenerate figures/tables of the interference characterization paper.",
        epilog="'VERB [SUB] --help' lists the flags a verb takes.  Trace / traffic "
        "spec grammar: docs/trace-format.md.  Subsystem map: docs/architecture.md.",
        parents=[common],
    )

    def verb(verbs, name, func, *groups, help, **defaults):
        sub = verbs.add_parser(
            name, parents=[common, *groups], help=help, description=help,
            argument_default=argparse.SUPPRESS,
        )
        sub.set_defaults(func=func, **defaults)
        return sub

    verbs = parser.add_subparsers(metavar="VERB", required=True)
    for name in runner_names():
        title = get_runner(name).title
        if name == "traffic-replay":
            verb(verbs, name, _traffic_replay, model, day, placement, replan, as_json, help=title)
        elif name in _SCENARIO_ARTIFACTS:
            verb(verbs, name, _scenario_artifact, csv, overrides, help=title, artifact=name)
        else:
            verb(verbs, name, _artifact, csv, help=title, artifact=name)
    verb(verbs, "list", _list, help="list the artifacts, commands and workloads")
    run_all = verb(
        verbs, "run-all", _run_all, manifest,
        help="run every registered artifact and freeze the campaign manifest",
    )
    run_all.add_argument(
        "--shard", metavar="I/N",
        help="run only round-robin shard I of N (1-based) of the runner registry; "
        "launch all N shards against one --store for a sharded campaign",
    )
    verb(
        verbs, "campaign", _campaign, manifest, needs_store="campaign",
        help="run-all across worker processes sharing one --store",
    )

    subs = verb(
        verbs, "store", _store_ls, as_json, needs_store="store",
        help="inspect, prune and compare result stores (default: ls)",
    ).add_subparsers(metavar="SUB")
    verb(subs, "ls", _store_ls, as_json, help="list the records in --store")
    show = verb(subs, "show", _store_show, csv, help="render one stored record")
    show.add_argument("target", metavar="TARGET", help="artifact name or run id")
    gc = verb(subs, "gc", _store_gc, help="prune cache shards no live engine config reads")
    gc.add_argument(
        "--dry-run", action="store_true", help="report what would be pruned, delete nothing"
    )
    diff = verb(
        subs, "diff", _store_diff, needs_store=None,
        help="compare two campaign manifests cell by cell (exit 1 when they differ)",
    )
    diff.add_argument("manifest_a", metavar="A", help="first manifest.json")
    diff.add_argument("manifest_b", metavar="B", help="second manifest.json")
    verb(subs, "stats", _store_stats, as_json, help="per-artifact runs, durations, hit rates")
    verb(
        subs, "migrate", _store_migrate,
        help="rewrite the cache entries of an earlier store layout into the current one",
    )

    subs = verbs.choices["scenario"].add_subparsers(metavar="SUB")
    run = verb(subs, "run", _scenario_run, csv, overrides, help="run one N-way scenario")
    run.add_argument(
        "placements", metavar="APP[:T]", nargs="+",
        help="co-located workloads, the first one measured, e.g. G-CC:2 fotonik3d:2",
    )
    run.add_argument(
        "--ways", metavar="NAME:BITMAP", nargs="+",
        help="per-app CAT LLC way masks, e.g. --ways G-CC:0xF0 Stream:0x0F "
        "(apps without a mask keep all ways)",
    )
    run.add_argument(
        "--pin", metavar="NAME:CORE[,CORE...]", nargs="+",
        help="per-app core pinnings, e.g. --pin G-CC:0,1 Stream:0,1 (pinned cores "
        "are reserved; unpinned apps schedule onto the remaining ones)",
    )
    verb(
        subs, "ls", _scenario_ls, as_json, needs_store="scenario ls",
        help="list the N-way scenarios persisted in --store",
    )

    subs = verb(
        verbs, "sched", _sched_replay, replay,
        help="placement policies over a simulated cluster (default: replay)",
    ).add_subparsers(metavar="SUB")
    verb(
        subs, "replay", _sched_replay, replay,
        help="replay an arrival trace under each policy (default: 10 arrivals from --seed)",
    )
    decide = verb(
        subs, "decide", _sched_decide, placement, cluster, as_json,
        help="one admission what-if (exit 0 admit, 1 reject)",
    )
    decide.add_argument("arrival", metavar="APP[:T]", help="the arrival, e.g. G-CC:4")

    subs = verb(
        verbs, "trace", _trace_summary, as_json, needs_store="trace",
        help="read the spans recorded with --telemetry (default: summary)",
    ).add_subparsers(metavar="SUB")
    show = verb(subs, "show", _trace_show, as_json, help="print the spans")
    show.add_argument("--limit", type=int, help="print at most N spans (default: all)")
    export = verb(subs, "export", _trace_export, out, help="export the spans")
    export.add_argument(
        "--format", choices=("chrome", "csv", "json"),
        help="chrome (Perfetto-loadable trace events, the default), csv "
        "(per-span-name summary rows) or json (raw spans + merged metrics)",
    )
    verb(subs, "summary", _trace_summary, as_json, help="where the wall time went, per span")

    subs = verb(
        verbs, "serve", _serve_start, start,
        help="the scheduler as an admission daemon, and its client (default: start)",
    ).add_subparsers(metavar="SUB")
    verb(subs, "start", _serve_start, start, help="run the daemon until it is stopped")
    submit = verb(
        subs, "submit", _serve_submit, endpoint, as_json,
        help="one live admission (exit 0 admit, 1 reject)",
    )
    submit.add_argument("arrival", metavar="APP[:T]", help="the arrival, e.g. G-CC:4")
    submit.add_argument(
        "tenant", metavar="ID", nargs="?", default=None,
        help="tenant id (default: the arrival's label)",
    )
    submit.add_argument(
        "--solo-s", type=float, help="the arrival's work in solo seconds (default 1.0)"
    )
    verb(
        subs, "drain", _serve_drain, endpoint, arrivals, as_json,
        help="replay a trace open-loop against the daemon (default: 10 arrivals from --seed)",
    )
    verb(subs, "stop", _serve_stop, endpoint, help="ask the daemon to shut down")
    verb(subs, "metrics", _serve_metrics, endpoint, as_json, help="latency and cache counters")

    subs = verb(
        verbs, "traffic", _traffic_show, inspect,
        help="generate and inspect open-loop diurnal arrival traces (default: show)",
    ).add_subparsers(metavar="SUB")
    verb(subs, "gen", _traffic_gen, inspect, out, help="write the trace as JSON")
    verb(subs, "show", _traffic_show, inspect, help="print the trace event by event")
    verb(subs, "stats", _traffic_stats, inspect, help="per-hour arrival shape")
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a command line; flags not given take their defaults, and
    ``args.given`` names the destinations the command line did set."""
    args = build_parser().parse_args(argv)
    args.given = frozenset(vars(args))
    for dest, default in _DEFAULTS.items():
        vars(args).setdefault(dest, default)
    return args


def _list(args: argparse.Namespace) -> int:
    """``repro list``: the artifacts, commands and workloads."""
    lines = ["experiments:"]
    for name in runner_names():
        lines.append(f"  {name:<12} {get_runner(name).title}")
    lines.append(
        "commands: run-all [--shard I/N] (campaign + manifest), "
        "campaign (multi-process run-all), store ls/show/gc/diff/stats/migrate, "
        "scenario run [--ways NAME:BITMAP ...] [--pin NAME:CORES ...] / ls, "
        "sched replay [--trace seed:S:N] [--policy P ...] / decide APP[:T], "
        "trace show/export/summary (spans recorded with --telemetry), "
        "serve start/submit/drain/stop/metrics (the scheduler daemon), "
        "traffic gen/show/stats [--traffic MODEL] (diurnal open-loop days)"
    )
    lines.append("applications: " + ", ".join(APPLICATIONS))
    lines.append("mini-benchmarks: " + ", ".join(MINI_BENCHMARKS))
    print("\n".join(lines))
    return 0


def _resolve_executor_arg(args: argparse.Namespace):
    name = args.executor or ("parallel" if args.parallel else None)
    if name == "parallel":
        return ParallelExecutor(args.workers)
    if name == "thread":
        return ThreadExecutor(args.workers)
    return None


def _session(args: argparse.Namespace) -> Session:
    """The session every simulating verb runs through."""
    return Session(
        _build_config(args),
        executor=_resolve_executor_arg(args),
        store=args.store,
    )


def _artifact(args: argparse.Namespace, **kwargs) -> int:
    """``repro <artifact>``: run one registered runner and render it."""
    record = _session(args).run(args.artifact, **kwargs)
    print(get_runner(args.artifact).render(record.result, csv=args.csv))
    return 0


def _scenario_artifact(args: argparse.Namespace) -> int:
    """A scenario-shaped artifact, with the engine overrides applied."""
    return _artifact(args, llc_policy=args.llc_policy, smt=args.smt)


def _store_ls(args: argparse.Namespace) -> int:
    """``repro store ls [--json]``: the store's counts and records."""
    store = ResultStore(args.store)
    counts = store.describe()
    if args.json:
        from dataclasses import asdict

        records = [asdict(e) for e in store.query()]
        payload = {"store": str(store.root), "counts": counts, "records": records}
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(
        f"store {store.root}: {counts['solo_entries']} solo, "
        f"{counts['corun_entries']} co-run, "
        f"{counts['scenario_entries']} scenario, "
        f"{counts['records']} record(s), "
        f"{counts['index_lines']} index line(s)"
    )
    for entry in store.query():
        print(
            f"  {entry.run_id:<32} {entry.artifact:<12} "
            f"spec={entry.spec_fingerprint} {entry.path}"
        )
    return 0


def _store_show(args: argparse.Namespace) -> int:
    """``repro store show <artifact-or-run-id>``: render a stored record."""
    store = ResultStore(args.store)
    target = args.target
    record = store.latest(target) if target in runner_names() else store.load(target)
    runner = get_runner(record.artifact)
    if type(runner).decode is not Runner.decode:
        # The runner rebuilds its result object from the payload, so
        # the stored record renders exactly like a live run.
        print(runner.render(record.result, csv=args.csv))
    else:
        # Default decode keeps the raw JSON payload: show it as-is.
        print(json.dumps(record.result, indent=1, default=str))
    print(json.dumps(record.provenance, indent=1))
    return 0


def _store_gc(args: argparse.Namespace) -> int:
    """``repro store gc [--dry-run]``: prune unreachable cache shards."""
    from repro.store import live_engine_fingerprints

    store = ResultStore(args.store)
    config = _build_config(args)
    live = live_engine_fingerprints(config.spec, config.engine_config)
    summary = store.gc(live, dry_run=args.dry_run)
    verb = "would prune" if summary["dry_run"] else "pruned"
    print(
        f"{verb} {summary['removed_entries']} cache entr(ies) in "
        f"{len(summary['removed_dirs'])} orphaned shard(s); "
        f"kept {summary['kept_entries']}"
    )
    for shard in summary["removed_dirs"]:
        print(f"  {shard}")
    return 0


def _store_migrate(args: argparse.Namespace) -> int:
    """``repro store migrate``: rewrite an earlier layout into schema 2."""
    from repro.store import migrate

    summary = migrate(args.store)
    print(
        f"migrated {summary['migrated']} cache entr(ies) from schema "
        f"{summary['from_schema']} to {SCHEMA_VERSION}; dropped {summary['dropped']} "
        f"that did not check out; removed {summary['removed_files']} file(s)"
    )
    return 0


def _store_diff(args: argparse.Namespace) -> int:
    """``repro store diff A B``: compare two manifest files cell by cell."""
    from repro.store import diff_manifests, load_manifest, render_diff

    diff = diff_manifests(load_manifest(args.manifest_a), load_manifest(args.manifest_b))
    print(render_diff(diff))
    return 0 if not (diff["changed"] or diff["only_in_a"] or diff["only_in_b"]) else 1


def _store_stats(args: argparse.Namespace) -> int:
    """``repro store stats [--json]``: per-artifact run counts, total /
    mean durations and cache-tier hit rates, aggregated from the merged
    index (no record files are opened)."""
    store = ResultStore(args.store)
    per: dict[str, dict] = {}
    for entry in store.query():
        agg = per.setdefault(
            entry.artifact,
            {"runs": 0, "total_s": 0.0, "memory": 0, "disk": 0, "engine": 0},
        )
        agg["runs"] += 1
        agg["total_s"] += entry.duration_s
        for key, count in entry.cache.items():
            if not isinstance(count, int) or count <= 0:
                continue
            if key.endswith("_disk_hits"):
                agg["disk"] += count
            elif key.endswith("_hits"):
                agg["memory"] += count
            elif key.endswith("_misses"):
                agg["engine"] += count
    stats = {}
    for name, agg in sorted(per.items()):
        lookups = agg["memory"] + agg["disk"] + agg["engine"]
        stats[name] = {
            "runs": agg["runs"],
            "total_s": agg["total_s"],
            "mean_s": agg["total_s"] / agg["runs"],
            "lookups": lookups,
            "memory_hits": agg["memory"],
            "disk_hits": agg["disk"],
            "engine_runs": agg["engine"],
            "hit_rate": (
                (agg["memory"] + agg["disk"]) / lookups if lookups else 0.0
            ),
        }
    if args.json:
        print(json.dumps({"store": str(store.root), "artifacts": stats}, sort_keys=True))
        return 0
    from repro.core.report import ascii_table

    rows = [
        [
            name,
            s["runs"],
            f"{s['total_s']:.3f}",
            f"{s['mean_s']:.3f}",
            s["memory_hits"],
            s["disk_hits"],
            s["engine_runs"],
            f"{s['hit_rate'] * 100:.1f}%",
        ]
        for name, s in stats.items()
    ]
    print(
        ascii_table(
            ["artifact", "runs", "total s", "mean s", "mem", "disk", "engine", "hit rate"],
            rows,
            title=f"{sum(s['runs'] for s in stats.values())} run(s) of "
            f"{len(stats)} artifact(s) in {store.root}",
        ),
        end="",
    )
    return 0


def _by_name(specs, parse, flag: str) -> dict:
    """Parse NAME:VALUE specs into a dict, refusing duplicate names —
    a repeated name would silently keep only the last value, which is
    exactly wrong for self-pair scenarios (use the Python API's
    placement-aligned sequence form for per-seat values there)."""
    from repro.errors import ScenarioError

    out: dict = {}
    for spec in specs:
        name, value = parse(spec)
        if name in out:
            raise ScenarioError(
                f"{flag} names {name!r} twice; one value per workload "
                "(for a self-pair, use Scenario.with_ways/with_pinning "
                "with a placement-aligned list)"
            )
        out[name] = value
    return out


def _scenario_ls(args: argparse.Namespace) -> int:
    """``repro scenario ls [--json]``: the persisted N-way scenarios."""
    store = ResultStore(args.store)
    entries = store.scenarios()
    if args.json:
        print(json.dumps({"store": str(store.root), "scenarios": entries}, sort_keys=True))
        return 0
    print(f"{len(entries)} persisted N-way scenario(s) in {store.root}")
    for e in entries:
        payload = e["scenario"]
        apps = "+".join(f"{name}:{threads}" for name, threads in payload["apps"])
        policy = payload["llc_policy"] or "default"
        smt = "on" if payload["smt"] else "off"
        extras = ""
        if payload.get("llc_ways"):
            masks = "/".join(
                f"{m:#x}" if m is not None else "-"
                for m in payload["llc_ways"]
            )
            extras += f" ways={masks}"
        if payload.get("pinning"):
            pins = "/".join(
                ",".join(str(c) for c in p) if p is not None else "-"
                for p in payload["pinning"]
            )
            extras += f" pin={pins}"
        print(
            f"  {apps:<44} llc={policy:<8} smt={smt} "
            f"engine={e['engine_fingerprint']}{extras}"
        )
    return 0


def _scenario_run(args: argparse.Namespace) -> int:
    """``repro scenario run <app[:threads]> ... [--ways ...] [--pin ...]``."""
    session = _session(args)
    scenario = Scenario.of(
        *args.placements,
        threads=args.threads,
        llc_policy=args.llc_policy,
        smt=args.smt,
    )
    if args.ways:
        scenario = scenario.with_ways(_by_name(args.ways, parse_way_mask, "--ways"))
    if args.pin:
        scenario = scenario.with_pinning(_by_name(args.pin, parse_pinning, "--pin"))
    record = session.run("scenario", scenario=scenario)
    print(get_runner("scenario").render(record.result, csv=args.csv))
    return 0


def _arrivals(args: argparse.Namespace, parse, default=lambda: None):
    """The arrival stream of a replay or traffic verb, resolved the same
    way for all of them: ``--traffic MODEL`` generates it (an explicit
    ``--seed`` or ``--hours`` overriding the file's own), ``--trace
    SPEC`` goes through ``parse``, and without either flag ``default()``
    supplies it."""
    if args.traffic is not None:
        from repro.traffic import generate_from_file

        seed = args.seed if "seed" in args.given else None
        return generate_from_file(args.traffic, seed=seed, hours=args.hours)
    if args.trace is not None:
        return parse(args.trace)
    return default()


def _traffic_day(args: argparse.Namespace):
    """The trace a ``traffic`` sub-verb works on: the ``--traffic`` /
    ``--trace`` stream, or a business-hours day over the roster shaped
    by ``--seed/--hours/--scale/--rate``."""
    from repro.sched.trace import parse_trace
    from repro.traffic import DiurnalCurve, TrafficModel, WorkloadMix
    from repro.traffic.model import DEFAULT_RATE_PER_HOUR

    workloads = _build_config(args).workloads

    def default_day():
        model = TrafficModel(
            mix=WorkloadMix.uniform(workloads),
            curve=DiurnalCurve.business_hours(
                args.scale if args.scale is not None else 60.0
            ),
            rate_per_hour=(
                args.rate if args.rate is not None else DEFAULT_RATE_PER_HOUR
            ),
        )
        return model.generate(
            seed=args.seed,
            hours=args.hours if args.hours is not None else 24.0,
        )

    return _arrivals(args, lambda spec: parse_trace(spec, workloads), default_day)


def _traffic_gen(args: argparse.Namespace) -> int:
    """``repro traffic gen [--out P]``: the trace as JSON."""
    trace = _traffic_day(args)
    if args.out is not None:
        trace.to_json(args.out)
        print(
            f"wrote {len(trace.arrivals)} arrival(s) / "
            f"{len(trace) - len(trace.arrivals)} departure(s) to "
            f"{args.out} (trace {trace.fingerprint})"
        )
    else:
        print(json.dumps(trace.payload(), indent=None if args.json else 1))
    return 0


def _traffic_show(args: argparse.Namespace) -> int:
    """``repro traffic show``: the trace event by event."""
    from repro.core.report import ascii_table

    trace = _traffic_day(args)
    if args.json:
        print(json.dumps(trace.payload(), sort_keys=True))
        return 0
    rows = [
        [
            f"{e.time_s:.3f}",
            e.kind,
            e.tenant,
            e.workload or "-",
            e.threads or "-",
            f"{e.solo_s:.3f}" if e.kind == "arrival" else "-",
            e.hint or "-",
        ]
        for e in trace
    ]
    print(
        ascii_table(
            ["time_s", "kind", "tenant", "workload", "threads", "solo_s", "hint"],
            rows,
            title=(
                f"{len(trace.arrivals)} arrival(s), "
                f"{len(trace) - len(trace.arrivals)} departure(s) "
                f"(trace {trace.fingerprint})"
            ),
        ),
        end="",
    )
    return 0


def _traffic_stats(args: argparse.Namespace) -> int:
    """``repro traffic stats``: the trace's per-hour arrival shape."""
    from repro.traffic import trace_stats

    trace = _traffic_day(args)
    bucket_s = 3600.0 / (args.scale if args.scale is not None else 60.0)
    stats = trace_stats(trace, bucket_s=bucket_s)
    if args.json:
        print(json.dumps(stats.payload(), sort_keys=True))
    else:
        print(stats.render(), end="")
    return 0


def _replay(args: argparse.Namespace, artifact: str, key: str, end: str, **knobs) -> int:
    """Run a replay artifact with the knobs its flags set (the unset ones
    keep the runner's defaults) and print it, or with ``--json`` its
    payload under ``key`` plus the cache counters."""
    session = _session(args)
    knobs.update(
        policies=tuple(args.policy) if args.policy else None,
        machines=args.machines,
        slo=args.slo,
        replan=args.replan or None,
    )
    record = session.run(artifact, **{k: v for k, v in knobs.items() if v is not None})
    runner = get_runner(artifact)
    if args.json:
        payload = {key: runner.encode(record.result), "cache": record.provenance["cache"]}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(runner.render(record.result), end=end)
    return 0


def _traffic_replay(args: argparse.Namespace) -> int:
    """``repro traffic-replay`` invoked directly: route the traffic
    knobs into the registered runner (campaigns run its defaults).  A
    ``--traffic`` file's own seed and hours apply unless ``--seed`` or
    ``--hours`` is given, as on every replay verb."""
    seed = args.seed if args.traffic is not None and "seed" in args.given else None
    return _replay(
        args, "traffic-replay", "replay", "",
        traffic=args.traffic, seed=seed, hours=args.hours, scale=args.scale,
        rate=args.rate,
    )


def _cluster(args: argparse.Namespace, spec):
    """The cluster an admission starts from: the ``--cluster`` state
    file, or an empty homogeneous cluster of ``--machines``."""
    from repro.sched import Cluster

    if args.cluster is None:
        return Cluster.homogeneous(args.machines if args.machines is not None else 2, spec)
    try:
        payload = json.loads(Path(args.cluster).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchedError(f"cannot read cluster {args.cluster}: {exc}") from None
    return Cluster.from_payload(payload, spec)


def _sched_replay(args: argparse.Namespace) -> int:
    """``repro sched replay [--trace SPEC | --traffic MODEL] [--policy P ...]``."""
    # The runner parses a --trace spec itself, so its record keeps the
    # spec as given rather than the parsed trace.
    trace = _arrivals(args, lambda spec: spec)
    return _replay(args, "sched-replay", "comparison", "\n", trace=trace)


def _sched_decide(args: argparse.Namespace) -> int:
    """``repro sched decide <app[:threads]> [--cluster FILE]``: one
    admission what-if; exit 0 admit, 1 reject."""
    from repro.core.classify import VICTIM_THRESHOLD
    from repro.sched import PlacementEvaluator, Tenant, get_policy
    from repro.session.scenario import parse_placement

    session = _session(args)
    placement = parse_placement(args.arrival, default_threads=args.threads)
    cluster = _cluster(args, session.spec)
    tenant = Tenant(
        tenant="arrival", workload=placement.workload, threads=placement.threads, solo_s=1.0
    )
    policy = get_policy((args.policy or ["interference"])[0])
    slo = args.slo if args.slo is not None else VICTIM_THRESHOLD
    decision, _ = policy.decide(
        cluster, tenant, PlacementEvaluator(session), slo=slo
    )
    if args.json:
        print(json.dumps(decision.payload(), sort_keys=True))
    elif decision.admitted:
        residents = ", ".join(decision.co_tenants) or "(empty machine)"
        predicted = (
            "; predicted slowdowns "
            + ", ".join(f"{s:.3f}x" for s in decision.predicted)
            if decision.predicted
            else ""
        )
        print(
            f"admit {placement.label} on {decision.machine} "
            f"[{decision.variant}] with {residents}"
            f"{predicted} ({decision.candidates} candidate(s), "
            f"policy {decision.policy}, SLO {slo:.2f}x)"
        )
    else:
        print(
            f"reject {placement.label}: {decision.reason} "
            f"({decision.candidates} candidate(s), policy "
            f"{decision.policy}, SLO {slo:.2f}x)"
        )
    return 0 if decision.admitted else 1


def _serve_start(args: argparse.Namespace) -> int:
    """``repro serve start``: the daemon, until SIGTERM/SIGINT or
    ``serve stop``."""
    import asyncio

    from repro.serve import ServeDaemon

    session = _session(args)
    daemon = ServeDaemon(
        session,
        host=args.host,
        port=args.port,
        cluster=_cluster(args, session.spec),
        policy=(args.policy or ["interference"])[0],
        **({"slo": args.slo} if args.slo is not None else {}),
        replan=not args.no_replan,
        budget_s=args.budget_s,
    )

    def _announce(d: ServeDaemon) -> None:
        budget = f", budget {d.budget_s * 1e3:.0f}ms" if d.budget_s else ""
        print(
            f"serve: listening on {d.host}:{d.port} "
            f"(policy={d.scheduler.policy.name}, "
            f"slo={d.scheduler.slo:.2f}x, "
            f"replan={'on' if d.scheduler.replan else 'off'}, "
            f"machines={len(list(d.scheduler.cluster))}{budget})",
            flush=True,
        )

    asyncio.run(daemon.run(ready=_announce))
    print("serve: stopped", flush=True)
    return 0


def _client(args: argparse.Namespace):
    from repro.serve import ServeClient

    return ServeClient(args.host, args.port)


def _ask(args: argparse.Namespace, call):
    """``await call(client)`` on a fresh event loop; the client's
    keep-alive connection is closed before the loop ends."""
    import asyncio

    async def go():
        async with _client(args) as client:
            return await call(client)

    return asyncio.run(go())


def _serve_submit(args: argparse.Namespace) -> int:
    """``repro serve submit <app[:threads]> [id]``: one live admission;
    exit 0 admit, 1 reject."""
    from repro.session.scenario import parse_placement

    placement = parse_placement(args.arrival, default_threads=args.threads)
    tenant = args.tenant if args.tenant is not None else placement.label
    response = _ask(
        args,
        lambda client: client.arrival(
            tenant=tenant,
            workload=placement.workload,
            threads=placement.threads,
            solo_s=args.solo_s,
        ),
    )
    if args.json:
        print(json.dumps(response, sort_keys=True))
        return 0 if response["decision"]["admitted"] else 1
    decision = response["decision"]
    verb = (
        f"admit on {decision['machine']} [{decision['variant']}]"
        if decision["admitted"]
        else f"reject ({decision['reason']})"
    )
    budget = (
        ""
        if response.get("within_budget") is None
        else (" within budget" if response["within_budget"] else " OVER BUDGET")
    )
    print(
        f"{tenant}: {verb} in {response['latency_s'] * 1e3:.2f}ms{budget}"
    )
    return 0 if decision["admitted"] else 1


def _serve_drain(args: argparse.Namespace) -> int:
    """``repro serve drain [--trace SPEC | --traffic MODEL]``: replay a
    trace open-loop against the daemon."""
    from repro.sched import ArrivalTrace, parse_trace
    from repro.serve import drain_trace

    config = _build_config(args)
    trace = _arrivals(
        args,
        lambda spec: parse_trace(spec, config.workloads),
        lambda: ArrivalTrace.synthetic(config.workloads, seed=config.seed),
    )

    async def _drain(client):
        await client.wait_ready()
        return await drain_trace(client, trace)

    result = _ask(args, _drain)
    if args.json:
        payload = {
            "report": result.report.payload(),
            "latencies": result.latencies,
            "p50_latency_s": result.p50_latency_s,
            "p95_latency_s": result.p95_latency_s,
            "budget_misses": result.budget_misses,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.render(), end="")
    return 0


def _serve_stop(args: argparse.Namespace) -> int:
    import asyncio

    client = _client(args)
    asyncio.run(client.shutdown())
    print(f"serve: asked {client.url} to stop")
    return 0


def _serve_metrics(args: argparse.Namespace) -> int:
    payload = _ask(args, lambda client: client.metrics())
    print(
        json.dumps(payload, sort_keys=True)
        if args.json
        else json.dumps(payload, indent=1, sort_keys=True)
    )
    return 0


def _with_spans(view):
    """Run a ``trace`` view over the spans recorded in
    ``<store>/telemetry`` (with ``--telemetry``); exit 1 when there are
    none."""

    def run(args: argparse.Namespace) -> int:
        from repro.telemetry.export import read_spans

        root = Path(args.store) / "telemetry"
        spans = read_spans(root)
        if not spans:
            print(
                f"no telemetry under {root} (record a run with --telemetry)",
                file=sys.stderr,
            )
            return 1
        return view(args, root, spans)

    return run


@_with_spans
def _trace_show(args: argparse.Namespace, root: Path, spans: list) -> int:
    """``repro trace show [--limit N]``."""
    shown = spans if args.limit is None else spans[: args.limit]
    if args.json:
        for span in shown:
            print(json.dumps(span, sort_keys=True))
        return 0
    base = spans[0]["ts"]
    for span in shown:
        tags = " ".join(
            f"{k}={v}" for k, v in sorted((span.get("tags") or {}).items())
        )
        print(
            f"+{span['ts'] - base:10.6f}s pid={span['pid']:<7} "
            f"{span['dur_s'] * 1e3:9.3f}ms {span['name']:<22} {tags}"
        )
    if len(shown) < len(spans):
        print(f"... {len(spans) - len(shown)} more span(s); raise --limit")
    return 0


@_with_spans
def _trace_export(args: argparse.Namespace, root: Path, spans: list) -> int:
    """``repro trace export [--format F] [--out P]``."""
    from repro.telemetry.export import (
        chrome_trace,
        metrics_snapshot,
        summarize,
        summary_rows,
    )

    fmt = args.format
    if fmt == "chrome":
        payload = json.dumps(chrome_trace(spans))
    elif fmt == "json":
        payload = json.dumps(
            {"spans": spans, "metrics": metrics_snapshot(root)},
            sort_keys=True,
        )
    else:
        payload = "\n".join(
            ",".join(row) for row in summary_rows(summarize(spans))
        )
    if args.out is not None:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {len(spans)} span(s) to {args.out} [{fmt}]")
    else:
        print(payload)
    return 0


@_with_spans
def _trace_summary(args: argparse.Namespace, root: Path, spans: list) -> int:
    """``repro trace summary [--json]``."""
    from repro.telemetry.export import render_summary, summarize

    summary = summarize(spans)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(render_summary(summary), end="")
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Execute every registered runner (or one ``--shard I/N`` slice of
    them) and freeze the campaign manifest."""
    from repro.store import parse_shard, shard_names, write_manifest

    session = _session(args)
    names = None
    if args.shard is not None:
        index, count = parse_shard(args.shard)
        names = shard_names(runner_names(), index, count)
        print(f"shard {index}/{count}: {', '.join(names)}")
        if count > 1:
            # Warm this shard's cell slice of the scenario-set sweep
            # first: the sweep splits at *cell* granularity across
            # shards, so whichever shard owns the artifact name later
            # materializes the canonical record mostly from cache hits
            # instead of re-simulating the whole sweep alone.
            slice_record = session.run("scenario-set", shard=args.shard)
            print(
                f"scenario-set shard {args.shard}: warmed "
                f"{len(slice_record.result.cells)} cell(s)"
            )
    records = session.run_all(include_extensions=True, names=names)
    for name, record in records.items():
        prov = record.provenance
        cache = prov["cache"]
        served = sum(v for k, v in cache.items() if k.endswith("hits"))
        simulated = sum(v for k, v in cache.items() if k.endswith("misses"))
        print(
            f"{name:<14} {prov['duration_s'] * 1e3:8.1f} ms   "
            f"cache: {served} served / {simulated} simulated"
        )
    if args.manifest is not None:
        manifest_path = Path(args.manifest)
    elif session.store is not None:
        manifest_path = session.store.root / "manifest.json"
    else:
        manifest_path = Path("manifest.json")
    if args.shard is not None and session.store is not None:
        # A shard only ran its slice: rebuild the manifest from the
        # store's merged index so it covers every shard finished so far
        # (the last shard's freeze covers the whole campaign).
        from repro.store import write_manifest_from_store

        manifest = write_manifest_from_store(
            session.store,
            session.config,
            manifest_path,
            executor_name=f"run-all --shard {args.shard}",
        )
        covered = len(manifest["artifacts"])
        print(f"manifest covers {covered} artifact(s) persisted so far")
    else:
        write_manifest(session, manifest_path, session.store)
    stats = session.stats
    print(
        f"{len(records)} artifacts -> {manifest_path}   "
        f"disk hits: {stats.solo_disk_hits} solo / {stats.scenario_disk_hits} scenario"
    )
    return 0


def _campaign(args: argparse.Namespace) -> int:
    """``repro campaign``: fork N workers over the runner registry, all
    sharing one store, with claim-file work stealing."""
    from repro.store import run_campaign

    config = _build_config(args)
    workers = args.workers if args.workers is not None else 2
    inner = args.executor or ("parallel" if args.parallel else None)
    summary = run_campaign(
        config,
        args.store,
        workers=workers,
        manifest_path=args.manifest,
        executor=inner,
    )
    for report in summary["workers"]:
        cache = report["cache"]
        served = sum(v for k, v in cache.items() if k.endswith("hits"))
        simulated = sum(v for k, v in cache.items() if k.endswith("misses"))
        print(
            f"worker pid={report['pid']}: {len(report['done'])} artifact(s) "
            f"[{', '.join(report['done'])}] cache: {served} served / "
            f"{simulated} simulated"
        )
    if summary["recovered"]:
        print(
            f"recovered {len(summary['recovered'])} artifact(s) re-queued "
            f"from dead worker(s): {', '.join(summary['recovered'])}"
        )
    totals = summary["cache"]
    disk = totals.get("solo_disk_hits", 0) + totals.get("scenario_disk_hits", 0)
    print(
        f"{len(summary['artifacts'])} artifacts -> {summary['manifest_path']}   "
        f"{workers} worker(s), {disk} disk hit(s) across the campaign"
    )
    return 0


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.workloads:
        names = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
    else:
        names = APPLICATIONS
    return ExperimentConfig(
        threads=args.threads,
        repetitions=args.repetitions,
        seed=args.seed,
        workloads=names,
    )


def _configure_logging(args: argparse.Namespace) -> None:
    """Map ``-q`` / ``-v`` / ``-vv`` onto stdlib logging to stderr.

    The package modules (session, store, campaign, sched) log through
    ``logging.getLogger(__name__)``; default visibility is WARNING so
    normal runs stay byte-identical on stdout.
    """
    import logging

    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _refuse(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = parse_args(argv)
    if args.quiet and args.verbose:
        # The parsers refuse -q -v on one side of the verb; this catches
        # the pair split across it (``repro -q fig5 -v``).
        return _refuse("--quiet and --verbose are mutually exclusive")
    _configure_logging(args)
    if args.store is None:
        if args.telemetry:
            # The sink lives inside the store so traces travel with the
            # campaign they describe; refuse a homeless --telemetry.
            return _refuse("--telemetry requires --store DIR")
        if args.shard is not None:
            # A shard without a shared store would freeze a silently
            # partial manifest.
            return _refuse("run-all --shard requires --store DIR")
        if args.needs_store:
            return _refuse(f"{args.needs_store!r} requires --store DIR")
    try:
        if args.telemetry:
            from repro.telemetry.tracer import enable as _telemetry_enable

            _telemetry_enable(Path(args.store) / "telemetry")
        try:
            return args.func(args)
        finally:
            if args.telemetry:
                from repro.telemetry.tracer import disable as _telemetry_disable

                _telemetry_disable()
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly (and keep
        # the interpreter from re-raising on stdout flush at shutdown).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
