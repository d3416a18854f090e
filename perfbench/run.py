"""perfbench — the repository's benchmark of the admission and sweep paths.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload day_warm --seed 3 --seconds 12 --trace 0

``--workload`` is one of ``day_cold``, ``day_warm``, ``sweep_cold`` and
``serve_warm`` (see ``perfbench/README.md``).  The run generates its
inputs from ``--seed``, warms what it must, times its set-up, measures
units of work for about ``--seconds`` seconds and checks the program's
outputs.  It prints a table of every metric with its unit, an ``env``
record, and as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run then repeats its first units with span wrappers
installed and reports the per-layer metrics instead.  A failed output
check exits 1; a run that cannot start (no program to import) exits 2
without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is repeated this many times; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Units re-run with tracing on, at most.
TRACE_UNITS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("day_cold", "day_warm", "sweep_cold", "serve_warm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> float:
    """Import the program's layers from ``src/``; returns the seconds it
    took (part of ``setup_s``: every fresh process pays it)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import repro
    import repro.engine  # noqa: F401
    import repro.sched  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.session  # noqa: F401
    import repro.store  # noqa: F401
    import repro.traffic  # noqa: F401

    took = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    return took


def env_record() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
    }


def measure(w, seconds: float) -> list:
    """Units of ``w`` (already prepared for unit 0) for about
    ``seconds``."""
    start = time.perf_counter()
    gc.collect()  # no earlier garbage is collected inside a unit
    units = [w.unit(0)]
    # Read after the first unit, so the figure does not grow with the
    # number of units a run fits in.
    w.rss_mb = w.peak_rss_mb()
    last = time.perf_counter() - start
    # Start another unit only if it should end within ``seconds``.
    while time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        w.prepare(len(units))
        gc.collect()
        units.append(w.unit(len(units)))
        last = time.perf_counter() - t0
    return units


def end_to_end(w, units, setup_s: float, notes: dict) -> dict:
    from workloads import percentile

    rates = [u.ops / u.wall_s for u in units]
    if w.per_request_latency:
        lat = [x * 1e3 for x in w.records()["latency"]]
        notes["latency"] = f"due time to response, {len(lat)} paced arrivals"
    else:
        lat = [u.wall_s / u.ops * 1e3 for u in units]
        notes["latency"] = f"ms per {w.op[:-1]}, one sample per unit, {len(lat)} unit(s)"
    notes["ops_per_s"] = f"{w.op} per second, median of {len(rates)} unit(s)"
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": percentile(lat, 0.5),
        "peak_rss_mb": w.rss_mb,
        "sim_p95_slowdown": w.sim_p95(),
    }


def traced(w, units: list) -> "tuple[dict, dict]":
    """Re-run the first units with wrappers installed; returns the
    per-layer metrics (per unit) and notes."""
    import tracing
    from workloads import percentile, tail

    rec = tracing.Recorder()
    main = threading.get_ident()
    w.tracing = True
    if w.name == "serve_warm":
        ref = w.in_process_pass()
        tracing.install(rec)
        try:
            run = w.in_process_pass()
        finally:
            rec.uninstall()
        rec.adopt_orphans(main)
        t_units, r_units = [w.summarize(run)], [w.summarize(ref)]
        # Self times cover the whole pass; coverage its burst phase.
        pass_layers, _ = rec.self_times(run["start"], run["hi"])
    else:
        t_units, r_units = [], units[:TRACE_UNITS]
        tracing.install(rec)
        try:
            for i in range(len(r_units)):
                w.prepare(i)
                t_units.append(w.unit(i))
        finally:
            rec.uninstall()
        pass_layers = None
    n = len(t_units)
    covered = 0.0
    layers: dict = {}
    for u in t_units:
        lay, cov = rec.self_times(u.lo, u.hi)
        covered += cov
        for k, v in lay.items():
            layers[k] = layers.get(k, 0.0) + v
    coverage = covered / sum(u.wall_s for u in t_units)
    if pass_layers is not None:
        layers = pass_layers
    c = rec.counts
    stats: dict = {}
    for u in t_units:
        for k, v in u.stats.items():
            stats[k] = stats.get(k, 0) + v
    mem = sum(v for k, v in stats.items() if k.endswith("_hits") and "disk" not in k)
    disk = sum(v for k, v in stats.items() if k.endswith("_disk_hits"))
    sim = sum(v for k, v in stats.items() if k.endswith("_misses"))
    looks = max(mem + disk + sim, 1)
    decide = [x * 1e3 for x in rec.durations("sched.arrival", "interference")]
    decide_label, decide_tail = tail(decide) if decide else ("-", 0.0)
    notes: dict = {}

    out = {
        "engine.calls": c["engine.calls"] / n,
        "engine.cells": c["engine.cells"] / n,
        "engine.cells_per_call": c["engine.cells"] / max(c["engine.calls"], 1),
        "engine.self_s": layers.get("engine.self_s", 0.0) / n,
        "engine.solo_calls": c["engine.solo_calls"] / n,
        "store.get_calls": c["store.get_calls"] / n,
        "store.get_s": layers.get("store.get_s", 0.0) / n,
        "store.get_hit_ratio": c["store.get_hits"] / max(c["store.get_calls"], 1),
        "store.put_calls": c["store.put_calls"] / n,
        "store.put_s": layers.get("store.put_s", 0.0) / n,
        "store.bytes_written": sum(u.bytes_written for u in t_units) / n,
        "session.calls": c["session.calls"] / n,
        "session.cells": c["session.cells"] / n,
        "session.self_s": layers.get("session.self_s", 0.0) / n,
        "session.memory_hit_ratio": mem / looks,
        "session.disk_hit_ratio": disk / looks,
        "session.cells_simulated": sim / n,
        "sched.score_calls": c["sched.score_calls"] / n,
        "sched.score_self_s": layers.get("sched.score_self_s", 0.0) / n,
        "sched.memo_ratio": (
            1.0 - c["sched.layouts_priced"] / c["sched.layouts_asked"]
            if c["sched.layouts_asked"] else 0.0
        ),
        "sched.decide_calls": c["sched.decide_calls"] / n,
        "sched.decide_self_s": layers.get("sched.decide_self_s", 0.0) / n,
        "sched.decide_p50_ms": percentile(decide, 0.5) if decide else 0.0,
        "sched.decide_tail_ms": decide_tail,
        "sched.depart_calls": c["sched.depart_calls"] / n,
        "sched.depart_s": layers.get("sched.depart_s", 0.0) / n,
        "sched.slo_violations": (
            sum(w.violations) / len(w.violations) if w.violations else 0.0
        ),
        "driver.self_s": layers.get("driver.self_s", 0.0) / n,
        "serve.self_s": layers.get("serve.self_s", 0.0) / n,
        "traffic.generate_s": statistics.median(w.generate_s) if w.generate_s else 0.0,
        "trace.coverage": coverage,
        "trace.overhead": sum(u.wall_s for u in t_units) / sum(u.wall_s for u in r_units),
    }
    serve = dict.fromkeys(
        ("serve.rtt_p50_ms", "serve.daemon_p50_ms", "serve.overhead_p50_ms",
         "serve.late_tail_ms", "serve.admit_tail_ms", "serve.within_limit", "serve.requests",
         "serve.errors", "serve.engine_misses"), 0.0)
    if w.name == "serve_warm":
        r = w.records()
        over = [a - b for a, b in zip(r["rtt"], r["daemon"])]
        late_label, late_tail = tail(r["late"])
        admit_label, admit_tail = tail(r["latency"])
        notes["serve.late_tail_ms"] = f"{late_label} of {len(r['late'])} samples"
        notes["serve.admit_tail_ms"] = f"{admit_label} of {len(r['latency'])} samples"
        serve.update({
            "serve.rtt_p50_ms": percentile(r["rtt"], 0.5) * 1e3,
            "serve.daemon_p50_ms": percentile(r["daemon"], 0.5) * 1e3,
            "serve.overhead_p50_ms": percentile(over, 0.5) * 1e3,
            "serve.late_tail_ms": late_tail * 1e3,
            "serve.admit_tail_ms": admit_tail * 1e3,
            "serve.within_limit": r["within"],
            "serve.requests": r["requests"],
            "serve.errors": r["errors"],
            "serve.engine_misses": r["engine_misses"],
        })
    out.update(serve)
    notes["traced_units"] = n
    notes["sched.decide_tail_ms"] = f"{decide_label} of {len(decide)} samples"
    rec.write(HERE / "out" / f"spans-{w.name}-seed{w.seed}.jsonl")
    return out, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    env = env_record()
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ROOT, work)
    try:
        w.warmup()
        setups = []
        for r in range(SETUP_REPEATS):
            if r:
                w.unprepare()
            t0 = time.perf_counter()
            w.prepare(0)
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        units = measure(w, args.seconds)
        w.finish()
        notes: dict = {}
        metrics = end_to_end(w, units, setup_s, notes)
        if args.trace:
            metrics, tnotes = traced(w, units)
            notes.update(tnotes)
    finally:
        w.close()
        shutil.rmtree(work, ignore_errors=True)

    committed = json.loads((HERE / "digests.json").read_text())
    unpinned = []
    for key, value in sorted(w.digests.items()):
        if key in committed:
            w.check(f"{key} output matches the committed digest", committed[key] == value,
                    f"got {value[:12]}, committed {committed[key][:12]}")
        else:
            unpinned.append(key)
    correct = all(ok for _, ok, _ in w.checks)
    if w.name == "serve_warm":
        r = w.records()
        attempted, failed = r["requests"], r["errors"]
    else:
        attempted, failed = sum(u.ops for u in units), 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"perfbench {w.name} seed={w.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{len(units)} unit(s), warm-up {w.warmup_s:.2f} s, set-up runs "
          + ", ".join(f"{x:.4f}" for x in setups) + f" s after a {import_s:.3f} s import")
    for m in spec[kind]:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<26} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better) {note}")
    if not args.trace:
        print(f"  note: latency is {notes['latency']}")
    for name, ok, detail in w.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if unpinned:
        print(f"  digests not committed for: {', '.join(unpinned)}")
    result = {
        "workload": w.name, "seed": w.seed, "trace": args.trace, "env": env,
        "metrics": metrics, "notes": notes, "digests": w.digests,
        "checks": w.checks, "warmup_s": w.warmup_s, "setup_runs_s": setups,
        "import_s": import_s, "units": [[u.wall_s, u.ops] for u in units],
    }
    print("env " + json.dumps({"seed": w.seed, **env}, sort_keys=True))
    workloads.write_json(
        HERE / "out" / f"{w.name}-seed{w.seed}-trace{args.trace}.json", result)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec[kind]
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
