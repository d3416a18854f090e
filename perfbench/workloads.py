"""The four workloads: warm-up, timed set-up, measured units and checks.

Each workload measures *units* of work from outside the program, by
timing calls into the public API of the layers it exercises:

* ``day_cold`` — one seeded traffic day replayed under both policies
  over one shared evaluator into an empty store (the engine at narrow
  batches);
* ``day_warm`` — the same kind of replay over a store warmed before
  timing starts, with a fresh session per unit (store reads and
  fingerprinting; no engine runs);
* ``sweep_cold`` — one dense campaign sweep through a single
  ``Session.run_scenarios`` call into an empty store (the engine at
  wide batches, write-only store traffic);
* ``serve_warm`` — the daemon in a subprocess over a warm store, driven
  by one in-order client (HTTP, connection set-up, the daemon lock).

A unit records its wall time, the operations it completed and the
``perf_counter`` window it ran in, so a traced re-run of the same unit
can attribute that window to layers.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.sched.scheduler as sched_mod
from inputs import (
    CONFIG,
    MACHINES,
    POLICIES,
    digest,
    input_seed,
    make_day,
    make_sweep,
)
from serve_harness import (
    LIMIT_S,
    REQUEST_TIMEOUT_S,
    DaemonProcess,
    InProcessDaemon,
    drive,
    warm_in_process,
)

from repro.sched import PlacementEvaluator
from repro.serve import ServeClient
from repro.session import Session
from repro.store import ResultStore
from repro.store.codec import encode_scenario_result
from repro.traffic import DiurnalCurve

#: Sweep cells re-solved on the scalar path per ``sweep_cold`` run.
SCALAR_SAMPLE = 24


@dataclass
class Unit:
    """One measured unit of a workload."""

    wall_s: float
    ops: int
    lo: float
    hi: float
    #: Session cache counters summed over the unit's sessions.
    stats: dict = field(default_factory=dict)
    bytes_written: int = 0


def _misses(stats: dict) -> int:
    return sum(v for k, v in stats.items() if k.endswith("_misses"))


def _dir_bytes(root: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for f in files:
            try:
                total += os.stat(os.path.join(dirpath, f)).st_size
            except FileNotFoundError:  # a writer's temp file renamed away
                pass
    return total


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1]."""
    vs = sorted(values)
    pos = (len(vs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vs) - 1)
    return vs[lo] + (vs[hi] - vs[lo]) * (pos - lo)


#: Tail percentiles tried, highest first.
_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def tail(values: "list[float]") -> "tuple[str, float]":
    """The highest percentile with at least 10 samples beyond it, as
    ``(label, value)``; the maximum when there are too few samples."""
    n = len(values)
    for q in _LADDER:
        if n * (1.0 - q) >= 10:
            return f"p{q * 100:g}", percentile(values, q)
    return "max", max(values)


class Workload:
    """Common shape: ``warmup`` (untimed) then ``prepare`` (timed set-up,
    repeatable) then units until the run's seconds are spent."""

    name = ""
    #: What ``ops_per_s`` counts on this workload.
    op = ""
    #: Whether ``latency_*`` are per-request latencies (serve) rather
    #: than per-operation time amortized over a unit.
    per_request_latency = False

    def __init__(self, seed: int, seconds: float, root: Path, work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work
        self.warmup_s = 0.0
        self.generate_s: list[float] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.digests: dict[str, str] = {}
        self.sim: list[float] = []
        self.violations: list[int] = []
        #: Set for traced units, which also count the bytes a unit writes.
        self.tracing = False
        self._stores = 0

    # -- helpers ------------------------------------------------------------

    def _store(self) -> Path:
        self._stores += 1
        path = self.work / f"store-{self._stores}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _day(self, j: int):
        t0 = time.perf_counter()
        day = make_day(input_seed(self.seed, j))
        self.generate_s.append(time.perf_counter() - t0)
        return day

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def record_digest(self, key: str, value: str) -> None:
        """Remember an output digest; a repeat of the same input must
        give the same bytes."""
        seen = self.digests.setdefault(key, value)
        if seen != value:
            self.check(f"{key} repeated byte for byte", False)

    # -- protocol -------------------------------------------------------------

    def warmup(self) -> None:
        """Untimed preparation that set-up cannot repeat cheaply."""

    def prepare(self, i: int) -> None:
        """Get ready for unit ``i`` (timed as set-up for unit 0)."""
        raise NotImplementedError

    def unprepare(self) -> None:
        """Undo :meth:`prepare` between repeated set-ups (untimed)."""

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every unit."""

    def close(self) -> None:
        """Release what the run holds (processes); safe to repeat."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def sim_p95(self) -> float:
        """Of the run's first input, so it depends on the seed alone."""
        return self.sim[0]


# -- the traffic days -----------------------------------------------------------


class _Day(Workload):
    op = "decisions"

    def _replay(self, day, root: Path) -> Unit:
        session = Session(CONFIG, store=ResultStore(root))
        evaluator = PlacementEvaluator(session)
        before = _dir_bytes(root) if self.tracing else 0
        t0 = time.perf_counter()
        reports = [
            sched_mod.replay_trace(day, evaluator, machines=MACHINES, policy=p)
            for p in POLICIES
        ]
        t1 = time.perf_counter()
        payload = [r.payload() for r in reports]
        inter = reports[POLICIES.index("interference")]
        self.sim.append(inter.p95_slowdown)
        self.violations.append(inter.violations)
        self.last_payload = payload
        return Unit(
            wall_s=t1 - t0,
            ops=len(POLICIES) * len(day.arrivals),
            lo=t0,
            hi=t1,
            stats=evaluator.cache_stats(),
            bytes_written=_dir_bytes(root) - before if self.tracing else 0,
        )


class DayCold(_Day):
    name = "day_cold"

    def prepare(self, i: int) -> None:
        self.day = self._day(i)
        self.root_i = self._store()
        ResultStore(self.root_i)

    def unit(self, i: int) -> Unit:
        u = self._replay(self.day, self.root_i)
        self.record_digest(f"day:{input_seed(self.seed, i)}", digest(self.last_payload))
        shutil.rmtree(self.root_i, ignore_errors=True)
        return u


class DayWarm(_Day):
    name = "day_warm"

    def warmup(self) -> None:
        self.warm_root = self._store()
        t0 = time.perf_counter()
        self._replay(make_day(input_seed(self.seed, 0)), self.warm_root)
        self.warmup_s = time.perf_counter() - t0
        self.expected = digest(self.last_payload)
        self.record_digest(f"day:{input_seed(self.seed, 0)}", self.expected)
        self.sim.clear()
        self.violations.clear()

    def prepare(self, i: int) -> None:
        if i == 0:
            self.day = self._day(0)
        # A fresh session per unit (built by the unit): every answer
        # comes from disk, none from a previous unit's memory.
        ResultStore(self.warm_root)

    def unit(self, i: int) -> Unit:
        u = self._replay(self.day, self.warm_root)
        same = digest(self.last_payload) == self.expected
        misses = _misses(u.stats)
        if i == 0 or not same:
            self.check("warm replay == cold replay, byte for byte", same)
        if i == 0 or misses:
            self.check("warm replay ran the engine 0 times (Session.stats)",
                       misses == 0, f"{misses} miss(es)")
        return u


# -- the campaign sweep --------------------------------------------------------------


class SweepCold(Workload):
    name = "sweep_cold"
    op = "cells"

    def prepare(self, i: int) -> None:
        self.sweep = make_sweep(input_seed(self.seed, i))
        self.root_i = self._store()
        self.session = Session(CONFIG, store=ResultStore(self.root_i))

    def unit(self, i: int) -> Unit:
        t0 = time.perf_counter()
        results = self.session.run_scenarios(self.sweep)
        t1 = time.perf_counter()
        encoded = [encode_scenario_result(r.result) for r in results]
        self.record_digest(f"sweep:{input_seed(self.seed, i)}", digest(encoded))
        times = [r.result.normalized_time for r in results]
        self.sim.append(percentile(times, 0.95))
        if i == 0:
            rng = random.Random(input_seed(self.seed, 0))
            picks = sorted(rng.sample(range(len(encoded)), SCALAR_SAMPLE))
            self.sample = [(self.sweep[k], encoded[k]) for k in picks]
        u = Unit(t1 - t0, len(results), t0, t1, self.session.stats.snapshot(),
                 _dir_bytes(self.root_i) if self.tracing else 0)
        shutil.rmtree(self.root_i, ignore_errors=True)
        return u

    def finish(self) -> None:
        # Re-solve a seeded sample of the first sweep on the scalar path.
        scalar = Session(CONFIG, engine_batch=False).run_scenarios(
            [scenario for scenario, _ in self.sample]
        )
        bad = [
            scenario.label
            for (scenario, batched), res in zip(self.sample, scalar)
            if encode_scenario_result(res.result) != batched
        ]
        self.check(
            f"{SCALAR_SAMPLE} sampled cells re-solved on the scalar path match "
            "bit for bit", not bad, ", ".join(bad[:3]),
        )


# -- the serve daemon ----------------------------------------------------------------


class ServeWarm(Workload):
    name = "serve_warm"
    op = "requests"
    per_request_latency = True

    def warmup(self) -> None:
        self.warm_root = self._store()
        t0 = time.perf_counter()
        session = Session(CONFIG, store=ResultStore(self.warm_root))
        self.expected = warm_in_process(make_day(input_seed(self.seed, 0)), session)
        self.warmup_s = time.perf_counter() - t0
        self.record_digest(f"serve:{input_seed(self.seed, 0)}", digest(self.expected))
        self.daemon: "DaemonProcess | None" = None
        self.child_rss_mb = 0.0
        self.passes: list[dict] = []

    def _stop_daemon(self) -> None:
        if self.daemon is None:
            return
        code, out = self.daemon.stop()
        self.daemon = None
        if code != 0 or "serve: stopped" not in out:
            self.check("daemon stopped cleanly on SIGTERM", False, f"exit {code}")
        self.child_rss_mb = max(
            self.child_rss_mb,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        )

    def prepare(self, i: int) -> None:
        """Every pass gets a freshly started daemon (and so the same
        decisions); starting the first one is the timed set-up."""
        if i == 0:
            self.day = self._day(0)
        self.daemon = DaemonProcess(self.root, self.warm_root, self.work / "daemon.log")
        self.daemon.start()

    def unprepare(self) -> None:
        self._stop_daemon()

    def close(self) -> None:
        self._stop_daemon()

    def run_pass(self, port: int) -> dict:
        """Drive the day through a daemon on ``port``; returns the
        records, the burst window, the decision log and ``/metrics``."""
        client = ServeClient(port=port, timeout=REQUEST_TIMEOUT_S)

        async def go():
            records, start, lo = await drive(
                client, self.day, n_paced=len(self.day.arrivals) // 2,
                hour_s=DiurnalCurve.business_hours(60.0).sim_s_per_hour,
                deadline_s=60.0,
            )
            hi = time.perf_counter()
            decisions = (await client.decisions())["decisions"]
            metrics = await client.metrics()
            return {"records": records, "start": start, "lo": lo, "hi": hi,
                    "decisions": decisions, "metrics": metrics}

        p = asyncio.run(go())
        same = digest(p["decisions"]) == digest(self.expected)
        misses = _misses(p["metrics"]["cache"])
        if not same or not self.passes:
            self.check("daemon decision log == in-process run, byte for byte", same)
        if misses or not self.passes:
            self.check("warm daemon ran the engine 0 times (/metrics cache)",
                       misses == 0, f"{misses} miss(es)")
        return p

    @staticmethod
    def summarize(p: dict) -> Unit:
        """The pass's back-to-back phase as a unit."""
        burst = [r for r in p["records"] if r.phase == "burst"]
        return Unit(p["hi"] - p["lo"], len(burst), p["lo"], p["hi"],
                    p["metrics"]["cache"])

    def unit(self, i: int) -> Unit:
        p = self.run_pass(self.daemon.port)
        self._stop_daemon()
        if not self.passes:
            worst = [
                max(r.decision["predicted"]) for r in p["records"]
                if r.kind == "arrival" and r.admitted and r.decision["predicted"]
            ]
            self.sim.append(percentile(worst, 0.95))
        self.passes.append(p)
        return self.summarize(p)

    def in_process_pass(self) -> dict:
        """A pass against a daemon hosted in this process."""
        host = InProcessDaemon(Session(CONFIG, store=ResultStore(self.warm_root)))
        host.start()
        try:
            return self.run_pass(host.port)
        finally:
            host.stop()

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def records(self) -> dict:
        """Client-side figures of the measured passes (in seconds)."""
        recs = [r for p in self.passes for r in p["records"]]
        paced = [r for r in recs if r.phase == "paced" and r.kind == "arrival"]
        ok = [r for r in paced if r.error is None]
        arrivals_ok = [r for r in recs if r.kind == "arrival" and r.error is None]
        return {
            "latency": [r.latency_s for r in ok],
            "within": sum(r.latency_s <= LIMIT_S for r in ok) / max(len(paced), 1),
            "rtt": [r.run_time_s for r in arrivals_ok],
            "daemon": [r.daemon_s for r in arrivals_ok],
            "late": [r.late_s for r in recs if r.phase == "paced"],
            "errors": sum(r.error is not None for r in recs),
            "requests": len(recs),
            "engine_misses": sum(_misses(p["metrics"]["cache"]) for p in self.passes),
        }


WORKLOADS = {w.name: w for w in (DayCold, DayWarm, SweepCold, ServeWarm)}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
