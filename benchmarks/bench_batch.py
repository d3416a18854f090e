"""Cold-sweep throughput of the batch engine vs per-cell scalar solves.

The headline shape is the consolidation table's densest cells —
``MAX_BATCH_SLOTS``-way combinations at one thread per app — where the
stacked fixed point amortizes best: every pass advances hundreds of
(cell, slot) rows through one set of numpy kernels instead of
re-entering the pure-python solver once per cell.  Solo references are
resolved once up front and shipped inside the cells, so both paths
time exactly the co-run solve (what ``Session.run_scenarios`` ships to
them after planning).

Four numbers land in BENCH_batch.json:

* the headline ``speedup`` — solver-level, dense shape, batch wall
  time best-of-three (the scalar reference is long enough to be
  stable single-shot);
* ``pairwise`` — the same comparison on fig5's 2-app shape, the
  conservative number (2 apps leave most of the array width idle);
* ``narrow`` — pair cells solved 1 and 6 per ``solve_batch`` call
  against the same cells solved by the scalar solver (best of three
  each): the width an admission decision asks for (a cold traffic day
  averages 6.4 cells per call), and the ratio a single-solver engine
  would pay on lone cells;
* ``session`` — end-to-end ``Session.run_scenarios`` cold-sweep wall
  times, where planning/cache bookkeeping (paid identically by both
  paths) dilutes the ratio.

Every batched result is asserted equal to its scalar twin before any
number is reported.
"""

import time

from conftest import env_workloads

from repro.engine import BatchCell, IntervalEngine, solve_batch
from repro.session import ScenarioSet, Session
from repro.workloads.registry import get_profile

WORKLOADS = env_workloads(
    ("G-CC", "G-PR", "fotonik3d", "IRSmk", "swaptions", "nab",
     "Stream", "Bandit", "xalancbmk")
)


def _cells(engine, sweep):
    """Sweep scenarios as BatchCells with solo references pre-resolved
    (once per workload/thread-count, like the session's solo cache)."""
    solos = {}
    cells = []
    for s in sweep:
        for p in s.placements:
            if (p.workload, p.threads) not in solos:
                solos[(p.workload, p.threads)] = engine.solo_run(
                    get_profile(p.workload), threads=p.threads
                )
        fg = solos[(s.placements[0].workload, s.placements[0].threads)]
        cells.append(
            BatchCell(
                profiles=tuple(get_profile(p.workload) for p in s.placements),
                threads=tuple(p.threads for p in s.placements),
                fg_solo_runtime_s=fg.runtime_s,
                bg_solo_rates=tuple(
                    solos[(p.workload, p.threads)].metrics.total.instructions
                    / solos[(p.workload, p.threads)].runtime_s
                    for p in s.placements[1:]
                ),
            )
        )
    return cells


def _key(res):
    return (res.normalized_time, tuple(res.bg_relative_rates))


def _scalar(engine, cells):
    return [
        engine.scenario_run(
            list(c.profiles),
            list(c.threads),
            fg_solo_runtime_s=c.fg_solo_runtime_s,
            bg_solo_rates=list(c.bg_solo_rates),
        )
        for c in cells
    ]


def _measure_solver(engine, cells):
    t0 = time.perf_counter()
    scalar = _scalar(engine, cells)
    scalar_s = time.perf_counter() - t0
    batch_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        batched = solve_batch(engine, cells)
        batch_s = min(batch_s, time.perf_counter() - t0)
    assert [_key(r) for r in batched] == [_key(r) for r in scalar]
    return scalar_s, batch_s


def _measure_narrow(engine, cells, width):
    """Scalar and batch wall times over whole groups of ``width`` cells,
    one ``solve_batch`` call per group (best of three each)."""
    groups = [cells[a : a + width] for a in range(0, len(cells) - width + 1, width)]
    used = [c for group in groups for c in group]
    scalar_s = batch_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        scalar = _scalar(engine, used)
        scalar_s = min(scalar_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched = [res for group in groups for res in solve_batch(engine, group)]
        batch_s = min(batch_s, time.perf_counter() - t0)
    assert [_key(r) for r in batched] == [_key(r) for r in scalar]
    return len(used), scalar_s, batch_s


def _measure_session(config, sweep):
    out = []
    for engine_batch in (False, True):
        session = Session(config, engine_batch=engine_batch)
        t0 = time.perf_counter()
        results = session.run_scenarios(sweep)
        out.append((time.perf_counter() - t0, [_key(r.result) for r in results]))
    (scalar_s, a), (batch_s, b) = out
    assert a == b
    return scalar_s, batch_s


def test_batch_engine_throughput(benchmark, exact_config, artifacts):
    engine = IntervalEngine(spec=exact_config.spec, config=exact_config.engine_config)
    n = min(7, max(2, len(WORKLOADS) - 1))
    dense = ScenarioSet.consolidations(WORKLOADS, n=n, threads=1)
    scalar_s, batch_s = _measure_solver(engine, _cells(engine, dense))

    pair = ScenarioSet.pairwise(WORKLOADS, threads=4)
    pair_cells = _cells(engine, pair)
    pair_scalar_s, pair_batch_s = _measure_solver(engine, pair_cells)
    narrow = {w: _measure_narrow(engine, pair_cells[:24], w) for w in (1, 6)}

    sess_scalar_s, sess_batch_s = _measure_session(exact_config, dense)

    def row(label, cells, s, b):
        return (
            f"  {label:<26} {cells:4d} cells   scalar {s * 1e3:8.1f} ms   "
            f"batch {b * 1e3:8.1f} ms   {s / b:5.1f}x"
        )

    lines = [
        f"cold sweep, scalar vs batch engine ({len(WORKLOADS)} workloads)",
        row(f"solver, {n}-way x 1 thread", len(dense), scalar_s, batch_s),
        row("solver, pairwise x 4", len(pair), pair_scalar_s, pair_batch_s),
        *(
            row(f"solver, {w} cell(s) per call", n, s, b)
            for w, (n, s, b) in narrow.items()
        ),
        row("session end-to-end", len(dense), sess_scalar_s, sess_batch_s),
    ]
    artifacts(
        "batch",
        "\n".join(lines),
        cells=len(dense),
        wall_seconds=batch_s,
        speedup=scalar_s / batch_s,
        extra={
            "shape": f"{n}-way x 1 thread",
            "scalar_seconds": round(scalar_s, 6),
            "pairwise": {
                "cells": len(pair),
                "scalar_seconds": round(pair_scalar_s, 6),
                "batch_seconds": round(pair_batch_s, 6),
                "speedup": round(pair_scalar_s / pair_batch_s, 3),
            },
            "narrow": {
                str(w): {
                    "cells": n,
                    "scalar_seconds": round(s, 6),
                    "batch_seconds": round(b, 6),
                    "speedup": round(s / b, 3),
                }
                for w, (n, s, b) in narrow.items()
            },
            "session": {
                "cells": len(dense),
                "scalar_seconds": round(sess_scalar_s, 6),
                "batch_seconds": round(sess_batch_s, 6),
                "speedup": round(sess_scalar_s / sess_batch_s, 3),
            },
        },
    )
