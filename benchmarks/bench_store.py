"""Persistent store: cold vs warm-store vs warm-memory Fig 5 sweep.

Quantifies what the on-disk tier buys across process restarts:

* **cold** — a fresh session, empty store: every solo and co-run is
  simulated and written behind to disk (this is PR 1's cold cost plus
  the persistence overhead);
* **warm store** — a *fresh session* over the now-populated store,
  standing in for a brand-new process: every measurement is a disk
  hit, nothing is re-simulated;
* **warm memory** — re-executing the sweep on the already-warm session
  (PR 1's in-memory fast path; the floor the disk tier aims for).

The acceptance bar: the warm-store path must decisively beat the cold
path (it replaces O(cells) engine simulations with O(cells) JSON
loads) while producing bit-identical cells.
"""

import os
import time

from repro.session import Session, get_runner
from repro.store import ResultStore


def _store_times(config, tmp_path):
    runner = get_runner("fig5")
    root = tmp_path / "bench-store"

    cold_session = Session(config, store=ResultStore(root))
    t0 = time.perf_counter()
    cold = cold_session.run("fig5").result
    cold_s = time.perf_counter() - t0

    # Fresh session over the warm store = a process restart.
    warm_session = Session(config, store=ResultStore(root))
    t0 = time.perf_counter()
    warm_store = warm_session.run("fig5").result
    warm_store_s = time.perf_counter() - t0

    # In-memory warm path: re-execute on the already-hot session,
    # bypassing the artifact-level memo.
    t0 = time.perf_counter()
    warm_memory = runner.execute(warm_session)
    warm_memory_s = time.perf_counter() - t0

    stats = warm_session.stats
    return (
        cold, warm_store, warm_memory,
        cold_s, warm_store_s, warm_memory_s,
        stats,
    )


def test_store_cold_vs_warm_store_vs_warm_memory(
    benchmark, config, artifacts, tmp_path
):
    (
        cold, warm_store, warm_memory,
        cold_s, warm_store_s, warm_memory_s,
        stats,
    ) = _store_times(config, tmp_path)

    # Correctness first: all three tiers produce the same 625 cells.
    assert len(cold.cells) == 625
    assert warm_store.cells == cold.cells
    assert warm_memory.cells == cold.cells
    # The warm session never simulated: everything came from disk.
    assert stats.solo_misses == 0 and stats.scenario_misses == 0
    assert stats.scenario_disk_hits == 625

    # A cold process over a warm store must clearly beat re-simulating.
    assert warm_store_s < cold_s / 2, (warm_store_s, cold_s)

    artifacts(
        "store_tiers",
        "\n".join(
            [
                "Fig 5 sweep wall-time across cache tiers (process restart = fresh session)",
                f"host CPUs              : {os.cpu_count()}",
                f"cold + write-behind    : {cold_s * 1e3:8.1f} ms",
                f"warm store (disk hits) : {warm_store_s * 1e3:8.1f} ms"
                f"  ({cold_s / warm_store_s:6.1f}x vs cold)",
                f"warm memory            : {warm_memory_s * 1e3:8.1f} ms"
                f"  ({cold_s / warm_memory_s:6.1f}x vs cold)",
                f"disk hits              : {stats.solo_disk_hits} solo, "
                f"{stats.scenario_disk_hits} pair",
            ]
        ),
    )

    # Track the warm-store restart path in the perf trajectory.
    benchmark.pedantic(
        lambda: Session(config, store=ResultStore(tmp_path / "bench-store")).run("fig5"),
        rounds=1,
        iterations=1,
    )
