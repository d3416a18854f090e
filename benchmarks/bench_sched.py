"""Scheduler replay: the result store as the placement cache.

The ``sched-replay`` artifact replays one seeded arrival trace under
both shipped policies, scoring every candidate placement through the
Session.  Cold, that means real engine runs for each distinct
(machine-spec, placement-rotation) cell; warm, the same replay must be
answered *entirely* from the store — the scheduler's whole value
proposition is that a campaign's measurements double as its placement
oracle.

Asserted unconditionally:

* the cold and warm comparisons are byte-identical (same decisions,
  same percentiles — determinism end to end);
* the warm pass performs **zero** engine re-simulations;
* the interference-aware policy strictly beats the slot bin-packer on
  SLO violations and p95 slowdown on this trace.

The wall-clock ratio cold/warm is the headline number persisted to
``out/BENCH_sched.json``.
"""

import json
import time

from conftest import env_workloads

from repro.core import ExperimentConfig
from repro.session import Session
from repro.store import ResultStore

WORKLOADS = env_workloads(("G-CC", "G-PR", "fotonik3d", "IRSmk", "swaptions", "nab"))


def _replay(root):
    session = Session(
        ExperimentConfig(workloads=WORKLOADS, threads=4),
        store=ResultStore(root),
    )
    t0 = time.perf_counter()
    record = session.run("sched-replay")
    return time.perf_counter() - t0, record


def test_sched_replay_store_as_warm_cache(benchmark, artifacts, tmp_path):
    root = tmp_path / "store"
    cold_s, cold = _replay(root)
    warm_s, warm = _replay(root)

    # Determinism: the warm replay reproduces the cold one byte for byte.
    from repro.session.registry import get_runner

    runner = get_runner("sched-replay")
    cold_json = json.dumps(runner.encode(cold.result), sort_keys=True)
    warm_json = json.dumps(runner.encode(warm.result), sort_keys=True)
    assert cold_json == warm_json

    # The warm pass must not touch the engine: every candidate scenario
    # the policies score was persisted by the cold pass.
    cache = warm.provenance["cache"]
    assert cache.get("solo_misses", 0) == 0
    assert cache.get("scenario_misses", 0) == 0

    # The tentpole claim: interference-aware placement beats the naive
    # slot bin-packer on tail latency and SLO violations.
    base = cold.result.report("baseline")
    aware = cold.result.report("interference")
    assert aware.violations < base.violations, (aware.violations, base.violations)
    assert aware.p95_slowdown < base.p95_slowdown, (
        aware.p95_slowdown, base.p95_slowdown,
    )

    cold_cache = cold.provenance["cache"]
    cells = cold_cache.get("solo_misses", 0) + cold_cache.get("scenario_misses", 0)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    artifacts(
        "sched",
        "\n".join(
            [
                cold.result.render(),
                f"cold replay (engine)   : {cold_s * 1e3:8.1f} ms "
                f"({cells} cells simulated)",
                f"warm replay (store)    : {warm_s * 1e3:8.1f} ms "
                f"({speedup:5.2f}x; zero re-simulations)",
            ]
        ),
        cells=cells,
        wall_seconds=cold_s,
        speedup=speedup,
    )

    benchmark.pedantic(lambda: _replay(root), rounds=1, iterations=1)
