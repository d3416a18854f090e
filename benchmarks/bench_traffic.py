"""Traffic replay: a 500-arrival diurnal day through the batch engine.

The ``traffic-replay`` artifact replays one generated open-loop day —
the business-hours :class:`DiurnalCurve` at a peak rate of ~40
arrivals/hour, which integrates to ~500 arrivals over 24 trace hours —
under both shipped policies.  Cold, every distinct candidate placement
is an engine-priced scenario cell (scored through ``solve_batch``);
warm, the same day must be answered entirely from the store.

Asserted unconditionally:

* the generated day is the expected ~500-arrival shape, and its peak
  hour carries at least 3x the trough hour's arrivals;
* the cold and warm replays are byte-identical, decision log included;
* the warm pass performs **zero** engine re-simulations.

The wall-clock ratio cold/warm is the headline number persisted to
``out/BENCH_traffic.json``.
"""

import json
import time

from conftest import env_workloads

from repro.core import ExperimentConfig
from repro.session import Session
from repro.store import ResultStore

WORKLOADS = env_workloads(("G-CC", "G-PR", "fotonik3d", "IRSmk", "swaptions", "nab"))

#: Peak-hour arrival rate: the business-hours curve's multipliers
#: integrate to ~12.4 effective peak hours, so 40/h yields a ~500
#: arrival day.
RATE_PER_HOUR = 40.0


def _replay(root):
    session = Session(
        ExperimentConfig(workloads=WORKLOADS, threads=4, jitter=0.0),
        store=ResultStore(root),
    )
    t0 = time.perf_counter()
    record = session.run("traffic-replay", rate=RATE_PER_HOUR)
    return time.perf_counter() - t0, record


def test_traffic_replay_store_as_warm_cache(benchmark, artifacts, tmp_path):
    root = tmp_path / "store"
    cold_s, cold = _replay(root)
    warm_s, warm = _replay(root)

    result = cold.result
    arrivals = len(result.trace.arrivals)
    assert 400 <= arrivals <= 600, arrivals

    # The diurnal shape must be visible in the replayed buckets.
    for rep in result.reports:
        peak, trough = result.peak_trough(rep.policy)
        assert trough.arrivals == 0 or peak.arrivals / trough.arrivals >= 3.0

    # Determinism: the warm replay reproduces the cold one byte for
    # byte — same trace, same hourly buckets, same decision log.
    from repro.session.registry import get_runner

    runner = get_runner("traffic-replay")
    cold_json = json.dumps(runner.encode(cold.result), sort_keys=True)
    warm_json = json.dumps(runner.encode(warm.result), sort_keys=True)
    assert cold_json == warm_json

    # The warm pass must not touch the engine: every candidate scenario
    # the policies scored was persisted by the cold pass.
    cache = warm.provenance["cache"]
    assert cache.get("solo_misses", 0) == 0
    assert cache.get("scenario_misses", 0) == 0

    cold_cache = cold.provenance["cache"]
    cells = cold_cache.get("solo_misses", 0) + cold_cache.get("scenario_misses", 0)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    artifacts(
        "traffic",
        "\n".join(
            [
                result.render(),
                f"cold replay (engine)   : {cold_s * 1e3:8.1f} ms "
                f"({arrivals} arrivals, {cells} cells simulated)",
                f"warm replay (store)    : {warm_s * 1e3:8.1f} ms "
                f"({speedup:5.2f}x; zero re-simulations)",
            ]
        ),
        cells=cells,
        wall_seconds=cold_s,
        speedup=speedup,
        extra={"arrivals": arrivals},
    )

    benchmark.pedantic(lambda: _replay(root), rounds=1, iterations=1)
