"""Service tier: admission latency cold vs warm.

The ``serve`` artifact drains one seeded arrival+departure trace
through a live :class:`ServeDaemon` twice against the same store.
Cold, every admission prices its candidate placements through the
engine; warm, the daemon's session answers the identical stream of
evaluations from the store, so the admission path collapses to a
dictionary lookup plus one HTTP round trip.

Asserted unconditionally:

* the warm drain's decision log is byte-identical to the cold one
  (the daemon adds no nondeterminism over in-process replay);
* the warm drain performs **zero** engine re-simulations;
* every warm admission lands inside the per-request latency budget.

The headline numbers persisted to ``out/BENCH_serve.json`` are the
cold/warm wall-clock speedup plus admission-latency percentiles for
both passes (under ``extra``).
"""

import asyncio
import json
import time

from conftest import env_workloads

from repro.core import ExperimentConfig
from repro.sched import parse_trace
from repro.serve import ServeClient, ServeDaemon, drain_trace
from repro.session import Session
from repro.store import ResultStore

WORKLOADS = env_workloads(("G-CC", "fotonik3d", "swaptions"))
TRACE_SPEC = "seed:0:8:2:0.5"
#: Warm-pass per-admission budget (seconds): generous against memo
#: hits, far below any engine evaluation.
WARM_BUDGET_S = 0.25


def _drain(root, *, budget_s=None):
    session = Session(
        ExperimentConfig(workloads=WORKLOADS, threads=4, jitter=0.0),
        store=ResultStore(root),
    )
    trace = parse_trace(TRACE_SPEC, WORKLOADS)

    async def go():
        daemon = ServeDaemon(session, port=0, budget_s=budget_s)
        await daemon.start()
        async with ServeClient(daemon.host, daemon.port, timeout=300.0) as client:
            try:
                return await drain_trace(client, trace)
            finally:
                await daemon.shutdown()

    t0 = time.perf_counter()
    result = asyncio.run(go())
    return time.perf_counter() - t0, result, session


def test_serve_drain_admission_latency(benchmark, artifacts, tmp_path):
    root = tmp_path / "store"
    cold_s, cold, _ = _drain(root)
    warm_s, warm, warm_session = _drain(root, budget_s=WARM_BUDGET_S)

    # The daemon adds no nondeterminism over in-process replay.
    assert warm.report.decision_log() == cold.report.decision_log()
    assert json.dumps(warm.report.payload(), sort_keys=True) == json.dumps(
        cold.report.payload(), sort_keys=True
    )

    # The warm drain never touches the engine and stays under budget.
    stats = warm_session.stats.snapshot()
    assert stats["scenario_misses"] == 0
    assert warm.budget_misses == 0
    assert warm.p95_latency_s < WARM_BUDGET_S

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    artifacts(
        "serve",
        "\n".join(
            [
                warm.render(),
                f"cold drain (engine)    : {cold_s * 1e3:8.1f} ms "
                f"(admission p50 {cold.p50_latency_s * 1e3:.1f} ms, "
                f"p95 {cold.p95_latency_s * 1e3:.1f} ms)",
                f"warm drain (store)     : {warm_s * 1e3:8.1f} ms "
                f"(admission p50 {warm.p50_latency_s * 1e3:.1f} ms, "
                f"p95 {warm.p95_latency_s * 1e3:.1f} ms; {speedup:5.2f}x)",
            ]
        ),
        cells=len(warm.latencies),
        wall_seconds=cold_s,
        speedup=speedup,
        extra={
            "admission_p50_cold_s": cold.p50_latency_s,
            "admission_p95_cold_s": cold.p95_latency_s,
            "admission_p50_warm_s": warm.p50_latency_s,
            "admission_p95_warm_s": warm.p95_latency_s,
            "budget_s": WARM_BUDGET_S,
        },
    )

    benchmark.pedantic(lambda: _drain(root, budget_s=WARM_BUDGET_S), rounds=1, iterations=1)
