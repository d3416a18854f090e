"""The service tier's acceptance contract, tested end to end with the
real engine: a daemon drain of a trace is byte-identical to the
in-process replay of that trace, a warm store makes the second drain
engine-free (and fast), and departure re-planning measurably lowers the
p95 achieved slowdown."""

import asyncio
import json

from repro.core import ExperimentConfig
from repro.sched import PlacementEvaluator, parse_trace, replay_trace
from repro.serve import ServeClient, ServeDaemon, drain_trace
from repro.session import Session

ROSTER = ("G-CC", "fotonik3d", "swaptions")
#: Arrival+departure stream shared by every test here (8 arrivals of 2
#: threads, half departing early) — small enough to keep the cold pass
#: quick, busy enough to exercise re-planning.
TRACE_SPEC = "seed:0:8:2:0.5"
#: Warm-store per-arrival admission budget: generous against sub-ms
#: memo hits, far below any engine evaluation.
WARM_BUDGET_S = 0.25


def make_session(store=None) -> Session:
    return Session(
        ExperimentConfig(workloads=ROSTER, threads=4, jitter=0.0), store=store
    )


def drain(session, trace, **daemon_kw):
    """One daemon lifetime: start on an ephemeral port, drain the trace
    through the remote port, shut down."""

    async def go():
        daemon = ServeDaemon(session, port=0, **daemon_kw)
        await daemon.start()
        async with ServeClient(daemon.host, daemon.port, timeout=120.0) as client:
            try:
                return await drain_trace(client, trace)
            finally:
                await daemon.shutdown()

    return asyncio.run(go())


class TestDrainMatchesReplay:
    def test_daemon_drain_byte_identical_to_in_process_replay(self, tmp_path):
        trace = parse_trace(TRACE_SPEC, ROSTER)
        remote = drain(make_session(tmp_path / "daemon-store"), trace)
        local = replay_trace(
            trace,
            PlacementEvaluator(make_session(tmp_path / "local-store")),
            machines=2,
            policy="interference",
            replan=True,
        )
        assert remote.report.decision_log() == local.decision_log()
        assert json.dumps(remote.report.payload(), sort_keys=True) == json.dumps(
            local.payload(), sort_keys=True
        )
        assert len(remote.latencies) == 8

    def test_warm_drain_engine_free_within_budget(self, tmp_path):
        trace = parse_trace(TRACE_SPEC, ROSTER)
        store = tmp_path / "store"
        cold = drain(make_session(store), trace)
        warm_session = make_session(store)
        warm = drain(
            warm_session, trace, budget_s=WARM_BUDGET_S
        )
        # Byte-identical decisions — and the whole report with them.
        assert warm.report.decision_log() == cold.report.decision_log()
        assert json.dumps(warm.report.payload(), sort_keys=True) == json.dumps(
            cold.report.payload(), sort_keys=True
        )
        # Zero engine re-simulations: every candidate evaluation of the
        # warm drain came out of the store the cold drain populated.
        stats = warm_session.stats.snapshot()
        assert stats["scenario_misses"] == 0
        assert stats["scenario_disk_hits"] + stats["scenario_hits"] > 0
        # And the admission path is fast enough to live under a budget.
        assert warm.p95_latency_s < WARM_BUDGET_S
        assert warm.budget_misses == 0

    def test_replan_lowers_p95_versus_no_replan(self, tmp_path):
        trace = parse_trace("seed:0:10:2:0.5", ROSTER)
        session = make_session(tmp_path / "store")
        with_replan = drain(session, trace, replan=True)
        without = drain(make_session(tmp_path / "store"), trace, replan=False)
        assert with_replan.report.replans >= 1
        assert without.report.replans == 0
        assert (
            with_replan.report.p95_slowdown < without.report.p95_slowdown
        )
