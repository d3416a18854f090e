"""Tests for the replay harness: simulated time, determinism, the
store-as-warm-cache contract, and the policy comparison itself."""

import json

import pytest

from repro.core import ExperimentConfig
from repro.errors import SchedError
from repro.machine.spec import xeon_e5_4650
from repro.sched import (
    ArrivalTrace,
    Cluster,
    PlacementEvaluator,
    ReplayReport,
    TraceEvent,
    percentile,
    replay_trace,
)
from repro.session import Session, get_runner
from repro.store import ResultStore

SPEC = xeon_e5_4650()
ROSTER = ("G-CC", "fotonik3d", "swaptions")


def make_session(store=None) -> Session:
    return Session(
        ExperimentConfig(workloads=ROSTER, threads=4, jitter=0.0), store=store
    )


def arrival(t, tid, workload="G-CC", threads=2, solo_s=5.0) -> TraceEvent:
    return TraceEvent(
        time_s=t, kind="arrival", tenant=tid,
        workload=workload, threads=threads, solo_s=solo_s,
    )


class StubEvaluator:
    """Deterministic rule-based scorer for time-model tests: alone =
    1.0, each co-resident adds 0.5."""

    def slowdowns(self, spec, placements):
        if len(placements) <= 1:
            return (1.0,) * len(placements)
        return tuple(1.0 + 0.5 * (len(placements) - 1) for _ in placements)

    def slowdowns_many(self, items):
        return [self.slowdowns(spec, placements) for spec, placements in items]


class TestReplayFromAsyncContext:
    def test_replay_trace_inside_running_event_loop(self):
        # The sync API must keep working when an event loop already owns
        # the calling thread (async caller, Jupyter) — and produce the
        # very same report it does from plain sync code.
        import asyncio

        trace = ArrivalTrace(
            (arrival(0.0, "a"), arrival(1.0, "b", workload="fotonik3d"))
        )

        def replay():
            return replay_trace(
                trace, StubEvaluator(), cluster=Cluster.homogeneous(2, SPEC)
            )

        sync_report = replay()

        async def replay_from_coroutine():
            return replay()

        async_report = asyncio.run(replay_from_coroutine())
        assert async_report == sync_report


class TestPercentile:
    def test_interpolation(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.95) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestTimeModel:
    def test_solo_tenant_runs_at_solo_speed(self):
        trace = ArrivalTrace((arrival(1.0, "a", solo_s=4.0),))
        report = replay_trace(
            trace, StubEvaluator(), cluster=Cluster.homogeneous(1, SPEC)
        )
        (o,) = report.outcomes
        assert o.status == "completed"
        assert o.achieved_slowdown == pytest.approx(1.0)
        assert o.end_s == pytest.approx(5.0)
        assert report.sim_time_s == pytest.approx(5.0)

    def test_interference_stretches_residency(self):
        # Both land on one machine; while co-resident each runs at 1.5x.
        trace = ArrivalTrace(
            (arrival(0.0, "a", solo_s=6.0), arrival(0.0, "b", solo_s=6.0))
        )
        report = replay_trace(
            trace, StubEvaluator(), cluster=Cluster.homogeneous(1, SPEC),
            policy="baseline",
        )
        a, b = report.outcomes
        # Identical work, identical interference: both finish at 9s.
        assert a.end_s == pytest.approx(9.0)
        assert b.end_s == pytest.approx(9.0)
        assert a.achieved_slowdown == pytest.approx(1.5)
        assert a.peak_slowdown == pytest.approx(1.5)
        assert a.violated and b.violated  # 1.5 >= default SLO threshold

    def test_explicit_departure_evicts_with_work_left(self):
        trace = ArrivalTrace(
            (
                arrival(0.0, "a", solo_s=100.0),
                TraceEvent(time_s=10.0, kind="departure", tenant="a"),
            )
        )
        report = replay_trace(
            trace, StubEvaluator(), cluster=Cluster.homogeneous(1, SPEC)
        )
        (o,) = report.outcomes
        assert o.status == "evicted"
        assert o.end_s == pytest.approx(10.0)
        assert o.achieved_slowdown == pytest.approx(1.0)  # ran clean so far

    def test_rejection_recorded_not_seated(self):
        trace = ArrivalTrace(
            (
                arrival(0.0, "a", threads=SPEC.n_slots, solo_s=50.0),
                arrival(1.0, "b", threads=4, solo_s=5.0),
            )
        )
        report = replay_trace(
            trace, StubEvaluator(), cluster=Cluster.homogeneous(1, SPEC),
            policy="baseline",
        )
        a, b = report.outcomes
        assert a.status == "completed"
        assert b.status == "rejected" and b.machine is None
        assert report.rejections == 1
        assert report.admitted == [a]

    def test_utilization_is_time_weighted(self):
        trace = ArrivalTrace((arrival(0.0, "a", threads=4, solo_s=8.0),))
        report = replay_trace(
            trace, StubEvaluator(), cluster=Cluster.homogeneous(1, SPEC)
        )
        # 4 of 8 slots busy for the whole replay.
        assert report.utilization == pytest.approx(0.5)


class TestDeterminismAndCache:
    def test_decision_log_byte_identical_across_sessions(self):
        trace = ArrivalTrace.synthetic(ROSTER, seed=5, arrivals=6, threads=4)
        logs = []
        for _ in range(2):
            evaluator = PlacementEvaluator(make_session())
            report = replay_trace(trace, evaluator, machines=2)
            logs.append(report.decision_log())
        assert logs[0] == logs[1]
        assert json.loads(logs[0].splitlines()[0])["policy"] == "interference"

    def test_warm_store_answers_without_engine(self, tmp_path):
        trace = ArrivalTrace.synthetic(ROSTER, seed=5, arrivals=6, threads=4)
        cold = PlacementEvaluator(make_session(ResultStore(tmp_path / "st")))
        cold_report = replay_trace(trace, cold, machines=2)
        assert cold.cache_stats()["scenario_misses"] > 0

        warm = PlacementEvaluator(make_session(ResultStore(tmp_path / "st")))
        warm_report = replay_trace(trace, warm, machines=2)
        stats = warm.cache_stats()
        assert stats.get("solo_misses", 0) == 0
        assert stats.get("scenario_misses", 0) == 0
        # And the warm replay is payload-identical to the cold one.
        assert json.dumps(warm_report.payload(), sort_keys=True) == json.dumps(
            cold_report.payload(), sort_keys=True
        )

    def test_report_payload_round_trip(self):
        trace = ArrivalTrace.synthetic(ROSTER, seed=5, arrivals=4, threads=4)
        report = replay_trace(trace, PlacementEvaluator(make_session()))
        back = ReplayReport.from_payload(report.payload())
        assert json.dumps(back.payload(), sort_keys=True) == json.dumps(
            report.payload(), sort_keys=True
        )


class TestPolicyComparison:
    def test_interference_beats_binpacker_on_canned_trace(self):
        session = make_session()
        record = session.run("sched-replay")
        comparison = record.result
        base = comparison.report("baseline")
        aware = comparison.report("interference")
        assert aware.violations < base.violations
        assert aware.p95_slowdown < base.p95_slowdown
        assert comparison.trace == ArrivalTrace.synthetic(
            ROSTER, seed=session.config.seed, arrivals=10, threads=2
        )

    def test_runner_encode_decode_round_trip(self):
        session = make_session()
        record = session.run("sched-replay", arrivals=4)
        runner = get_runner("sched-replay")
        payload = runner.encode(record.result)
        back = runner.decode(json.loads(json.dumps(payload)))
        assert json.dumps(runner.encode(back), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )
        assert "sched replay" in runner.render(back)

    def test_runner_validation(self):
        session = make_session()
        with pytest.raises(SchedError):
            session.run("sched-replay", machines=0)
        with pytest.raises(SchedError):
            session.run("sched-replay", policies=())
        with pytest.raises(SchedError):
            session.run("sched-replay", policies=("oracle",))
        comparison = session.run("sched-replay", arrivals=2).result
        with pytest.raises(SchedError):
            comparison.report("oracle")
