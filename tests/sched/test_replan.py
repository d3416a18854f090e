"""Tests for departure-time re-planning: layout enumeration, the
repartition / migrate actions, decision-log serialization, and the
synthesized departure traces that drive it all."""

import json

import pytest

from repro.core import ExperimentConfig
from repro.errors import SchedError
from repro.machine.spec import xeon_e5_4650
from repro.sched import (
    ArrivalTrace,
    Cluster,
    Decision,
    PlacementEvaluator,
    ReplanDecision,
    Scheduler,
    Tenant,
    decision_from_payload,
    enumerate_layouts,
    get_policy,
    parse_trace,
    replay_trace,
)
from repro.session import Session

SPEC = xeon_e5_4650()
ROSTER = ("G-CC", "fotonik3d", "swaptions")


def make_session(store=None) -> Session:
    return Session(
        ExperimentConfig(workloads=ROSTER, threads=4, jitter=0.0), store=store
    )


def tenant(tid, workload="G-CC", threads=2) -> Tenant:
    return Tenant(tenant=tid, workload=workload, threads=threads, solo_s=5.0)


class _StubEvaluatorBase:
    def slowdowns_many(self, items):
        return [self.slowdowns(spec, placements) for spec, placements in items]


class SharedHurtsEvaluator(_StubEvaluatorBase):
    """Unpartitioned co-residents hurt badly; any full CAT partition
    caps everyone at 1.3x — so re-partitioning is always the cleaner
    layout once somebody leaves."""

    def slowdowns(self, spec, placements):
        if len(placements) <= 1:
            return (1.0,) * len(placements)
        if all(p.llc_ways is not None for p in placements):
            return tuple(1.3 for _ in placements)
        return tuple(1.0 + 0.8 * (len(placements) - 1) for _ in placements)


class PartitionBlindEvaluator(_StubEvaluatorBase):
    """Partitioning never helps (cat ranks equal to shared), so the
    only relief for an over-SLO resident is migrating it away."""

    def slowdowns(self, spec, placements):
        if len(placements) <= 1:
            return (1.0,) * len(placements)
        return tuple(1.0 + 0.8 * (len(placements) - 1) for _ in placements)


class TestEnumerateLayouts:
    def test_fewer_than_two_residents_enumerate_nothing(self):
        cluster = Cluster.homogeneous(1, SPEC)
        machine = cluster.machine("m0")
        assert enumerate_layouts(machine) == []
        machine.admit(tenant("a"))
        assert enumerate_layouts(machine) == []

    def test_variants_cover_residents_exactly(self):
        cluster = Cluster.homogeneous(1, SPEC)
        machine = cluster.machine("m0")
        machine.admit(tenant("a"))
        machine.admit(tenant("b", workload="fotonik3d"))
        machine.admit(tenant("c", workload="swaptions"))
        layouts = enumerate_layouts(machine)
        assert [lay.variant for lay in layouts] == ["shared", "cat", "pinned"]
        for lay in layouts:
            assert lay.tenants == ("a", "b", "c")
            assert set(lay.assignments()) == {"a", "b", "c"}
        # The cat variant is a disjoint cover of the machine's ways.
        cat = layouts[1]
        masks = [p.llc_ways for p in cat.placements]
        assert all(m is not None for m in masks)
        union = 0
        for m in masks:
            assert union & m == 0
            union |= m
        assert union == (1 << SPEC.llc_ways) - 1


class TestReplanActions:
    def _two_resident_machine(self, evaluator):
        cluster = Cluster.homogeneous(2, SPEC)
        sched = Scheduler(
            cluster, get_policy("baseline"), evaluator, slo=1.5, replan=True
        )
        m0 = cluster.machine("m0")
        for tid, wl in (("a", "G-CC"), ("b", "fotonik3d"), ("c", "swaptions")):
            m0.admit(tenant(tid, workload=wl))
        return sched, cluster

    def test_departure_repartitions_when_strictly_cleaner(self):
        sched, cluster = self._two_resident_machine(SharedHurtsEvaluator())
        sched.departure("c", time_s=3.0)
        assert len(sched.decisions) == 1
        action = sched.decisions[0]
        assert isinstance(action, ReplanDecision)
        assert action.action == "repartition"
        assert action.reason == "cleaner-layout"
        assert action.machine == "m0"
        assert action.trigger == "c"
        assert action.tenants == ("a", "b")
        assert action.before == (1.8, 1.8)
        assert action.after == (1.3, 1.3)
        # The masks really landed on the residents.
        for t in cluster.machine("m0").residents():
            assert t.llc_ways is not None

    def test_repartition_is_idempotent(self):
        sched, cluster = self._two_resident_machine(SharedHurtsEvaluator())
        sched.departure("c", time_s=3.0)
        m0 = cluster.machine("m0")
        m0.admit(tenant("d", workload="G-CC"))
        # The cat layout is already in place; a second departure finds
        # nothing strictly better than re-drawing the same partition.
        before = list(sched.decisions)
        sched.departure("d", time_s=4.0)
        assert sched.decisions == before

    def test_departure_migrates_slo_violator_to_clean_seat(self):
        sched, cluster = self._two_resident_machine(PartitionBlindEvaluator())
        sched.departure("c", time_s=3.0)
        migrations = [
            d for d in sched.decisions
            if isinstance(d, ReplanDecision) and d.action == "migrate"
        ]
        assert len(migrations) == 1
        move = migrations[0]
        assert move.reason == "slo-relief"
        assert move.machine == "m0"
        assert move.target == "m1"
        assert move.tenant == "a"
        assert move.before == (1.8, 1.8)
        assert move.after == (1.0,)
        assert cluster.find("a").name == "m1"
        assert cluster.find("b").name == "m0"

    def test_no_replan_without_flag(self):
        cluster = Cluster.homogeneous(2, SPEC)
        sched = Scheduler(
            cluster, get_policy("baseline"), SharedHurtsEvaluator(), slo=1.5
        )
        m0 = cluster.machine("m0")
        for tid in ("a", "b", "c"):
            m0.admit(tenant(tid))
        sched.departure("c", time_s=3.0)
        assert sched.decisions == []

    def test_replan_under_slo_leaves_layout_alone(self):
        class Mild(PartitionBlindEvaluator):
            def slowdowns(self, spec, placements):
                if len(placements) <= 1:
                    return (1.0,) * len(placements)
                return tuple(1.1 for _ in placements)

        sched, cluster = self._two_resident_machine(Mild())
        sched.departure("c", time_s=3.0)
        assert sched.decisions == []
        assert cluster.find("a").name == "m0"


class TestUnknownWorkload:
    def test_rejected_before_deciding_and_nothing_changes(self):
        # A real evaluator: an unknown name would be priced 1.0 alone
        # and admitted onto the empty machine, then break every later
        # arrival that has to score a layout with it.
        cluster = Cluster.homogeneous(2, SPEC)
        sched = Scheduler(
            cluster, get_policy("interference"), PlacementEvaluator(make_session())
        )
        sched.arrival(tenant("a"), time_s=0.0)
        log, state = list(sched.decisions), json.dumps(cluster.payload())
        with pytest.raises(SchedError, match="unknown workload 'nope'"):
            sched.arrival(tenant("b", workload="nope"), time_s=1.0)
        assert sched.decisions == log
        assert json.dumps(cluster.payload()) == state
        assert sched.arrival(tenant("c", workload="swaptions"), time_s=2.0).admitted


class TestReplanDecisionPayload:
    def test_roundtrip_through_discriminator(self):
        action = ReplanDecision(
            time_s=3.0, policy="interference", trigger="t001",
            action="migrate", machine="m0", target="m1", tenant="t000",
            variant="shared", tenants=("t000",), before=(1.8, 1.8),
            after=(1.0,), reason="slo-relief",
        )
        payload = json.loads(json.dumps(action.payload()))
        back = decision_from_payload(payload)
        assert back == action
        assert back.admitted is False

    def test_legacy_admission_payload_decodes_unchanged(self):
        decision = Decision(
            time_s=1.0, policy="baseline", tenant="t000", workload="G-CC",
            threads=2, admitted=True, machine="m0", variant="shared",
            co_tenants=(), predicted=(), candidates=2, reason="admitted",
        )
        payload = json.loads(json.dumps(decision.payload()))
        assert "event" not in payload
        assert decision_from_payload(payload) == decision


class TestWithDepartures:
    def test_seeded_and_deterministic(self):
        base = ArrivalTrace.synthetic(ROSTER, seed=0, arrivals=10)
        a = base.with_departures(fraction=0.5, seed=3)
        b = base.with_departures(fraction=0.5, seed=3)
        assert a.payload() == b.payload()
        departures = [e for e in a.events if e.kind == "departure"]
        assert len(departures) == 5
        arrivals = {e.tenant: e for e in base.events}
        for d in departures:
            src = arrivals[d.tenant]
            # Inside the tenant's own solo residency window.
            assert src.time_s + 0.3 * src.solo_s <= d.time_s
            assert d.time_s <= src.time_s + 0.9 * src.solo_s

    def test_zero_fraction_is_identity(self):
        base = ArrivalTrace.synthetic(ROSTER, seed=0, arrivals=4)
        assert base.with_departures(fraction=0.0) is base

    def test_fraction_validated(self):
        base = ArrivalTrace.synthetic(ROSTER, seed=0, arrivals=4)
        with pytest.raises(SchedError, match="fraction"):
            base.with_departures(fraction=1.5)

    def test_parse_trace_departure_field(self):
        trace = parse_trace("seed:0:10:2:0.5", ROSTER)
        assert sum(1 for e in trace.events if e.kind == "departure") == 5
        assert trace.payload() == ArrivalTrace.synthetic(
            ROSTER, seed=0, arrivals=10, threads=2
        ).with_departures(fraction=0.5, seed=0).payload()
        with pytest.raises(SchedError, match="seed:S:N"):
            parse_trace("seed:0:10:2:lots", ROSTER)


class TestReplanReplay:
    def test_replan_strictly_improves_p95_on_departure_trace(self, tmp_path):
        trace = parse_trace("seed:0:10:2:0.5", ROSTER)
        evaluator = PlacementEvaluator(make_session(tmp_path / "store"))
        off = replay_trace(
            trace, evaluator, machines=2, policy="interference", replan=False
        )
        on = replay_trace(
            trace, evaluator, machines=2, policy="interference", replan=True
        )
        assert off.replans == 0
        assert on.replans >= 1
        assert on.p95_slowdown < off.p95_slowdown

    def test_replay_without_replan_is_bytewise_unchanged(self, tmp_path):
        # The driver refactor + replan hooks must not perturb the
        # pre-existing replay: same trace, replan off, byte-identical
        # logs whether or not anything else ran in between.
        trace = ArrivalTrace.synthetic(ROSTER, seed=1, arrivals=6)
        evaluator = PlacementEvaluator(make_session(tmp_path / "store"))
        first = replay_trace(trace, evaluator, machines=2, policy="interference")
        second = replay_trace(trace, evaluator, machines=2, policy="interference")
        assert first.decision_log() == second.decision_log()
        assert json.dumps(first.payload(), sort_keys=True) == json.dumps(
            second.payload(), sort_keys=True
        )

    def test_warm_store_replay_is_byte_identical_with_zero_engine_runs(
        self, tmp_path
    ):
        # The determinism contract end to end: the same arrival+departure
        # trace replayed twice against one store — fresh sessions, replan
        # on — must produce byte-identical decision logs, and the second
        # pass must never touch the engine (every scenario served from
        # the store the first pass populated).
        trace = parse_trace("seed:0:8:2:0.5", ROSTER)
        cold = replay_trace(
            trace,
            PlacementEvaluator(make_session(tmp_path / "store")),
            machines=2,
            policy="interference",
            replan=True,
        )
        warm_session = make_session(tmp_path / "store")
        warm = replay_trace(
            trace,
            PlacementEvaluator(warm_session),
            machines=2,
            policy="interference",
            replan=True,
        )
        assert warm.decision_log() == cold.decision_log()
        assert json.dumps(warm.payload(), sort_keys=True) == json.dumps(
            cold.payload(), sort_keys=True
        )
        stats = warm_session.stats.snapshot()
        assert stats["scenario_misses"] == 0
        assert stats["scenario_disk_hits"] + stats["scenario_hits"] > 0
