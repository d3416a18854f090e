"""Tests for candidate enumeration and the two shipped policies.

The interference policy only needs ``evaluator.slowdowns(spec,
placements)``, so these tests drive it with a stub scorer — no engine,
no store — and reserve real simulations for the replay tests.
"""

import pytest

from repro.errors import SchedError
from repro.machine.spec import xeon_e5_4650
from repro.sched import (
    BaselinePolicy,
    Cluster,
    InterferencePolicy,
    Tenant,
    enumerate_candidates,
    get_policy,
)
from repro.sched.policy import contiguous_split

SPEC = xeon_e5_4650()


def tenant(tid="new", workload="G-CC", threads=2, solo_s=5.0) -> Tenant:
    return Tenant(tenant=tid, workload=workload, threads=threads, solo_s=solo_s)


class StubEvaluator:
    """Scores layouts by a caller-provided rule; records every call."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = []

    def slowdowns(self, spec, placements):
        self.calls.append(placements)
        return tuple(self.rule(p) for p in placements)

    def slowdowns_many(self, items):
        return [self.slowdowns(spec, placements) for spec, placements in items]


class TestEnumeration:
    def test_empty_machine_yields_only_shared(self):
        c = Cluster.homogeneous(1, SPEC)
        cands = enumerate_candidates(c, tenant())
        assert [cand.variant for cand in cands] == ["shared"]
        assert cands[0].tenants == ("new",)
        assert cands[0].placements[0].llc_ways is None

    def test_occupied_machine_yields_all_variants(self):
        c = Cluster.homogeneous(1, SPEC)
        c.machine("m0").admit(tenant("old", workload="swaptions"))
        cands = enumerate_candidates(c, tenant())
        assert [cand.variant for cand in cands] == ["shared", "cat", "pinned"]
        cat = cands[1]
        arrival_mask, resident_mask = contiguous_split(
            SPEC.llc_ways, SPEC.llc_ways - SPEC.llc_ways // 2
        )
        assert cat.arrival_placement.llc_ways == arrival_mask
        assert cat.placements[0].llc_ways == resident_mask
        pinned = cands[2]
        blocks = [p.pinning for p in pinned.placements]
        assert blocks == [(0, 1), (2, 3)]  # disjoint contiguous cores

    def test_pinned_dropped_when_cores_exhausted(self):
        c = Cluster.homogeneous(1, SPEC)
        c.machine("m0").admit(tenant("old", threads=SPEC.n_cores - 1))
        cands = enumerate_candidates(c, tenant(threads=1))
        # 7 + 1 threads fit the slots but 7 + 1 cores leave no room for
        # disjoint blocks only when the sum exceeds n_cores — here it
        # exactly fits, so pinned survives; push one past the edge:
        assert "pinned" in {cand.variant for cand in cands}
        c2 = Cluster.homogeneous(1, SPEC.smt_variant())
        c2.machine("m0").admit(tenant("old", threads=15))
        cands2 = enumerate_candidates(c2, tenant(threads=1))
        # 15 threads -> 8 cores used; arrival needs 1 more than exists.
        assert {cand.variant for cand in cands2} == {"shared", "cat"}

    def test_full_machine_yields_nothing(self):
        c = Cluster.homogeneous(1, SPEC)
        c.machine("m0").admit(tenant("old", threads=SPEC.n_slots))
        assert enumerate_candidates(c, tenant(threads=1)) == []

    def test_assignments_cover_residents_only(self):
        c = Cluster.homogeneous(1, SPEC)
        c.machine("m0").admit(tenant("old"))
        cat = enumerate_candidates(c, tenant())[1]
        assert set(cat.assignments()) == {"old"}


class TestBaselinePolicy:
    def test_best_fit_packs_before_spreading(self):
        c = Cluster.homogeneous(2, SPEC)
        c.machine("m1").admit(tenant("old", threads=4))
        evaluator = StubEvaluator(lambda p: 99.0)  # must never be consulted
        decision, cand = BaselinePolicy().decide(c, tenant(), evaluator)
        assert decision.admitted and decision.machine == "m1"
        assert decision.variant == "shared" and decision.predicted == ()
        assert cand.machine == "m1"
        assert evaluator.calls == []

    def test_no_capacity_rejects(self):
        c = Cluster.homogeneous(1, SPEC)
        c.machine("m0").admit(tenant("old", threads=SPEC.n_slots))
        decision, cand = BaselinePolicy().decide(
            c, tenant(threads=2), StubEvaluator(lambda p: 1.0)
        )
        assert not decision.admitted and decision.reason == "no-capacity"
        assert cand is None


class TestInterferencePolicy:
    def test_picks_mildest_clean_candidate(self):
        c = Cluster.homogeneous(2, SPEC)
        c.machine("m0").admit(tenant("old", workload="G-CC"))

        def rule(p):
            # Sharing with the resident is painful; CAT fences help;
            # the empty machine is interference-free.
            if p.llc_ways is not None:
                return 1.2
            return 1.4 if p.workload == "G-CC" else 1.1

        decision, cand = InterferencePolicy().decide(
            c, tenant(workload="swaptions"), StubEvaluator(rule)
        )
        assert decision.admitted
        # m1 shared scores (1.1,) — milder than any m0 layout.
        assert decision.machine == "m1" and decision.variant == "shared"
        assert decision.predicted == (1.1,)

    def test_slo_blocked_rejects(self):
        c = Cluster.homogeneous(1, SPEC)
        c.machine("m0").admit(tenant("old"))
        decision, cand = InterferencePolicy().decide(
            c, tenant(tid="n2"), StubEvaluator(lambda p: 2.0), slo=1.5
        )
        assert not decision.admitted and decision.reason == "slo-blocked"
        assert decision.candidates == 3 and cand is None

    def test_decision_payload_round_trip(self):
        from repro.sched import Decision

        c = Cluster.homogeneous(1, SPEC)
        decision, _ = InterferencePolicy().decide(
            c, tenant(), StubEvaluator(lambda p: 1.0), time_s=3.5
        )
        assert Decision.from_payload(decision.payload()) == decision


def test_get_policy_registry():
    assert get_policy("baseline").name == "baseline"
    assert get_policy("interference").name == "interference"
    with pytest.raises(SchedError):
        get_policy("oracle")
