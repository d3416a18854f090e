"""Tests for the simulated cluster model: tenants, machines, layouts."""

import pytest

from repro.errors import SchedError
from repro.machine.spec import xeon_e5_4650
from repro.sched import Cluster, Machine, Tenant, cores_needed
from repro.session.scenario import AppPlacement

SPEC = xeon_e5_4650()


def tenant(tid="t0", workload="G-CC", threads=2, solo_s=5.0, **kw) -> Tenant:
    return Tenant(tenant=tid, workload=workload, threads=threads, solo_s=solo_s, **kw)


class TestTenant:
    def test_validation(self):
        with pytest.raises(SchedError):
            tenant(tid="")
        with pytest.raises(SchedError):
            tenant(threads=0)
        with pytest.raises(SchedError):
            tenant(solo_s=0.0)

    @pytest.mark.parametrize("field", ["solo_s", "arrival_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_times_rejected(self, field, value):
        with pytest.raises(SchedError, match="finite"):
            tenant(**{field: value})

    def test_placement_carries_partitioning(self):
        t = tenant(llc_ways=0b11, pinning=(0, 1))
        assert t.placement() == AppPlacement(
            "G-CC", 2, llc_ways=0b11, pinning=(0, 1)
        )
        bare = t.unpartitioned()
        assert bare.llc_ways is None and bare.pinning is None
        assert bare.placement() == AppPlacement("G-CC", 2)

    def test_payload_round_trip(self):
        t = tenant(llc_ways=0b1100, pinning=(2, 3), arrival_s=1.5)
        assert Tenant.from_payload(t.payload()) == t
        # Bare tenants keep the payload minimal.
        assert set(tenant().payload()) == {
            "tenant", "workload", "threads", "solo_s", "arrival_s",
        }

    def test_cores_needed(self):
        assert cores_needed(4, SPEC) == 4  # no SMT: one slot per core
        smt = SPEC.smt_variant()
        assert cores_needed(4, smt) == 2
        assert cores_needed(3, smt) == 2  # ceil


class TestMachine:
    def test_capacity_accounting(self):
        m = Machine("m0", SPEC)
        assert (m.free_slots, m.free_cores) == (SPEC.n_slots, SPEC.n_cores)
        m.admit(tenant("a", threads=4))
        m.admit(tenant("b", threads=2))
        assert m.used_slots == 6 and m.free_slots == SPEC.n_slots - 6
        assert not m.fits(tenant("c", threads=3))
        assert m.fits(tenant("c", threads=2))

    def test_admit_rejects_duplicates_and_overflow(self):
        m = Machine("m0", SPEC)
        m.admit(tenant("a", threads=4))
        with pytest.raises(SchedError):
            m.admit(tenant("a", threads=1))
        with pytest.raises(SchedError):
            m.admit(tenant("b", threads=SPEC.n_slots))

    def test_evict_clears_partitions_on_last_pair(self):
        m = Machine("m0", SPEC)
        m.admit(tenant("a", threads=2, llc_ways=0b11, pinning=(0, 1)))
        m.admit(tenant("b", threads=2, llc_ways=0b1100, pinning=(2, 3)))
        m.evict("a")
        # One resident left: masks/pins exist only to arbitrate between
        # co-residents, so the survivor is deterministically bare.
        (left,) = m.residents()
        assert left.tenant == "b"
        assert left.llc_ways is None and left.pinning is None
        with pytest.raises(SchedError):
            m.evict("a")

    def test_apply_layout_names_exactly_the_residents(self):
        m = Machine("m0", SPEC)
        m.admit(tenant("a", threads=2))
        m.admit(tenant("b", threads=2))
        m.apply_layout({"a": (0b11, None), "b": (0b1100, (0, 1))})
        assert m.tenants["a"].llc_ways == 0b11
        assert m.tenants["b"].pinning == (0, 1)
        with pytest.raises(SchedError):
            m.apply_layout({"a": (None, None)})  # missing b
        with pytest.raises(SchedError):
            m.apply_layout(
                {"a": (None, None), "b": (None, None), "x": (None, None)}
            )

    def test_placements_in_admission_order(self):
        m = Machine("m0", SPEC)
        m.admit(tenant("b", workload="swaptions", threads=1))
        m.admit(tenant("a", workload="G-CC", threads=2))
        assert m.placements() == (
            AppPlacement("swaptions", 1),
            AppPlacement("G-CC", 2),
        )


class TestCluster:
    def test_homogeneous_and_lookup(self):
        c = Cluster.homogeneous(3, SPEC)
        assert [m.name for m in c] == ["m0", "m1", "m2"]
        assert c.total_slots == 3 * SPEC.n_slots
        assert c.machine("m1").name == "m1"
        with pytest.raises(SchedError):
            c.machine("nope")
        with pytest.raises(SchedError):
            Cluster.homogeneous(0, SPEC)

    def test_find_and_used_slots(self):
        c = Cluster.homogeneous(2, SPEC)
        c.machine("m1").admit(tenant("a", threads=3))
        assert c.find("a").name == "m1"
        assert c.find("b") is None
        assert c.used_slots == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchedError):
            Cluster((Machine("m0", SPEC), Machine("m0", SPEC)))

    def test_payload_round_trip_relative_to_base_spec(self):
        c = Cluster.homogeneous(2, SPEC)
        c.machine("m0").admit(tenant("a", threads=2, llc_ways=0b11))
        smt = Machine("big", SPEC.smt_variant())
        c2 = Cluster(c.machines + (smt,))
        back = Cluster.from_payload(c2.payload(), SPEC)
        assert [m.name for m in back] == ["m0", "m1", "big"]
        assert back.machine("big").spec.hyperthreading is True
        assert back.machine("m0").tenants["a"].llc_ways == 0b11
