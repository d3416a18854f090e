"""Tests for the workload registry and the calibrated profile table."""

import pytest

from repro.engine import IntervalEngine
from repro.errors import WorkloadError
from repro.units import MiB
from repro.workloads.calibration import (
    APPLICATIONS,
    MINI_BENCHMARKS,
    SUITES,
    all_profiles,
    calibrated_profile,
)
from repro.workloads.registry import (
    get_all_profiles,
    get_profile,
    list_workloads,
    suite_of,
)

#: Thread count of the solo runs below (the paper's Fig 3 column).
SOLO_THREADS = 4


@pytest.fixture(scope="module")
def solo_runs():
    """Every calibrated profile run alone at ``SOLO_THREADS``, once."""
    engine = IntervalEngine()
    return {
        name: engine.solo_run(get_profile(name), threads=SOLO_THREADS).metrics
        for name in list_workloads()
    }


class TestRoster:
    def test_twenty_five_applications(self):
        assert len(APPLICATIONS) == 25

    def test_two_mini_benchmarks(self):
        assert MINI_BENCHMARKS == ("Bandit", "Stream")

    def test_suite_sizes_match_table1(self):
        sizes = {s: len(m) for s, m in SUITES.items()}
        assert sizes == {
            "GeminiGraph": 5,
            "PowerGraph": 3,
            "CNTK": 4,
            "PARSEC": 4,
            "HPC": 3,
            "SPEC CPU2017": 6,
        }

    def test_list_workloads(self):
        assert len(list_workloads()) == 27
        assert len(list_workloads(include_mini=False)) == 25

    def test_suite_of(self):
        assert suite_of("G-PR") == "GeminiGraph"
        assert suite_of("Stream") == "mini-benchmarks"
        with pytest.raises(WorkloadError):
            suite_of("nope")


class TestProfiles:
    def test_every_workload_has_profile(self):
        for name in list_workloads():
            prof = get_profile(name)
            assert prof.name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(WorkloadError):
            calibrated_profile("nope")

    def test_profiles_are_valid(self):
        # WorkloadProfile.__post_init__ validates; this asserts weights,
        # and spot-checks the headline calibration properties.
        profiles = all_profiles()
        assert len(profiles) == 27
        for prof in profiles.values():
            assert abs(sum(r.weight for r in prof.regions) - 1.0) < 1e-6

    def test_amg_has_three_phases_two_serial(self):
        prof = get_profile("AMG2006")
        assert len(prof.regions) == 3
        assert sum(1 for r in prof.regions if r.serial) == 2

    def test_atis_sync_region(self):
        prof = get_profile("ATIS")
        assert prof.sync_region_name == "kmp_hyper_barrier_release"
        assert prof.scaling.sync_cpi_coeff > 0

    def test_psssp_work_inflation(self):
        prof = get_profile("P-SSSP")
        assert prof.scaling.work_factor(8) > 2.0

    def test_bandit_tiny_footprint(self):
        prof = get_profile("Bandit")
        assert prof.regions[0].footprint_bytes < 1 * MiB

    def test_stream_full_regularity(self):
        prof = get_profile("Stream")
        assert prof.regions[0].regularity == 1.0
        assert prof.regions[0].mrc.miss_ratio(20 * MiB) == 1.0

    def test_graph_gather_is_irregular(self):
        # Performance-effective prefetch coverage: PageRank's gather is
        # the latency bottleneck, though its edge arrays stream.
        assert get_profile("G-PR").regions[0].regularity < 0.45

    def test_blackscholes_compute_dense(self):
        # Hundreds of FLOPs per touched line: few misses past L2.
        assert get_profile("blackscholes").regions[0].l2_mpki < 1.0

    def test_graph_footprint_exceeds_dl_footprint(self):
        assert (
            get_profile("G-CC").regions[0].footprint_bytes
            > get_profile("ATIS").regions[0].footprint_bytes
        )

    def test_paper_regions_present(self):
        # The source regions the paper names (Figs 9/10, Table IV).
        assert get_profile("P-PR").regions[0].region.label == "pagerank.c:63-66"
        assert get_profile("G-PR").regions[0].region.label == "pagerank.c:63-70"
        assert get_profile("fotonik3d").regions[0].region.name == "UUS"


@pytest.mark.parametrize("name", list_workloads())
class TestEveryProfile:
    def test_registered_under_its_name_and_suite(self, name):
        prof = get_profile(name)
        assert prof.name == name
        assert prof.suite == suite_of(name)
        assert get_all_profiles()[name] is prof

    def test_solo_run_retires_the_profiled_work(self, name, solo_runs):
        prof = get_profile(name)
        metrics = solo_runs[name]
        assert metrics.runtime_s > 0
        assert set(metrics.by_region) == {r.region.name for r in prof.regions}
        # Work inflation is the only thing that adds instructions.
        assert metrics.total.instructions == pytest.approx(
            prof.total_kinstr * 1000.0 * prof.scaling.work_factor(SOLO_THREADS)
        )

    def test_solo_l2_mpki_is_the_profiled_rate(self, name, solo_runs):
        # Section VI-A: private L1/L2 fix the L2 misses per instruction;
        # the LLC only sees that L2-miss traffic.
        prof = get_profile(name)
        total = solo_runs[name].total
        assert total.l2_mpki == pytest.approx(
            sum(r.weight * r.l2_mpki for r in prof.regions)
        )
        assert total.llc_mpki <= total.l2_mpki

    def test_no_region_beats_its_core_ipc(self, name, solo_runs):
        # ipc_core assumes every reference hits the private caches;
        # stalls past L2 and synchronization only add cycles.
        metrics = solo_runs[name]
        for region in get_profile(name).regions:
            achieved = metrics.by_region[region.region.name]
            assert achieved.cpi >= 1.0 / region.ipc_core - 1e-12, region.region.name
