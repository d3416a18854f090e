"""Tests for the workload registry and the calibrated profile table."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.trace import concat_lines, total_accesses
from repro.units import GB, MiB
from repro.workloads.base import Workload
from repro.workloads.calibration import (
    APPLICATIONS,
    MINI_BENCHMARKS,
    SUITES,
    all_profiles,
    calibrated_profile,
)
from repro.workloads.registry import (
    get_profile,
    get_workload,
    list_workloads,
    suite_of,
)


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

    def test_paper_regions_present(self):
        # The source regions the paper names (Figs 9/10, Table IV).
        assert get_profile("P-PR").regions[0].region.label == "pagerank.c:63-66"
        assert get_profile("G-PR").regions[0].region.label == "pagerank.c:63-70"
        assert get_profile("fotonik3d").regions[0].region.name == "UUS"


#: sha256 (first 16 hex digits) of each kernel's whole default trace at
#: seed 0: every batch's ips, lines and writes arrays, its length, its
#: instruction count and its region, in order (see ``_trace_digest``).
TRACE_DIGESTS = {
    "G-BC": "c4713aea2216e8b6",
    "G-BFS": "1ab4231510dcb837",
    "G-CC": "e4dd577e4d7c7e4f",
    "G-PR": "bfba5b6ca5f43461",
    "G-SSSP": "df2f8788280a263b",
    "P-CC": "7b1fb8c0e4cd70f8",
    "P-PR": "101f763d33899644",
    "P-SSSP": "b9c1b2e6391b2f65",
    "CIFAR": "76e6f830c792a089",
    "MNIST": "d066274aaf8f5a16",
    "LSTM": "67a537ee97604769",
    "ATIS": "252a82303da5c96c",
    "blackscholes": "0862ca5c63cd5029",
    "freqmine": "e342d6c0a532a21d",
    "swaptions": "8874b815e2ba9093",
    "streamcluster": "3e1fa4428f20869e",
    "lulesh": "14bb246f0efc3161",
    "IRSmk": "7683ee7b19f0183b",
    "AMG2006": "a66496eb0df1f65c",
    "cactuBSSN": "4975aba6a8e9a58e",
    "xalancbmk": "b9921f05d563e947",
    "deepsjeng": "283e4273ad3c5207",
    "fotonik3d": "b12ba918907b7cda",
    "mcf": "a7c0a1bc37051488",
    "nab": "58e8592e4a72d3e4",
    "Bandit": "a283eda7dd213bc9",
    "Stream": "9ffcaaa0d2a40816",
}

#: The same digests at seed 1.  Only the kernels that draw their inputs
#: from the trace seed (ATIS's tokens, freqmine's transactions and
#: mcf's, nab's, deepsjeng's and xalancbmk's inputs) differ from seed
#: 0; every other kernel's trace is fixed by its constructor.
SEED1_TRACE_DIGESTS = {
    **TRACE_DIGESTS,
    "ATIS": "fbf01d922c3caa51",
    "freqmine": "fd489c903895e41d",
    "xalancbmk": "1e6fcaf406cffb9f",
    "deepsjeng": "fb2de345d5507823",
    "mcf": "f75908c9b3017dbe",
    "nab": "46b3307e83d50597",
}


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for batch in trace:
        h.update(batch.ips.tobytes())
        h.update(batch.lines.tobytes())
        h.update(batch.writes.tobytes())
        h.update(f"{len(batch)},{batch.instructions},{batch.region};".encode())
    return h.hexdigest()[:16]


class TestFactories:
    def test_every_workload_instantiates_and_traces(self):
        digests = {}
        for name in list_workloads():
            kernel = get_workload(name)
            assert kernel.name == name
            n = total_accesses(kernel.trace(max_accesses=300))
            assert 0 < n <= 300, name
            digests[name] = _trace_digest(kernel.trace())
        assert digests == TRACE_DIGESTS

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("nope")

    def test_kwargs_forwarded(self):
        w = get_workload("blackscholes", n_options=128)
        assert w.n_options == 128


@pytest.fixture(scope="class", params=list_workloads())
def kernel_trace(request):
    """One kernel per registered name with its whole default trace
    (class-scoped, so one kernel's trace is held at a time)."""
    kernel = get_workload(request.param)
    return request.param, kernel, list(kernel.trace())


class TestKernelTraces:
    """Properties every kernel's trace keeps, checked kernel by kernel."""

    def test_kernel_is_a_trace_generator(self, kernel_trace):
        name, kernel, _ = kernel_trace
        assert kernel.name == name
        assert kernel.suite == suite_of(name)
        # ``trace()`` is defined once, on Workload; kernels only supply
        # ``_trace_batches`` and have no result-computing ``run()``.
        assert type(kernel).trace is Workload.trace
        assert not hasattr(kernel, "run")

    def test_batches_well_formed(self, kernel_trace):
        _, kernel, batches = kernel_trace
        assert batches
        for b in batches:
            assert len(b) > 0
            assert b.ips.dtype == np.int64 and b.lines.dtype == np.int64
            assert b.writes.dtype == np.bool_
            assert b.instructions >= len(b)
            assert 0 <= b.region < len(kernel.regions)
        # Every declared code region receives accesses, so the profiler
        # can attribute a phase to each.
        assert {b.region for b in batches} == set(range(len(kernel.regions)))

    def test_truncated_trace_is_a_prefix(self, kernel_trace):
        _, kernel, batches = kernel_trace
        total = sum(len(b) for b in batches)
        n = total // 3 + 1
        cut = list(kernel.trace(max_accesses=n))
        assert sum(len(b) for b in cut) == n
        assert np.array_equal(concat_lines(cut), concat_lines(batches)[:n])
        # Whole batches pass through unchanged; only the last is cut.
        assert _trace_digest(cut[:-1]) == _trace_digest(batches[: len(cut) - 1])
        last, full = cut[-1], batches[len(cut) - 1]
        assert last.region == full.region
        assert np.array_equal(last.ips, full.ips[: len(last)])
        assert np.array_equal(last.writes, full.writes[: len(last)])
        assert len(last) <= last.instructions <= full.instructions

    def test_retrace_is_identical(self, kernel_trace):
        # Generating a trace leaves the kernel as it was: a second
        # ``trace()`` on the same instance yields the same bytes.
        _, kernel, batches = kernel_trace
        assert _trace_digest(kernel.trace()) == _trace_digest(batches)

    def test_seed_one_digest(self, kernel_trace):
        name, kernel, _ = kernel_trace
        assert _trace_digest(kernel.trace(seed=1)) == SEED1_TRACE_DIGESTS[name]
