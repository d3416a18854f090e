"""The trace layer's one job: checking kernel-derived profiles against
the calibrated ones.

The real kernels' access streams go through the one-core cache model
(:class:`~repro.trace.TraceProfiler`).  Their measurements must agree
in *kind* with the calibrated profiles the engine runs on (absolute
values differ: the kernels run scaled-down inputs), and a kernel
profiled this way must co-run against the calibrated fleet.

``GOLDEN`` pins every field of every characterization these cases
produce, the LLC miss-ratio curves as a digest of their float64 arrays,
so any change to the caches, the prefetchers or the reuse distances
that moves a measured number fails here.
"""

import hashlib
from dataclasses import fields

import pytest

from repro.core import ExperimentConfig
from repro.engine import IntervalEngine
from repro.machine import small_test_machine
from repro.trace import TraceProfiler
from repro.units import GB
from repro.workloads.registry import get_profile, get_workload

GOLDEN = {
    "G-PR": dict(
        accesses=40000, instructions=85960,
        l1_miss_ratio=0.317475, l2_miss_ratio=0.877706906055595,
        l2_mpki=129.6649604467194, regularity=0.5240228013029316,
        footprint_bytes=325888.0, write_fraction=0.0128,
        llc_mrc="0c817c69aae310f2",
    ),
    "Stream": dict(
        accesses=30000, instructions=47712,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=628.7726358148893, regularity=0.9839333333333333,
        footprint_bytes=393216.0, write_fraction=0.4096,
        llc_mrc="0a2acf1491dbd2b8",
    ),
    "Bandit": dict(
        accesses=20000, instructions=23999,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=833.368057002375, regularity=0.0,
        footprint_bytes=1280000.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
    "blackscholes": dict(
        accesses=14336, instructions=557056,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=25.735294117647058, regularity=0.9838169642857143,
        footprint_bytes=229376.0, write_fraction=0.14285714285714285,
        llc_mrc="585e90f4f6bd65f4",
    ),
    "G-CC": dict(
        accesses=25000, instructions=60534,
        l1_miss_ratio=0.31288, l2_miss_ratio=0.24571720787522372,
        l2_mpki=31.750751643704366, regularity=0.9417273673257024,
        footprint_bytes=123008.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
    "ATIS": dict(
        accesses=25000, instructions=176896,
        l1_miss_ratio=0.88448, l2_miss_ratio=1.0,
        l2_mpki=125.0, regularity=0.9691117945007236,
        footprint_bytes=112384.0, write_fraction=0.1152,
        llc_mrc="4a1bb2b155cf727f",
    ),
    "streamcluster": dict(
        accesses=15000, instructions=44632,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=336.08173507797096, regularity=0.9829333333333333,
        footprint_bytes=140288.0, write_fraction=0.008533333333333334,
        llc_mrc="67308ddf7a400f1f",
    ),
}


class _RecordingProfiler(TraceProfiler):
    """Keeps the characterization behind the last built profile."""

    def characterize(self, trace, *, max_accesses=60_000):
        self.last = super().characterize(trace, max_accesses=max_accesses)
        return self.last


@pytest.fixture(scope="module")
def profiler():
    return _RecordingProfiler(small_test_machine())


@pytest.fixture(scope="module")
def kernel_profile(profiler):
    """The full user workflow of examples/custom_workload.py: a kernel's
    trace straight to an engine-ready profile."""
    profile = profiler.build_profile(
        "itest-kernel",
        get_workload("streamcluster").trace(max_accesses=15_000),
        ipc_core=2.0, mlp=6.0, total_kinstr=1.0e8,
        max_accesses=15_000,
    )
    return profile, profiler.last


@pytest.fixture(scope="module")
def measured(profiler, kernel_profile):
    """Every characterization the cases below read, measured once."""
    llc_sets = small_test_machine().llc.n_sets

    def char(name, max_accesses=60_000, **params):
        trace = get_workload(name, **params).trace(max_accesses=max_accesses)
        return profiler.characterize(trace, max_accesses=max_accesses)

    return {
        # Scale 4.0: the vertex array outgrows even the test machine's
        # LLC, so the irregular gather dominates DRAM traffic (as the
        # friendster input does on the real machine).
        "G-PR": char("G-PR", 40_000, scale=4.0),
        "Stream": char("Stream", 30_000, n_elems=1 << 14),
        "Bandit": char("Bandit", llc_sets=llc_sets, n_accesses=20_000),
        "blackscholes": char("blackscholes", 20_000, n_options=4096),
        "G-CC": char("G-CC", 25_000, scale=0.5),
        "ATIS": char("ATIS", 25_000),
        "streamcluster": kernel_profile[1],
    }


def _mrc_digest(mrc) -> str:
    h = hashlib.sha256(mrc.capacities_bytes.tobytes())
    h.update(mrc.ratios.tobytes())
    return h.hexdigest()[:16]


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_characterization_matches_golden(self, measured, name):
        char = measured[name]
        got = {f.name: getattr(char, f.name) for f in fields(char)}
        got["llc_mrc"] = _mrc_digest(char.llc_mrc)
        assert got == GOLDEN[name]


class TestKernelVsCalibration:
    """The measured behaviour of the real kernels must agree in *kind*
    with the calibrated profiles."""

    def test_graph_kernel_is_irregular(self, measured):
        # Note the metric difference: the profiler measures prefetch
        # *byte coverage* (graph codes still stream their edge arrays),
        # while the calibrated `regularity` is performance-effective
        # coverage — the gather is the latency bottleneck, so it is lower.
        assert measured["G-PR"].regularity < 0.65
        assert get_profile("G-PR").regions[0].regularity < 0.45

    def test_stream_kernel_is_regular(self, measured):
        assert measured["Stream"].regularity > 0.6
        assert get_profile("Stream").regions[0].regularity == 1.0

    def test_bandit_kernel_unprefetchable(self, measured):
        char = measured["Bandit"]
        assert char.regularity < 0.35
        assert char.llc_mrc.compulsory_ratio > 0.9  # every access misses

    def test_blackscholes_kernel_compute_dense(self, measured):
        assert measured["blackscholes"].refs_per_kinstr < 80  # few memory refs per kinstr
        # Calibration agrees: lowest l2_mpki in the fleet.
        assert get_profile("blackscholes").regions[0].l2_mpki < 1.0

    def test_graph_footprint_exceeds_dl_footprint(self, measured):
        assert measured["G-CC"].footprint_bytes > measured["ATIS"].footprint_bytes
        assert (
            get_profile("G-CC").regions[0].footprint_bytes
            > get_profile("ATIS").regions[0].footprint_bytes
        )


class TestEndToEndPipeline:
    def test_profile_kernel_and_corun_against_fleet(self, kernel_profile):
        profile, _ = kernel_profile
        engine = IntervalEngine()
        solo = engine.solo_run(profile, threads=4)
        res = engine.co_run(profile, get_profile("Stream"),
                            fg_solo_runtime_s=solo.runtime_s)
        assert res.normalized_time >= 1.0
        benign = engine.co_run(profile, get_profile("swaptions"),
                               fg_solo_runtime_s=solo.runtime_s)
        assert benign.normalized_time < res.normalized_time + 1e-9

    def test_experiment_config_engine_spec_propagates(self):
        from repro.machine.spec import MachineSpec
        from dataclasses import replace

        spec = MachineSpec()
        spec = replace(spec, memory=replace(spec.memory, peak_bandwidth_bytes=10 * GB))
        cfg = ExperimentConfig(workloads=("IRSmk",), spec=spec)
        res = cfg.make_engine().solo_run(get_profile("IRSmk"), threads=4)
        # Starved bus: bandwidth pinned at or below the reduced peak.
        assert res.metrics.avg_bandwidth_bytes <= 10 * GB * 1.01
