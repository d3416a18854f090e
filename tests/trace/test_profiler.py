"""Tests for the trace profiler (a trace -> measured characterization).

Every stream the profiler measures here is characterized once, in the
module-scoped ``measured`` fixture.  ``GOLDEN`` pins every field of
each characterization, the LLC miss-ratio curve as a digest of its
float64 arrays, so any change to the caches, the prefetchers or the
reuse distances that moves a measured number fails here.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import IntervalEngine
from repro.errors import TraceError
from repro.machine import CoreCacheHierarchy, small_test_machine
from repro.trace import AccessBatch, TraceProfiler, concat_lines, synth, take
from repro.units import CACHE_LINE, KiB, MiB
from repro.workloads.registry import get_profile


def ip_stride_runs():
    """1000 runs of 6 constant-stride accesses, each from one of four
    IPs inside one random 4 KiB page.  Strides of 5-8 lines outrun the
    L2 streamer's 4-line run-ahead and skip the next and adjacent lines,
    so only the IP-stride prefetcher covers these accesses."""
    n_runs, run_length = 1000, 6
    rng = np.random.default_rng(0)
    strides = rng.integers(5, 9, size=n_runs)
    starts = rng.integers(0, 64 - strides * (run_length - 1))
    pages = rng.integers(0, 1 << 20, size=n_runs)
    ips = 20 + rng.integers(0, 4, size=n_runs)
    lines = (pages * 64 + starts)[:, None] + strides[:, None] * np.arange(run_length)
    n = n_runs * run_length
    return [AccessBatch(ips=np.repeat(ips, run_length), lines=lines.ravel(),
                        writes=np.zeros(n, dtype=bool), instructions=2 * n)]


def mixed():
    """Half streaming, half scattered."""
    return [*synth.sequential(2000),
            *synth.random_uniform(2000, 1 << 16, write_ratio=0.2, seed=8)]


#: name -> (trace factory, ``max_accesses``) of every stream measured.
STREAMS = {
    "sequential": (lambda: synth.sequential(8000, instructions_per_access=1.0), None),
    "sequential-cut": (lambda: synth.sequential(8000, instructions_per_access=1.0), 1000),
    "sequential-10ipa": (lambda: synth.sequential(2000, instructions_per_access=10.0), None),
    "random-wide": (lambda: synth.random_uniform(8000, 1 << 20, seed=1), None),
    "random-16": (lambda: synth.random_uniform(8000, 16, seed=2), None),
    "random-1024": (lambda: synth.random_uniform(4000, 1024, seed=9), None),
    "random-2048": (lambda: synth.random_uniform(10000, 2048, seed=5), None),
    "random-writes": (
        lambda: synth.random_uniform(4000, 256, write_ratio=0.5, seed=4), None
    ),
    "zipf": (lambda: synth.zipf(3000, 4096, seed=10), None),
    "mixed": (mixed, None),
    # The Bandit mini-benchmark's trace: every access in one LLC set.
    "conflict-chase": (
        lambda: synth.conflict_chase(
            20_000, n_sets=small_test_machine().llc.n_sets, ip=1040,
            instructions_per_access=1.2,
        ),
        None,
    ),
    "ip-stride": (ip_stride_runs, None),
}

GOLDEN = {
    "sequential": dict(
        accesses=8000, instructions=8000,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=1000.0, regularity=0.98425,
        footprint_bytes=512000.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
    "sequential-cut": dict(
        accesses=1000, instructions=1000,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=1000.0, regularity=0.983,
        footprint_bytes=64000.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
    "sequential-10ipa": dict(
        accesses=2000, instructions=20000,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=100.0, regularity=0.9835,
        footprint_bytes=128000.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
    "random-wide": dict(
        accesses=8000, instructions=16000,
        l1_miss_ratio=1.0, l2_miss_ratio=0.99975,
        l2_mpki=499.875, regularity=0.0,
        footprint_bytes=509760.0, write_fraction=0.0,
        llc_mrc="f6455606b51e2b01",
    ),
    "random-16": dict(
        accesses=8000, instructions=16000,
        l1_miss_ratio=0.002, l2_miss_ratio=1.0,
        l2_mpki=1.0, regularity=0.75,
        footprint_bytes=1024.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
    "random-1024": dict(
        accesses=4000, instructions=8000,
        l1_miss_ratio=0.941, l2_miss_ratio=0.8073857598299681,
        l2_mpki=379.875, regularity=0.7047047047047047,
        footprint_bytes=63936.0, write_fraction=0.0,
        llc_mrc="a2d984117f1dd8fd",
    ),
    "random-2048": dict(
        accesses=10000, instructions=20000,
        l1_miss_ratio=0.9667, l2_miss_ratio=0.9048308679011069,
        l2_mpki=437.35, regularity=0.040286144578313254,
        footprint_bytes=130368.0, write_fraction=0.0,
        llc_mrc="e503e64f401a0ba5",
    ),
    "random-writes": dict(
        accesses=4000, instructions=8000,
        l1_miss_ratio=0.761, l2_miss_ratio=0.08409986859395532,
        l2_mpki=32.0, regularity=0.7265625,
        footprint_bytes=16384.0, write_fraction=0.507,
        llc_mrc="774922e21bc5dfc0",
    ),
    "zipf": dict(
        accesses=3000, instructions=6000,
        l1_miss_ratio=0.5163333333333333, l2_miss_ratio=0.7120723047127179,
        l2_mpki=183.83333333333334, regularity=0.0,
        footprint_bytes=50112.0, write_fraction=0.0,
        llc_mrc="821cfafdfe760825",
    ),
    "mixed": dict(
        accesses=4000, instructions=8000,
        l1_miss_ratio=0.9995, l2_miss_ratio=0.9982491245622811,
        l2_mpki=498.875, regularity=0.49419778002018167,
        footprint_bytes=249600.0, write_fraction=0.08975,
        llc_mrc="5b0138b8618dde97",
    ),
    "conflict-chase": dict(
        accesses=20000, instructions=23999,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=833.368057002375, regularity=0.0,
        footprint_bytes=1280000.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
    "ip-stride": dict(
        accesses=6000, instructions=12000,
        l1_miss_ratio=1.0, l2_miss_ratio=1.0,
        l2_mpki=500.0, regularity=0.5,
        footprint_bytes=384000.0, write_fraction=0.0,
        llc_mrc="774922e21bc5dfc0",
    ),
}


@pytest.fixture(scope="module")
def profiler():
    return TraceProfiler(small_test_machine())


@pytest.fixture(scope="module")
def measured(profiler):
    """Every characterization the cases below read, measured once."""
    return {
        name: profiler.characterize(make(), max_accesses=cap)
        for name, (make, cap) in STREAMS.items()
    }


def run_on_core(batches, *, prefetch: bool) -> CoreCacheHierarchy:
    core = CoreCacheHierarchy(small_test_machine(), prefetch=prefetch)
    for batch in batches:
        for ip, line, write in zip(batch.ips, batch.lines, batch.writes):
            core.access(int(ip), int(line), write=bool(write))
    return core


def _mrc_digest(mrc) -> str:
    h = hashlib.sha256(mrc.capacities_bytes.tobytes())
    h.update(mrc.ratios.tobytes())
    return h.hexdigest()[:16]


class TestGolden:
    def test_every_stream_is_pinned(self):
        assert set(GOLDEN) == set(STREAMS)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_characterization_matches_golden(self, measured, name):
        char = measured[name]
        got = {f.name: getattr(char, f.name) for f in fields(char)}
        got["llc_mrc"] = _mrc_digest(char.llc_mrc)
        assert got == GOLDEN[name]


class TestCharacterize:
    def test_sequential_is_regular(self, measured):
        char = measured["sequential"]
        assert char.regularity > 0.5  # prefetchers remove most DRAM demand
        # Fresh lines every access: streaming floor of the MRC is 1.0.
        assert char.llc_mrc.compulsory_ratio == pytest.approx(1.0)

    def test_random_is_irregular(self, measured):
        assert measured["random-wide"].regularity < 0.2

    def test_small_footprint_low_l2_mpki(self, measured):
        # Working set fits in the tiny L1: almost no L2 misses after warmup.
        assert measured["random-16"].l2_mpki < 5.0

    def test_streaming_has_high_l2_mpki(self, measured):
        # Every access is a fresh line.
        assert measured["sequential"].l2_mpki > 500.0

    def test_footprint_measured(self, measured):
        # 2048 lines * 64 B = 128 KiB reach past L2 on this tiny machine.
        assert 32 * KiB < measured["random-2048"].footprint_bytes <= 128 * KiB

    def test_refs_per_kinstr(self, measured):
        assert measured["sequential-10ipa"].refs_per_kinstr == pytest.approx(
            100.0, rel=0.05
        )

    def test_write_fraction(self, measured):
        assert 0.4 < measured["random-writes"].write_fraction < 0.6

    def test_empty_trace_rejected(self, profiler):
        with pytest.raises(TraceError):
            profiler.characterize(iter([]))

    def test_regularity_is_the_dram_demand_prefetching_saves(self, measured):
        # Half streaming, half scattered: neither end of [0, 1].
        char = measured["mixed"]
        on = run_on_core(mixed(), prefetch=True).demand_bytes
        off = run_on_core(mixed(), prefetch=False).demand_bytes
        assert 0.0 < char.regularity < 1.0
        assert char.regularity == pytest.approx(1.0 - on / off)

    def test_private_ratios_match_the_core_without_prefetch(self, measured):
        char = measured["random-1024"]
        core = run_on_core(STREAMS["random-1024"][0](), prefetch=False)
        assert char.l1_miss_ratio == core.l1d.stats.miss_ratio
        assert char.l2_miss_ratio == core.l2.stats.miss_ratio
        assert char.l2_mpki == pytest.approx(
            1000.0 * core.l2.stats.misses / char.instructions
        )

    def test_max_accesses_truncates(self, measured):
        assert measured["sequential-cut"].accesses == 1000
        assert measured["sequential"].accesses == 8000

    def test_same_trace_same_characterization(self, measured):
        a = measured["zipf"]
        b = TraceProfiler(small_test_machine()).characterize(
            list(synth.zipf(3000, 4096, seed=10)), max_accesses=None
        )
        for field in ("accesses", "instructions", "l1_miss_ratio", "l2_miss_ratio",
                      "l2_mpki", "regularity", "footprint_bytes", "write_fraction"):
            assert getattr(a, field) == getattr(b, field), field
        assert np.array_equal(a.llc_mrc.capacities_bytes, b.llc_mrc.capacities_bytes)
        assert np.array_equal(a.llc_mrc.ratios, b.llc_mrc.ratios)

    def test_conflict_chase_is_unprefetchable(self, measured):
        char = measured["conflict-chase"]
        assert char.regularity == 0.0
        assert char.llc_mrc.compulsory_ratio == 1.0  # every access misses

    def test_ip_stride_runs_are_half_covered(self, measured):
        # Of each 6-access run the prefetcher covers the last three:
        # the stride repeats twice before it prefetches.
        assert 0.45 < measured["ip-stride"].regularity < 0.55

    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 14), st.booleans()),
        min_size=1, max_size=200,
    ))
    @settings(max_examples=20, deadline=None)
    def test_measured_fractions_stay_in_unit_interval(self, profiler, accesses):
        lines, writes = (np.array(col) for col in zip(*accesses))
        batch = AccessBatch(ips=np.zeros_like(lines), lines=lines, writes=writes)
        char = profiler.characterize([batch], max_accesses=None)
        for value in (char.l1_miss_ratio, char.l2_miss_ratio,
                      char.regularity, char.write_fraction):
            assert 0.0 <= value <= 1.0

    def test_mrc_reflects_working_set(self, measured):
        # 2048-line (128 KiB) working set: big allocation ~ floor,
        # tiny allocation much worse.
        mrc = measured["random-2048"].llc_mrc
        assert mrc.miss_ratio(1 * KiB) > mrc.miss_ratio(1 * MiB) + 0.2


class TestBuildProfile:
    def test_roundtrip_to_engine_profile(self, profiler):
        prof = profiler.build_profile(
            "custom-seq",
            synth.sequential(4000, instructions_per_access=4.0),
            ipc_core=2.5,
            max_accesses=4000,
        )
        assert prof.name == "custom-seq"
        assert len(prof.regions) == 1
        r = prof.regions[0]
        assert r.weight == 1.0
        assert r.ipc_core == 2.5
        assert r.regularity > 0.5
        assert prof.total_kinstr == pytest.approx(16.0, rel=0.1)

    def test_custom_kinstr_and_suite(self, profiler):
        prof = profiler.build_profile(
            "x",
            synth.random_uniform(2000, 128, seed=6),
            suite="mysuite",
            total_kinstr=500.0,
            max_accesses=2000,
        )
        assert prof.suite == "mysuite"
        assert prof.total_kinstr == 500.0


class TestEndToEndPipeline:
    def test_profile_kernel_and_corun_against_fleet(self, profiler):
        # The user workflow of examples/custom_workload.py: a trace
        # straight to an engine-ready profile that co-runs against the
        # calibrated fleet.
        profile = profiler.build_profile(
            "itest-kernel", mixed(), ipc_core=2.0, mlp=6.0, total_kinstr=1.0e8,
            max_accesses=None,
        )
        engine = IntervalEngine()
        solo = engine.solo_run(profile, threads=4)
        res = engine.co_run(profile, get_profile("Stream"),
                            fg_solo_runtime_s=solo.runtime_s)
        assert res.normalized_time >= 1.0
        benign = engine.co_run(profile, get_profile("swaptions"),
                               fg_solo_runtime_s=solo.runtime_s)
        assert benign.normalized_time < res.normalized_time + 1e-9


def trace_of(name):
    """The batches the profiler measured for stream ``name``."""
    make, cap = STREAMS[name]
    return list(take(make(), cap)) if cap is not None else list(make())


@pytest.mark.parametrize("name", sorted(STREAMS))
class TestEveryStream:
    def test_counts_match_the_trace(self, measured, name):
        char, batches = measured[name], trace_of(name)
        assert char.accesses == sum(len(b) for b in batches)
        assert char.instructions == sum(b.instructions for b in batches)
        writes = sum(int(b.writes.sum()) for b in batches)
        assert char.write_fraction == writes / char.accesses

    def test_fractions_stay_in_unit_interval(self, measured, name):
        char = measured[name]
        for value in (char.l1_miss_ratio, char.l2_miss_ratio,
                      char.regularity, char.write_fraction):
            assert 0.0 <= value <= 1.0

    def test_l2_mpki_is_the_product_of_the_miss_ratios(self, measured, name):
        # The private pass sends exactly the L1 misses to L2.
        char = measured[name]
        assert char.l2_mpki == pytest.approx(
            char.refs_per_kinstr * char.l1_miss_ratio * char.l2_miss_ratio
        )

    def test_footprint_is_every_distinct_line(self, measured, name):
        # Without prefetch a line's first touch misses L1 and L2, so
        # every distinct line reaches the L2-miss stream.
        lines = np.unique(concat_lines(trace_of(name)))
        assert measured[name].footprint_bytes == len(lines) * CACHE_LINE

    def test_llc_mrc_floors_at_the_cold_share(self, measured, name):
        # With unbounded capacity only first touches miss.
        char = measured[name]
        l2_misses = char.accesses * char.l1_miss_ratio * char.l2_miss_ratio
        distinct = char.footprint_bytes / CACHE_LINE
        assert char.llc_mrc.compulsory_ratio == pytest.approx(distinct / l2_misses)
        assert char.llc_mrc.ratios[0] <= 1.0
