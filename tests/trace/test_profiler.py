"""Tests for the trace profiler (kernel -> measured characterization)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.machine import CoreCacheHierarchy, small_test_machine
from repro.trace import AccessBatch, TraceProfiler, synth
from repro.units import KiB, MiB


@pytest.fixture(scope="module")
def profiler():
    return TraceProfiler(small_test_machine())


def run_on_core(batches, *, prefetch: bool) -> CoreCacheHierarchy:
    core = CoreCacheHierarchy(small_test_machine(), prefetch=prefetch)
    for batch in batches:
        for ip, line, write in zip(batch.ips, batch.lines, batch.writes):
            core.access(int(ip), int(line), write=bool(write))
    return core


class TestCharacterize:
    def test_sequential_is_regular(self, profiler):
        char = profiler.characterize(synth.sequential(8000), max_accesses=8000)
        assert char.regularity > 0.5  # prefetchers remove most DRAM demand
        # Fresh lines every access: streaming floor of the MRC is 1.0.
        assert char.llc_mrc.compulsory_ratio == pytest.approx(1.0)

    def test_random_is_irregular(self, profiler):
        char = profiler.characterize(
            synth.random_uniform(8000, 1 << 20, seed=1), max_accesses=8000
        )
        assert char.regularity < 0.2

    def test_small_footprint_low_l2_mpki(self, profiler):
        # Working set fits in the tiny L1: almost no L2 misses after warmup.
        char = profiler.characterize(
            synth.random_uniform(8000, 16, seed=2), max_accesses=8000
        )
        assert char.l2_mpki < 5.0

    def test_streaming_has_high_l2_mpki(self, profiler):
        char = profiler.characterize(
            synth.sequential(8000, instructions_per_access=1.0), max_accesses=8000
        )
        assert char.l2_mpki > 500.0  # every access is a fresh line

    def test_footprint_measured(self, profiler):
        char = profiler.characterize(
            synth.random_uniform(20000, 4096, seed=3), max_accesses=20000
        )
        # 4096 lines * 64 B = 256 KiB reach past L2 on this tiny machine.
        assert 32 * KiB < char.footprint_bytes <= 260 * KiB

    def test_refs_per_kinstr(self, profiler):
        char = profiler.characterize(
            synth.sequential(2000, instructions_per_access=10.0), max_accesses=2000
        )
        assert char.refs_per_kinstr == pytest.approx(100.0, rel=0.05)

    def test_write_fraction(self, profiler):
        char = profiler.characterize(
            synth.random_uniform(4000, 256, write_ratio=0.5, seed=4),
            max_accesses=4000,
        )
        assert 0.4 < char.write_fraction < 0.6

    def test_empty_trace_rejected(self, profiler):
        with pytest.raises(TraceError):
            profiler.characterize(iter([]))

    def test_regularity_is_the_dram_demand_prefetching_saves(self, profiler):
        # Half streaming, half scattered: neither end of [0, 1].
        batches = [*synth.sequential(2000),
                   *synth.random_uniform(2000, 1 << 16, write_ratio=0.2, seed=8)]
        char = profiler.characterize(batches, max_accesses=None)
        on = run_on_core(batches, prefetch=True).demand_bytes
        off = run_on_core(batches, prefetch=False).demand_bytes
        assert 0.0 < char.regularity < 1.0
        assert char.regularity == pytest.approx(1.0 - on / off)

    def test_private_ratios_match_the_core_without_prefetch(self, profiler):
        batches = list(synth.random_uniform(4000, 1024, seed=9))
        char = profiler.characterize(batches, max_accesses=None)
        core = run_on_core(batches, prefetch=False)
        assert char.l1_miss_ratio == core.l1d.stats.miss_ratio
        assert char.l2_miss_ratio == core.l2.stats.miss_ratio
        assert char.l2_mpki == pytest.approx(
            1000.0 * core.l2.stats.misses / char.instructions
        )

    def test_max_accesses_truncates(self, profiler):
        trace = list(synth.sequential(5000))
        assert profiler.characterize(trace, max_accesses=1000).accesses == 1000
        assert profiler.characterize(trace, max_accesses=None).accesses == 5000

    def test_same_trace_same_characterization(self, profiler):
        trace = list(synth.zipf(3000, 4096, seed=10))
        a = profiler.characterize(trace, max_accesses=None)
        b = TraceProfiler(small_test_machine()).characterize(trace, max_accesses=None)
        for field in ("accesses", "instructions", "l1_miss_ratio", "l2_miss_ratio",
                      "l2_mpki", "regularity", "footprint_bytes", "write_fraction"):
            assert getattr(a, field) == getattr(b, field), field
        assert np.array_equal(a.llc_mrc.capacities_bytes, b.llc_mrc.capacities_bytes)
        assert np.array_equal(a.llc_mrc.ratios, b.llc_mrc.ratios)

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

    def test_mrc_reflects_working_set(self, profiler):
        char = profiler.characterize(
            synth.random_uniform(30000, 2048, seed=5), max_accesses=30000
        )
        # 2048-line (128 KiB) working set: big allocation ~ floor,
        # tiny allocation much worse.
        assert char.llc_mrc.miss_ratio(1 * KiB) > char.llc_mrc.miss_ratio(1 * MiB) + 0.2


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
