"""Tests for the interval engine: solo runs, scaling, co-running."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, IntervalEngine
from repro.errors import EngineError
from repro.trace import MissRatioCurve
from repro.units import KiB, MiB
from repro.workloads.base import ScalingModel
from repro.workloads.registry import get_profile

from .conftest import make_profile


@pytest.fixture(scope="module")
def engine():
    return IntervalEngine()


class TestSoloRun:
    def test_completes_with_positive_runtime(self, engine, compute_bound):
        res = engine.solo_run(compute_bound, threads=4)
        assert res.runtime_s > 0
        assert res.metrics.total.instructions == pytest.approx(
            compute_bound.total_kinstr * 1000, rel=1e-6
        )

    def test_metrics_consistency(self, engine, cache_friendly):
        res = engine.solo_run(cache_friendly, threads=4)
        t = res.metrics.total
        assert t.cpi > 0.5
        assert 0 <= t.l2_pcp <= 1
        assert t.llc_mpki <= t.l2_mpki + 1e-9
        assert t.ll > 0

    def test_timeline_covers_runtime(self, engine, streaming):
        res = engine.solo_run(streaming, threads=4)
        assert res.timeline
        assert res.timeline[-1].time_s == pytest.approx(res.runtime_s, rel=1e-6)

    def test_thread_bounds(self, engine, compute_bound):
        with pytest.raises(EngineError):
            engine.solo_run(compute_bound, threads=0)
        with pytest.raises(EngineError):
            engine.solo_run(compute_bound, threads=9)

    def test_more_threads_never_slower_for_compute(self, engine, compute_bound):
        t4 = engine.solo_run(compute_bound, threads=4).runtime_s
        t8 = engine.solo_run(compute_bound, threads=8).runtime_s
        assert t8 < t4


class TestScaling:
    def test_compute_bound_scales_linearly(self, engine, compute_bound):
        curve = engine.speedup_curve(compute_bound)
        assert curve[1] == pytest.approx(1.0)
        assert curve[8] > 7.0

    def test_bandwidth_bound_saturates(self, engine, streaming):
        curve = engine.speedup_curve(streaming)
        # Near-linear up to the point the bus fills, then flat.
        assert curve[8] < 6.0
        assert curve[8] / curve[4] < 1.6

    def test_sync_bound_does_not_scale(self, engine):
        atisish = make_profile(
            "atisish", ipc=2.0, l2_mpki=1.0,
            scaling=ScalingModel(sync_cpi_coeff=1.2, sync_cpi_exp=1.3),
        )
        curve = engine.speedup_curve(atisish)
        assert curve[8] < 2.0

    def test_work_inflation_hurts_scaling(self, engine):
        ssspish = make_profile(
            "ssspish", scaling=ScalingModel(work_inflation_coeff=0.45),
        )
        curve = engine.speedup_curve(ssspish)
        assert curve[8] < 2.5

    def test_serial_phase_amdahl(self, engine):
        amgish = make_profile("amgish", serial_weight=0.5)
        curve = engine.speedup_curve(amgish)
        # 50% serial *instructions* (the serial phase is cheaper per
        # instruction, so its time share is below 50%): speedup is
        # Amdahl-capped well below linear.
        assert curve[8] < 3.0
        no_serial = make_profile("fluid")
        assert engine.speedup_curve(no_serial)[8] > curve[8]


class TestPrefetchSensitivity:
    def test_regular_app_suffers_without_prefetch(self, streaming):
        on = IntervalEngine(config=EngineConfig(prefetchers_on=True))
        off = IntervalEngine(config=EngineConfig(prefetchers_on=False))
        t_on = on.solo_run(streaming, threads=4).runtime_s
        t_off = off.solo_run(streaming, threads=4).runtime_s
        assert t_off > 1.1 * t_on

    def test_irregular_app_indifferent(self, bandit_like):
        on = IntervalEngine(config=EngineConfig(prefetchers_on=True))
        off = IntervalEngine(config=EngineConfig(prefetchers_on=False))
        t_on = on.solo_run(bandit_like, threads=4).runtime_s
        t_off = off.solo_run(bandit_like, threads=4).runtime_s
        assert t_off == pytest.approx(t_on, rel=0.02)


class TestCoRun:
    def test_compute_pair_is_harmony(self, engine, compute_bound):
        other = make_profile("compute2", ipc=2.5, l2_mpki=0.5,
                             mrc=MissRatioCurve.constant(0.2), footprint=256 * KiB)
        res = engine.co_run(compute_bound, other)
        assert res.normalized_time < 1.1
        assert res.bg_slowdowns()[0] < 1.1

    def test_stream_bg_hurts_cache_friendly_fg(self, engine, cache_friendly, streaming):
        res = engine.co_run(cache_friendly, streaming)
        assert res.normalized_time > 1.4

    def test_stream_worse_than_bandit(self, engine, cache_friendly, streaming, bandit_like):
        with_stream = engine.co_run(cache_friendly, streaming).normalized_time
        with_bandit = engine.co_run(cache_friendly, bandit_like).normalized_time
        assert with_stream > with_bandit

    def test_victim_mpki_inflates_under_stream(self, engine, cache_friendly, streaming):
        solo = engine.solo_run(cache_friendly, threads=4).metrics.total.llc_mpki
        co = engine.co_run(cache_friendly, streaming).fg.total.llc_mpki
        assert co > 1.5 * solo

    def test_bandit_barely_touches_victim_mpki(self, engine, cache_friendly, bandit_like):
        solo = engine.solo_run(cache_friendly, threads=4).metrics.total.llc_mpki
        co = engine.co_run(cache_friendly, bandit_like).fg.total.llc_mpki
        assert co < 1.4 * solo

    def test_pair_bandwidth_below_peak_and_sum(self, engine, streaming, bandit_like):
        peak = engine.spec.memory.peak_bandwidth_bytes
        solo_a = engine.solo_run(streaming, threads=4).metrics.avg_bandwidth_bytes
        solo_b = engine.solo_run(bandit_like, threads=4).metrics.avg_bandwidth_bytes
        res = engine.co_run(streaming, bandit_like)
        pair_bw = sum(app.avg_bandwidth_bytes for app in res.apps)
        assert pair_bw <= peak * (1 + 1e-6)
        assert pair_bw <= solo_a + solo_b + 1e-6

    def test_core_budget_enforced(self, engine, compute_bound):
        with pytest.raises(EngineError):
            engine.co_run(compute_bound, compute_bound, threads=8)

    def test_solo_references_accepted(self, engine, compute_bound, streaming):
        solo = engine.solo_run(compute_bound, threads=4)
        res = engine.co_run(
            compute_bound, streaming,
            fg_solo_runtime_s=solo.runtime_s, bg_solo_rate=1e9,
        )
        assert res.fg_solo_runtime_s == solo.runtime_s


class TestAblations:
    def test_static_llc_removes_capacity_interference(self, cache_friendly, streaming):
        shared = IntervalEngine(config=EngineConfig(llc_policy="pressure"))
        static = IntervalEngine(config=EngineConfig(llc_policy="static"))
        nt_shared = shared.co_run(cache_friendly, streaming).normalized_time
        nt_static = static.co_run(cache_friendly, streaming).normalized_time
        assert nt_static < nt_shared

    def test_no_queueing_is_faster_for_victims(self, cache_friendly, streaming):
        q = IntervalEngine(config=EngineConfig(use_queueing=True))
        nq = IntervalEngine(config=EngineConfig(use_queueing=False))
        assert (
            nq.co_run(cache_friendly, streaming).normalized_time
            <= q.co_run(cache_friendly, streaming).normalized_time + 1e-9
        )

    def test_no_mlp_raises_cpi(self, cache_friendly):
        mlp = IntervalEngine(config=EngineConfig(use_mlp=True))
        no = IntervalEngine(config=EngineConfig(use_mlp=False))
        assert (
            no.solo_run(cache_friendly, threads=4).metrics.total.cpi
            > mlp.solo_run(cache_friendly, threads=4).metrics.total.cpi
        )

    def test_bad_policy_rejected(self):
        with pytest.raises(EngineError):
            EngineConfig(llc_policy="chaos")


class TestPropertyInvariants:
    @given(
        mpki=st.floats(min_value=0.1, max_value=50),
        ipc=st.floats(min_value=0.5, max_value=4),
        reg=st.floats(min_value=0, max_value=1),
        mlp=st.floats(min_value=1, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_corun_never_speeds_up_fg(self, mpki, ipc, reg, mlp):
        fg = make_profile(
            "fgx", ipc=ipc, l2_mpki=mpki, regularity=reg, mlp=mlp,
            kinstr=1e6,
        )
        bg = make_profile("bgx", l2_mpki=25.0, mlp=6.0, kinstr=1e6,
                          footprint=32 * MiB)
        engine = IntervalEngine()
        res = engine.co_run(fg, bg)
        assert res.normalized_time >= 0.98
        assert res.fg.avg_bandwidth_bytes >= 0

    @given(threads=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_instruction_conservation(self, threads):
        prof = make_profile("consv", kinstr=1e6)
        res = IntervalEngine().solo_run(prof, threads=threads)
        expected = prof.total_kinstr * 1000 * prof.scaling.work_factor(threads)
        assert res.metrics.total.instructions == pytest.approx(expected, rel=1e-6)


class TestEngineDeterminism:
    def test_identical_runs_bitwise_equal(self):
        a = IntervalEngine().co_run(get_profile("G-CC"), get_profile("Stream"))
        b = IntervalEngine().co_run(get_profile("G-CC"), get_profile("Stream"))
        assert a.fg.runtime_s == b.fg.runtime_s
        assert a.fg.total.cycles == b.fg.total.cycles
        assert a.bg_relative_rates == b.bg_relative_rates
