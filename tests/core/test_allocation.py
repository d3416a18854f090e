"""Tests for asymmetric co-runs and the core-allocation sweep."""

import pytest

from repro.core import ExperimentConfig
from repro.engine import IntervalEngine
from repro.errors import EngineError, ExperimentError
from repro.session import Session
from repro.workloads.registry import get_profile


@pytest.fixture(scope="module")
def engine():
    return IntervalEngine()


class TestAsymmetricCoRun:
    def test_defaults_to_symmetric(self, engine):
        a = engine.co_run(get_profile("G-CC"), get_profile("CIFAR"))
        b = engine.co_run(get_profile("G-CC"), get_profile("CIFAR"), bg_threads=4)
        assert a.fg.runtime_s == b.fg.runtime_s

    def test_full_machine_split_allowed(self, engine):
        res = engine.co_run(
            get_profile("swaptions"), get_profile("nab"),
            threads=6, bg_threads=2,
        )
        assert [app.threads for app in res.apps] == [6, 2]

    def test_over_allocation_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.co_run(get_profile("swaptions"), get_profile("nab"),
                          threads=6, bg_threads=3)
        with pytest.raises(EngineError):
            engine.co_run(get_profile("swaptions"), get_profile("nab"),
                          threads=0, bg_threads=4)

    def test_shrinking_offender_helps_victim(self, engine):
        """The policy lever: give the offender fewer cores and the
        victim recovers (its bandwidth pressure scales with threads)."""
        gcc, fot = get_profile("G-CC"), get_profile("fotonik3d")
        solo = engine.solo_run(gcc, threads=4).runtime_s
        wide = engine.co_run(gcc, fot, threads=4, bg_threads=4,
                             fg_solo_runtime_s=solo)
        narrow = engine.co_run(gcc, fot, threads=4, bg_threads=2,
                               fg_solo_runtime_s=solo)
        assert narrow.normalized_time < wide.normalized_time


class TestAllocationSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        cfg = ExperimentConfig(workloads=("G-CC", "fotonik3d"), jitter=0.0)
        return Session(cfg).run("allocation", fg="G-CC", bg="fotonik3d").result

    def test_covers_all_splits(self, sweep):
        assert [(p.fg_threads, p.bg_threads) for p in sweep.points] == [
            (t, 8 - t) for t in range(1, 8)
        ]

    def test_victim_recovers_with_fewer_offender_cores(self, sweep):
        assert sweep.point(6).fg_slowdown < sweep.point(2).fg_slowdown

    def test_weighted_speedup_positive(self, sweep):
        for p in sweep.points:
            assert p.weighted_speedup > 0.5

    def test_best_split_identified(self, sweep):
        best = sweep.best_split()
        assert best.weighted_speedup == max(p.weighted_speedup for p in sweep.points)

    def test_missing_split_raises(self, sweep):
        with pytest.raises(ExperimentError):
            sweep.point(99)

    def test_render(self, sweep):
        txt = sweep.render()
        assert "Core-allocation sweep" in txt and "4+4" in txt
