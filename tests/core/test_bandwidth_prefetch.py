"""Tests for Fig 3 (bandwidth sweep) and Fig 4 (prefetch sensitivity)."""

import pytest

from repro.core import ExperimentConfig
from repro.errors import ExperimentError
from repro.session import Session
from repro.units import GB
from repro.workloads.calibration import APPLICATIONS, MINI_BENCHMARKS


@pytest.fixture(scope="module")
def fig3():
    cfg = ExperimentConfig(workloads=APPLICATIONS + MINI_BENCHMARKS, jitter=0.0)
    return Session(cfg).run("fig3").result


@pytest.fixture(scope="module")
def fig4():
    cfg = ExperimentConfig(workloads=APPLICATIONS + MINI_BENCHMARKS, jitter=0.0)
    return Session(cfg).run("fig4").result


class TestFig3Shapes:
    def test_stream_is_the_heaviest(self, fig3):
        stream4 = fig3.bandwidth["Stream"][4]
        assert stream4 == pytest.approx(24.5 * GB, rel=0.1)
        for app in APPLICATIONS:
            assert fig3.bandwidth[app][4] <= stream4

    def test_bandit_around_18(self, fig3):
        assert fig3.bandwidth["Bandit"][4] == pytest.approx(18 * GB, rel=0.15)

    def test_heavy_hitters(self, fig3):
        # Paper: streamcluster, IRSmk, AMG2006, fotonik3d, mcf consume a
        # larger amount than others in their domain.
        for app in ("streamcluster", "IRSmk", "fotonik3d"):
            assert fig3.bandwidth[app][4] > 13 * GB, app

    def test_low_consumers(self, fig3):
        # Paper: ATIS, blackscholes, freqmine, swaptions, xalancbmk,
        # deepsjeng and nab have extremely low consumption.
        for app in ("ATIS", "blackscholes", "freqmine", "swaptions",
                    "xalancbmk", "deepsjeng", "nab"):
            assert fig3.bandwidth[app][4] < 2.5 * GB, app

    def test_gemini_above_powergraph(self, fig3):
        gem = sum(fig3.bandwidth[a][4] for a in ("G-PR", "G-CC", "G-BC", "G-BFS", "G-SSSP")) / 5
        pg = sum(fig3.bandwidth[a][4] for a in ("P-PR", "P-CC", "P-SSSP")) / 3
        assert gem > 1.3 * pg

    def test_graph_bandwidth_above_cntk(self, fig3):
        # Paper Section IV-C: graph bandwidth ~2.45x CNTK's.
        graph = sum(fig3.bandwidth[a][4] for a in ("G-PR", "G-CC", "G-BC", "G-BFS", "G-SSSP")) / 5
        cntk = sum(fig3.bandwidth[a][4] for a in ("CIFAR", "MNIST", "LSTM", "ATIS")) / 4
        assert 1.8 < graph / cntk < 4.5

    def test_bandwidth_grows_with_threads(self, fig3):
        for app in APPLICATIONS:
            bw = fig3.bandwidth[app]
            assert bw[4] >= bw[1] * 0.98, app

    def test_table3_solo_anchors(self, fig3):
        # Table III solo columns: CIFAR 7.3, G-CC 17.8, IRSmk 18.1,
        # fotonik3d 18.4 GB/s.
        assert fig3.bandwidth["CIFAR"][4] == pytest.approx(7.3 * GB, rel=0.15)
        assert fig3.bandwidth["G-CC"][4] == pytest.approx(17.8 * GB, rel=0.2)
        assert fig3.bandwidth["IRSmk"][4] == pytest.approx(18.1 * GB, rel=0.15)
        assert fig3.bandwidth["fotonik3d"][4] == pytest.approx(18.4 * GB, rel=0.2)

    def test_render(self, fig3):
        txt = fig3.render_fig3()
        assert "MB/s" in txt and "Stream" in txt


class TestFig4Shapes:
    def test_sensitive_set(self, fig4):
        # Paper: streamcluster, HPC apps, fotonik3d are very sensitive.
        sens = set(fig4.sensitive_apps())
        for app in ("streamcluster", "IRSmk", "fotonik3d", "lulesh", "Stream"):
            assert app in sens, app

    def test_graph_apps_insensitive(self, fig4):
        # Paper: graph applications do not benefit from prefetchers.
        for app in ("G-PR", "G-CC", "P-PR", "P-SSSP"):
            assert fig4.ratios[app] > 0.9, app

    def test_cntk_insensitive(self, fig4):
        for app in ("CIFAR", "MNIST", "LSTM", "ATIS"):
            assert fig4.ratios[app] > 0.9, app

    def test_bandit_fully_insensitive(self, fig4):
        # Bandit's accesses conflict in cache: prefetchers cannot help.
        assert fig4.ratios["Bandit"] == pytest.approx(1.0, abs=0.02)

    def test_sensitivity_magnitude(self, fig4):
        # Paper: sensitive apps slowed ~1.18x without prefetchers.
        for app in ("streamcluster", "IRSmk", "fotonik3d"):
            assert 0.7 < fig4.ratios[app] < 0.9, app

    def test_ratios_at_most_one_ish(self, fig4):
        for app, r in fig4.ratios.items():
            assert r <= 1.05, app

    def test_render(self, fig4):
        txt = fig4.render_fig4()
        assert "T_on/T_off" in txt

    def test_prefetch_off_baseline_rejected(self):
        from repro.engine import EngineConfig

        cfg = ExperimentConfig(engine_config=EngineConfig(prefetchers_on=False))
        with pytest.raises(ExperimentError):
            Session(cfg).run("fig4")
