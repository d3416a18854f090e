"""Tests for the Bubble-Up predictor, insights and efficiency modules."""

import pytest

from repro.core import BubbleUpPredictor, ExperimentConfig, MatrixInsights, bubble_profile
from repro.errors import ExperimentError
from repro.session import Session

APPS = ("G-CC", "CIFAR", "fotonik3d", "swaptions", "mcf", "streamcluster")


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(workloads=APPS, jitter=0.0)


@pytest.fixture(scope="module")
def matrix(config):
    return Session(config).run("fig5").result


@pytest.fixture(scope="module")
def predictor(config):
    return BubbleUpPredictor(config=config).fit()


class TestBubbleProfile:
    def test_level_scaling(self):
        lo, hi = bubble_profile(0.1), bubble_profile(0.9)
        assert hi.regions[0].l2_mpki > lo.regions[0].l2_mpki
        assert hi.regions[0].footprint_bytes > lo.regions[0].footprint_bytes

    def test_level_bounds(self):
        with pytest.raises(ExperimentError):
            bubble_profile(1.5)


class TestBubbleUpPredictor:
    def test_sensitivity_monotone(self, predictor):
        for app in APPS:
            curve = predictor.sensitivity[app]
            assert list(curve.slowdowns) == sorted(curve.slowdowns), app
            assert curve.slowdowns[0] == pytest.approx(1.0)

    def test_pressure_ordering(self, predictor):
        # Heavier apps press harder on the reporter.
        assert predictor.pressure["fotonik3d"] > predictor.pressure["swaptions"]
        assert predictor.pressure["streamcluster"] > predictor.pressure["CIFAR"]

    def test_compute_apps_insensitive(self, predictor):
        assert predictor.sensitivity["swaptions"].slowdown_at(1.0) < 1.15

    def test_victims_sensitive(self, predictor):
        assert predictor.sensitivity["G-CC"].slowdown_at(1.0) > 1.5

    def test_curve_inversion_roundtrip(self, predictor):
        curve = predictor.sensitivity["G-CC"]
        # On the rising part of the curve the inversion is exact-ish...
        for level in (0.1, 0.2, 0.3):
            s = curve.slowdown_at(level)
            assert curve.pressure_for(s) == pytest.approx(level, abs=0.12)
        # ...and on the saturated tail it returns the plateau's left edge
        # (the smallest pressure achieving that slowdown).
        tail = curve.pressure_for(curve.slowdown_at(0.9))
        assert tail <= 0.9
        assert curve.slowdown_at(tail) == pytest.approx(curve.slowdown_at(0.9), rel=0.01)

    def test_predict_requires_fit(self, config):
        fresh = BubbleUpPredictor(config=config)
        with pytest.raises(ExperimentError):
            fresh.predict("G-CC", "CIFAR")

    def test_prediction_quality(self, predictor, matrix):
        scores = predictor.evaluate(matrix)
        # O(N) characterization predicts the O(N^2) matrix decently:
        assert scores["mae"] < 0.25
        assert scores["within_10pct"] > 0.5
        assert scores["rank_correlation"] > 0.55

    def test_predict_matrix_shape(self, predictor):
        pm = predictor.predict_matrix(APPS)
        assert len(pm) == len(APPS) ** 2
        assert all(v >= 1.0 - 1e-9 for v in pm.values())

    def test_bad_levels_rejected(self, config):
        with pytest.raises(ExperimentError):
            BubbleUpPredictor(config=config, levels=(0.5,))
        with pytest.raises(ExperimentError):
            BubbleUpPredictor(config=config, levels=(0.8, 0.2))


class TestInsights:
    def test_roles_cover_all_apps(self, matrix):
        ins = MatrixInsights.derive(matrix)
        assert set(ins.roles) == set(APPS)

    def test_offender_and_victim_rankings(self, matrix):
        ins = MatrixInsights.derive(matrix)
        assert "fotonik3d" in ins.top_offenders(2)
        assert "G-CC" in ins.top_victims(2)
        assert "swaptions" in ins.harmless()

    def test_suite_victimhood_graph_leads(self, matrix):
        ins = MatrixInsights.derive(matrix)
        v = ins.suite_victimhood()
        assert v["GeminiGraph"] > v["PARSEC"]

    def test_worst_case_identified(self, matrix):
        ins = MatrixInsights.derive(matrix)
        gcc = ins.roles["G-CC"]
        assert gcc.worst_neighbour in ("fotonik3d", "streamcluster", "mcf")
        assert gcc.worst_case == matrix.value("G-CC", gcc.worst_neighbour)

    def test_render(self, matrix):
        txt = MatrixInsights.derive(matrix).render()
        assert "top offenders" in txt and "avoid pairs" in txt


class TestEfficiency:
    @pytest.fixture(scope="class")
    def result(self, config):
        return Session().run(
            "efficiency", pairs=(("swaptions", "nab"), ("G-CC", "fotonik3d"))
        ).result

    def test_harmony_pair_saves_energy(self, result):
        row = result.row("swaptions", "nab")
        assert row.energy_saving > 0.15
        assert row.makespan_change < 0.75

    def test_conflict_pair_saves_less(self, result):
        good = result.row("swaptions", "nab")
        bad = result.row("G-CC", "fotonik3d")
        assert bad.energy_saving < good.energy_saving

    def test_consolidation_never_slower_than_serial(self, result):
        for row in result.rows:
            assert row.consolidated_seconds < row.timeshared_seconds * 1.05

    def test_render(self, result):
        txt = result.render()
        assert "energy saving" in txt
