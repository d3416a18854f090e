"""Tests for Fig 2 / Table II (scalability experiment)."""

import pytest

from repro.core import ExperimentConfig, ScalabilityClass, classify_speedup
from repro.errors import ExperimentError
from repro.session import Session


@pytest.fixture(scope="module")
def result():
    return Session(ExperimentConfig(jitter=0.0)).run("fig2").result


class TestClassify:
    def test_bands(self):
        assert classify_speedup(1.5) is ScalabilityClass.LOW
        assert classify_speedup(4.0) is ScalabilityClass.MEDIUM
        assert classify_speedup(7.5) is ScalabilityClass.HIGH

    def test_boundaries(self):
        assert classify_speedup(2.5) is ScalabilityClass.MEDIUM
        assert classify_speedup(5.5) is ScalabilityClass.HIGH

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            classify_speedup(-1.0)


class TestPaperShapes:
    """Table II, reproduced (known paper-internal inconsistencies are
    resolved per DESIGN.md)."""

    def test_one_thread_is_baseline(self, result):
        for app, curve in result.curves.items():
            assert curve[1] == pytest.approx(1.0), app

    def test_low_class(self, result):
        for app in ("P-SSSP", "ATIS", "AMG2006"):
            assert result.classification(app) is ScalabilityClass.LOW, app

    def test_gemini_classes(self, result):
        assert result.classification("G-SSSP") is ScalabilityClass.MEDIUM
        for app in ("G-PR", "G-CC", "G-BC", "G-BFS"):
            assert result.classification(app) is ScalabilityClass.HIGH, app

    def test_powergraph_high(self, result):
        for app in ("P-PR", "P-CC"):
            assert result.classification(app) is ScalabilityClass.HIGH, app

    def test_parsec_classes(self, result):
        assert result.classification("streamcluster") is ScalabilityClass.MEDIUM
        for app in ("blackscholes", "freqmine", "swaptions"):
            assert result.classification(app) is ScalabilityClass.HIGH, app

    def test_hpc_classes(self, result):
        assert result.classification("lulesh") is ScalabilityClass.HIGH
        assert result.classification("IRSmk") is ScalabilityClass.MEDIUM

    def test_spec_classes(self, result):
        assert result.classification("fotonik3d") is ScalabilityClass.MEDIUM
        for app in ("cactuBSSN", "nab", "deepsjeng", "mcf"):
            assert result.classification(app) is ScalabilityClass.HIGH, app

    def test_blackscholes_near_linear(self, result):
        # Paper: "blackscholes and freqmine's speedup are nearly 8x".
        assert result.speedup("blackscholes", 8) > 7.5
        assert result.speedup("freqmine", 8) > 7.5

    def test_atis_flat(self, result):
        # Paper Fig 2c: ATIS has no scalability.
        assert result.speedup("ATIS", 8) < 1.3

    def test_fotonik_saturates_after_4(self, result):
        # Paper: "fotonik3d scales poorly after 4 threads".
        r = result.curves["fotonik3d"]
        gain_14 = r[4] / r[1]
        gain_48 = r[8] / r[4]
        assert gain_48 < 0.45 * gain_14

    def test_monotone_curves(self, result):
        for app, curve in result.curves.items():
            vals = [curve[t] for t in sorted(curve)]
            assert all(b >= a * 0.97 for a, b in zip(vals, vals[1:])), app


class TestRendering:
    def test_fig2_table_renders(self, result):
        txt = result.render_fig2()
        assert "G-PR" in txt and "8T" in txt

    def test_table2_renders(self, result):
        txt = result.render_table2()
        assert "Low" in txt and "GeminiGraph" in txt

    def test_table2_structure(self, result):
        t2 = result.table2()
        assert "P-SSSP" in t2["PowerGraph"][ScalabilityClass.LOW]
        assert "lulesh" in t2["HPC"][ScalabilityClass.HIGH]
