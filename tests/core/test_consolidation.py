"""Tests for Fig 5 (625-pair sweep), classification, Fig 6 and Table III."""

import pytest

from repro.core import ExperimentConfig, PairClass, classify_nway
from repro.errors import ExperimentError
from repro.session import Session
from repro.workloads.calibration import APPLICATIONS


@pytest.fixture(scope="module")
def matrix():
    """The full 25x25 sweep (fast: analytic engine)."""
    return Session(ExperimentConfig(jitter=0.0)).run("fig5").result


@pytest.fixture(scope="module")
def fig6():
    return Session(ExperimentConfig(jitter=0.0)).run("fig6").result


class TestClassifyPair:
    """A pair is the 2-app case of :func:`classify_nway`."""

    def test_harmony(self):
        v = classify_nway(("a", "b"), (1.1, 1.2))
        assert v.relationship is PairClass.HARMONY
        assert v.victims == () and v.offenders == ()

    def test_victim_offender(self):
        v = classify_nway(("a", "b"), (1.9, 1.1))
        assert v.relationship is PairClass.VICTIM_OFFENDER
        assert v.victims == ("a",) and v.offenders == ("b",)

    def test_both_victim(self):
        v = classify_nway(("a", "b"), (1.6, 1.7))
        assert v.relationship is PairClass.BOTH_VICTIM

    def test_threshold_inclusive(self):
        assert classify_nway(("a", "b"), (1.5, 1.0)).relationship is PairClass.VICTIM_OFFENDER

    def test_invalid(self):
        with pytest.raises(ExperimentError):
            classify_nway(("a", "b"), (0.0, 1.0))


class TestFig5Shapes:
    def test_full_matrix_size(self, matrix):
        assert len(matrix.cells) == len(APPLICATIONS) ** 2 == 625

    def test_no_speedups(self, matrix):
        for cell, v in matrix.cells.items():
            assert v >= 0.95, cell

    def test_most_pairs_harmonious(self, matrix):
        counts = matrix.classification_counts()
        total = sum(counts.values())
        assert counts[PairClass.HARMONY] > 0.7 * total
        assert counts[PairClass.BOTH_VICTIM] >= 1

    def test_friendly_backgrounds_include_papers_four(self, matrix):
        friendly = set(matrix.friendly_backgrounds(limit=1.12))
        assert {"swaptions", "nab", "deepsjeng", "blackscholes"} <= friendly

    def test_friendly_apps_also_unhurt(self, matrix):
        # Paper: those benchmarks are also affected very little (<10%)
        # by any background.
        for fg in ("swaptions", "nab", "deepsjeng", "blackscholes"):
            for bg in APPLICATIONS:
                assert matrix.value(fg, bg) < 1.15, (fg, bg)

    def test_gcc_cifar_victim_offender(self, matrix):
        # Paper: G-CC +54.7% with CIFAR, CIFAR only +25%.
        v = matrix.classify("G-CC", "CIFAR")
        assert matrix.value("G-CC", "CIFAR") > 1.3
        assert matrix.value("CIFAR", "G-CC") < matrix.value("G-CC", "CIFAR")
        # The verdict reads both cells of the pair, A's first.
        assert v.apps == ("G-CC", "CIFAR")
        assert v.slowdowns == (matrix.value("G-CC", "CIFAR"), matrix.value("CIFAR", "G-CC"))

    def test_gcc_fotonik_strongest(self, matrix):
        # Paper: G-CC goes to ~198% with fotonik3d — worse than CIFAR.
        # (model reproduces ~1.75x; benchmarks/out/fig5_heatmap.txt)
        assert matrix.value("G-CC", "fotonik3d") > 1.65
        assert matrix.value("G-CC", "fotonik3d") > matrix.value("G-CC", "CIFAR")
        v = matrix.classify("G-CC", "fotonik3d")
        assert v.relationship in (PairClass.VICTIM_OFFENDER, PairClass.BOTH_VICTIM)

    def test_graph_apps_are_victims_not_offenders(self, matrix):
        # Paper: graph analytics don't degrade their co-runners but are
        # harmed by memory-intensive ones.
        for bg in ("G-PR", "G-BFS", "G-BC"):
            for fg in ("blackscholes", "deepsjeng", "CIFAR", "lulesh"):
                assert matrix.value(fg, bg) < 1.35, (fg, bg)

    def test_offender_columns(self, matrix):
        # fotonik3d and IRSmk are frequent offenders.
        assert len(matrix.victims_of("fotonik3d")) >= 3
        assert len(matrix.victims_of("IRSmk", threshold=1.4)) >= 2

    def test_fotonik_not_hurt_by_gsssp(self, matrix):
        # Paper Table IV: G-SSSP leaves fotonik3d essentially unharmed,
        # while fotonik3d hurts G-SSSP badly (asymmetry).
        assert matrix.value("fotonik3d", "G-SSSP") < matrix.value("G-SSSP", "fotonik3d") - 0.3

    def test_missing_cell_raises(self, matrix):
        with pytest.raises(ExperimentError):
            matrix.value("G-CC", "nosuch")

    def test_render_and_csv(self, matrix):
        assert "G-CC" in matrix.render_fig5()
        csv = matrix.to_csv()
        assert csv.count("\n") == len(APPLICATIONS) + 1


class TestFig6Shapes:
    def test_stream_much_worse_than_bandit(self, fig6):
        assert fig6.overall_mean("Stream") < fig6.overall_mean("Bandit") - 0.1

    def test_bandit_range(self, fig6):
        # Paper: slowdown with Bandit ranges between 0.77x and 1.0x.
        for app, v in fig6.speedups["Bandit"].items():
            assert 0.6 <= v <= 1.02, app

    def test_gemini_hit_hardest_by_bandit(self, fig6):
        # Paper: Gemini average 0.82; PowerGraph only 0.93.
        gem = fig6.suite_mean("GeminiGraph", "Bandit")
        pg = fig6.suite_mean("PowerGraph", "Bandit")
        assert gem < pg
        assert gem == pytest.approx(0.82, abs=0.12)

    def test_gemini_stream_slowdown(self, fig6):
        # Paper: Gemini/PowerGraph runtime ~208% under Stream.
        gem = 1.0 / fig6.suite_mean("GeminiGraph", "Stream")
        assert gem == pytest.approx(2.08, rel=0.25)

    def test_overall_stream_mean(self, fig6):
        # Paper: average speedup drops to 0.61 with Stream.
        assert fig6.overall_mean("Stream") == pytest.approx(0.61, abs=0.15)

    def test_immune_apps(self, fig6):
        # Paper: blackscholes, freqmine, swaptions, deepsjeng, nab avoid
        # the degradation.
        for app in ("blackscholes", "freqmine", "swaptions", "deepsjeng", "nab"):
            assert fig6.speedups["Stream"][app] > 0.85, app

    def test_render(self, fig6):
        assert "vs Stream" in fig6.render_fig6()


class TestTable3:
    @pytest.fixture(scope="class")
    def table3(self):
        return Session(ExperimentConfig(jitter=0.0)).run("table3").result

    def test_five_rows(self, table3):
        assert len(table3.rows) == 5

    def test_pair_below_sum(self, table3):
        # The paper's key observation.
        for row in table3.rows:
            assert row.below_sum, (row.app_a, row.app_b)

    def test_pair_below_practical_peak(self, table3):
        for row in table3.rows:
            assert row.pair_bandwidth <= 28.5, (row.app_a, row.app_b)

    def test_solo_anchors(self, table3):
        row = table3.row("CIFAR", "fotonik3d")
        assert row.solo_a == pytest.approx(7.3, rel=0.15)
        assert row.solo_b == pytest.approx(18.4, rel=0.2)

    def test_render(self, table3):
        txt = table3.render_table3()
        assert "Table III" in txt and "G-CC" in txt
