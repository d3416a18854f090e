"""Tests for experiment infrastructure, report rendering and the CLI."""

from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.core import ExperimentConfig, Jitter
from repro.core.report import csv_table, shade, text_heatmap
from repro.errors import ExperimentError
from repro.machine.spec import MachineSpec
from repro.tables import ascii_table
from repro.units import GB
from repro.workloads.registry import get_profile


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.threads == 4
        assert cfg.repetitions == 3
        assert len(cfg.workloads) == 25

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(jitter=-0.1)
        with pytest.raises(ExperimentError):
            ExperimentConfig(workloads=())

    def test_experiment_config_engine_spec_propagates(self):
        spec = MachineSpec()
        spec = replace(spec, memory=replace(spec.memory, peak_bandwidth_bytes=10 * GB))
        cfg = ExperimentConfig(workloads=("IRSmk",), spec=spec)
        res = cfg.make_engine().solo_run(get_profile("IRSmk"), threads=4)
        # Starved bus: bandwidth pinned at or below the reduced peak.
        assert res.metrics.avg_bandwidth_bytes <= 10 * GB * 1.01


class TestJitter:
    def test_zero_jitter_is_identity(self):
        j = Jitter(ExperimentConfig(jitter=0.0))
        assert j.measure(42.0) == 42.0

    def test_jitter_close_to_truth(self):
        j = Jitter(ExperimentConfig(jitter=0.01, repetitions=3, seed=1))
        val = j.measure(100.0)
        assert val == pytest.approx(100.0, rel=0.05)

    def test_deterministic_by_seed(self):
        a = Jitter(ExperimentConfig(jitter=0.02, seed=5)).measure(10.0)
        b = Jitter(ExperimentConfig(jitter=0.02, seed=5)).measure(10.0)
        assert a == b

    def test_keyed_jitter_independent_of_order(self):
        cfg = ExperimentConfig(jitter=0.02, seed=5)
        a = Jitter.for_key(cfg, "cell", "A", "B").measure(10.0)
        Jitter.for_key(cfg, "cell", "X", "Y").measure(10.0)  # unrelated draw
        b = Jitter.for_key(cfg, "cell", "A", "B").measure(10.0)
        assert a == b

    def test_keyed_jitter_distinct_keys_distinct_noise(self):
        cfg = ExperimentConfig(jitter=0.02, seed=5)
        a = Jitter.for_key(cfg, "cell", "A", "B").measure(10.0)
        b = Jitter.for_key(cfg, "cell", "B", "A").measure(10.0)
        assert a != b


class TestReport:
    def test_ascii_table(self):
        txt = ascii_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
        assert "2.50" in txt and "x" in txt

    def test_ascii_table_ragged_rejected(self):
        with pytest.raises(ExperimentError):
            ascii_table(["a"], [[1, 2]])

    def test_csv_table(self):
        txt = csv_table(["a", "b"], [[1, "x,y"]])
        assert '"x,y"' in txt

    def test_heatmap(self):
        txt = text_heatmap({("r", "c"): 1.5}, ["r"], ["c"])
        assert "1.5" in txt

    def test_shade_ramp(self):
        assert shade(1.0) == " "
        assert shade(5.0) == "@"
        with pytest.raises(ExperimentError):
            shade(1.0, lo=2.0, hi=1.0)


class TestCli:
    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "G-PR" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "GeminiGraph" in out

    def test_fig5_subset(self, capsys):
        assert main(["fig5", "--workloads", "swaptions,nab"]) == 0
        out = capsys.readouterr().out
        assert "Harmony=1" in out

    def test_fig5_csv(self, capsys):
        assert main(["fig5", "--workloads", "swaptions,nab", "--csv"]) == 0
        assert "fg\\bg" in capsys.readouterr().out

    def test_fig4_subset(self, capsys):
        assert main(["fig4", "--workloads", "IRSmk,deepsjeng"]) == 0
        out = capsys.readouterr().out
        assert "IRSmk" in out

    def test_table2_subset(self, capsys):
        assert main(["table2", "--workloads", "ATIS,lulesh"]) == 0
        out = capsys.readouterr().out
        assert "ATIS" in out and "lulesh" in out

    def test_solo_card(self, capsys):
        assert main(["solo", "--workloads", "fotonik3d"]) == 0
        out = capsys.readouterr().out
        assert "UUS" in out and "8T speedup" in out and "GB/s" in out

    def test_efficiency_pairs(self, capsys):
        assert main(["efficiency", "--workloads", "swaptions,nab"]) == 0
        out = capsys.readouterr().out
        assert "energy saving" in out

    def test_insights_subset(self, capsys):
        assert main(["insights", "--workloads", "G-CC,fotonik3d,swaptions"]) == 0
        out = capsys.readouterr().out
        assert "top offenders" in out

    def test_fig5_parallel_matches_serial(self, capsys):
        assert main(["fig5", "--workloads", "swaptions,nab", "--csv"]) == 0
        serial = capsys.readouterr().out
        assert main([
            "fig5", "--workloads", "swaptions,nab", "--csv",
            "--parallel", "--workers", "2",
        ]) == 0
        assert capsys.readouterr().out == serial

    def test_allocation_needs_two_workloads(self, capsys):
        assert main(["allocation", "--workloads", "swaptions"]) == 2
        assert "need exactly two workloads" in capsys.readouterr().err

    def test_list_shows_runner_titles(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "consolidation heat map" in out
