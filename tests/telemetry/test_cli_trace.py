"""Tests for the observability CLI surface: ``--telemetry``,
``trace show/export/summary``, ``store stats`` and the ``-v/-q``
logging flags (including the flag-misuse guards)."""

import json
import logging

import pytest

from repro.cli import main

WORKLOADS_ARG = "G-CC,swaptions"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def traced_store(tmp_path, capsys):
    store = str(tmp_path / "store")
    code, _, err = run(capsys, [
        "solo", "--store", store, "--telemetry", "--workloads", WORKLOADS_ARG,
    ])
    assert code == 0, err
    return store


class TestTelemetryFlag:
    def test_requires_store(self, capsys):
        code, _, err = run(capsys, ["solo", "--telemetry"])
        assert code == 2
        assert "--telemetry requires --store" in err

    def test_records_into_store(self, traced_store, tmp_path):
        segments = list((tmp_path / "store" / "telemetry").glob("*.jsonl"))
        assert segments, "a traced run must leave span segments behind"

    def test_untraced_run_leaves_no_telemetry(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code, _, _ = run(capsys, [
            "solo", "--store", store, "--workloads", WORKLOADS_ARG,
        ])
        assert code == 0
        assert not (tmp_path / "store" / "telemetry").exists()


class TestTraceCommand:
    def test_requires_store(self, capsys):
        code, _, err = run(capsys, ["trace", "summary"])
        assert code == 2 and "requires --store" in err

    def test_empty_store_is_distinct_exit(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "trace", "summary", "--store", str(tmp_path / "empty"),
        ])
        assert code == 1
        assert "no telemetry" in err

    def test_show_and_limit(self, traced_store, capsys):
        code, out, _ = run(capsys, [
            "trace", "show", "--store", traced_store, "--limit", "2",
        ])
        assert code == 0
        assert "more span(s)" in out
        code, out, _ = run(capsys, [
            "trace", "show", "--store", traced_store, "--json", "--limit", "1",
        ])
        assert code == 0
        span = json.loads(out.splitlines()[0])
        assert span["kind"] == "span" and "dur_s" in span

    def test_summary_text_and_json(self, traced_store, capsys):
        code, out, _ = run(capsys, ["trace", "summary", "--store", traced_store])
        assert code == 0
        assert "session.run" in out and "of wall" in out
        code, out, _ = run(capsys, [
            "trace", "summary", "--store", traced_store, "--json",
        ])
        summary = json.loads(out)
        assert summary["spans"] > 0 and 0.0 < summary["coverage"] <= 1.0

    def test_export_chrome_to_file(self, traced_store, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code, out, _ = run(capsys, [
            "trace", "export", "--store", traced_store,
            "--format", "chrome", "--out", str(out_path),
        ])
        assert code == 0 and "wrote" in out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_export_csv_and_json_formats(self, traced_store, capsys):
        code, out, _ = run(capsys, [
            "trace", "export", "--store", traced_store, "--format", "csv",
        ])
        assert code == 0
        assert out.splitlines()[0].startswith("name,count,total_s")
        code, out, _ = run(capsys, [
            "trace", "export", "--store", traced_store, "--format", "json",
        ])
        doc = json.loads(out)
        assert set(doc) == {"spans", "metrics"}

    def test_unknown_subcommand(self, traced_store, usage_error):
        usage_error(["trace", "bogus", "--store", traced_store], "'bogus'")


class TestStoreStats:
    def test_stats_table_and_json(self, traced_store, capsys):
        code, out, _ = run(capsys, ["store", "stats", "--store", traced_store])
        assert code == 0
        assert "solo" in out and "hit rate" in out
        code, out, _ = run(capsys, [
            "store", "stats", "--store", traced_store, "--json",
        ])
        stats = json.loads(out)
        row = stats["artifacts"]["solo"]
        assert row["runs"] >= 1
        assert row["mean_s"] == pytest.approx(row["total_s"] / row["runs"])
        assert 0.0 <= row["hit_rate"] <= 1.0

    def test_stats_requires_store(self, capsys):
        code, _, err = run(capsys, ["store", "stats"])
        assert code == 2 and "requires --store" in err


class TestFlagGuards:
    def test_format_only_for_trace(self, usage_error):
        usage_error(["fig2", "--format", "chrome"], "--format")
        usage_error(["fig2", "--limit", "3"], "--limit")
        # Each trace view takes only its own knobs.
        usage_error(["trace", "show", "--format", "csv", "--store", "st"], "--format")
        usage_error(["trace", "export", "--limit", "3", "--store", "st"], "--limit")

    def test_out_only_for_trace_export_and_traffic_gen(self, usage_error):
        usage_error(["fig2", "--out", "x.json"], "--out")
        usage_error(["trace", "summary", "--out", "x.json", "--store", "st"], "--out")

    def test_json_guard_mentions_new_surfaces(self, usage_error):
        usage_error(["fig2", "--json"], "--json")
        usage_error(["store", "gc", "--json", "--store", "st"], "--json")
        usage_error(["scenario", "run", "G-CC:2", "--json"], "--json")
        # Raw spans come from 'trace export --format json' instead.
        usage_error(["trace", "export", "--json", "--store", "st"], "--json")

    def test_quiet_verbose_conflict(self, capsys, usage_error):
        usage_error(["-q", "-v", "list"], "-v/--verbose", "not allowed with argument -q/--quiet")
        # The pair split across the verb is caught after parsing.
        code, _, err = run(capsys, ["-q", "list", "-v"])
        assert code == 2 and "mutually exclusive" in err


class TestLoggingFlags:
    def test_verbose_emits_info_logs(self, tmp_path, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="repro.session.session"):
            code, _, _ = run(capsys, [
                "solo", "--store", str(tmp_path / "store"),
                "-v", "--workloads", WORKLOADS_ARG,
            ])
        assert code == 0
        assert any(
            "finished in" in rec.message for rec in caplog.records
        ), "session INFO logs should fire under -v"
