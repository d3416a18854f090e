"""Tests for the ``repro sched`` CLI and the ``--json`` listings."""

import json

import pytest

from repro.cli import main
from repro.sched import ArrivalTrace

ROSTER_ARG = "G-CC,fotonik3d,swaptions"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSchedReplayCli:
    def test_replay_renders_comparison(self, tmp_path, capsys):
        code, out, _ = run(capsys, [
            "sched", "replay", "--store", str(tmp_path / "st"),
            "--workloads", ROSTER_ARG, "--threads", "4",
        ])
        assert code == 0
        assert "sched replay:" in out
        assert "baseline" in out and "interference" in out

    def test_replay_json_reports_cache(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        base = [
            "sched", "replay", "--store", store,
            "--workloads", ROSTER_ARG, "--threads", "4", "--json",
        ]
        code, out, _ = run(capsys, base)
        assert code == 0
        cold = json.loads(out)
        assert set(cold) == {"comparison", "cache"}
        code, out, _ = run(capsys, base)
        warm = json.loads(out)
        assert warm["cache"].get("scenario_misses", 0) == 0
        assert warm["comparison"] == cold["comparison"]

    def test_replay_accepts_trace_file_and_policies(self, tmp_path, capsys):
        trace_path = ArrivalTrace.synthetic(
            ("G-CC", "swaptions"), seed=1, arrivals=3, threads=4
        ).to_json(tmp_path / "trace.json")
        code, out, _ = run(capsys, [
            "sched", "replay", "--trace", str(trace_path),
            "--policy", "interference",
            "--workloads", "G-CC,swaptions", "--threads", "4",
        ])
        assert code == 0
        assert "interference" in out and "3 arrival(s)" in out
        assert "baseline" not in out  # only the requested policy ran

    def test_replay_seed_spec(self, capsys):
        code, out, _ = run(capsys, [
            "sched", "replay", "--trace", "seed:1:2:4", "--machines", "1",
            "--workloads", "G-CC,swaptions", "--threads", "4",
        ])
        assert code == 0
        assert "2 arrival(s) over 1 machine(s)" in out


class TestSchedDecideCli:
    def test_decide_admits_on_empty_cluster(self, capsys):
        code, out, _ = run(capsys, [
            "sched", "decide", "G-CC:4",
            "--workloads", ROSTER_ARG, "--threads", "4",
        ])
        assert code == 0
        assert out.startswith("admit G-CC:4 on m0")

    def test_decide_json_payload(self, capsys):
        code, out, _ = run(capsys, [
            "sched", "decide", "G-CC:4", "--json",
            "--workloads", ROSTER_ARG, "--threads", "4",
        ])
        assert code == 0
        decision = json.loads(out)
        assert decision["admitted"] is True
        assert decision["machine"] == "m0" and decision["variant"] == "shared"

    def test_decide_against_cluster_file(self, tmp_path, capsys):
        cluster = {
            "machines": [
                {"name": "busy", "tenants": [
                    {"tenant": "r0", "workload": "G-CC", "threads": 6,
                     "solo_s": 9.0},
                ]},
            ]
        }
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(cluster))
        code, out, _ = run(capsys, [
            "sched", "decide", "G-CC:4", "--cluster", str(path),
            "--workloads", ROSTER_ARG, "--threads", "4",
        ])
        # 6 + 4 threads exceed the 8 slots: nothing fits, exit 1.
        assert code == 1
        assert "reject" in out

    def test_decide_policy_flag(self, capsys):
        code, out, _ = run(capsys, [
            "sched", "decide", "swaptions:2", "--policy", "baseline",
            "--workloads", ROSTER_ARG, "--threads", "4", "--json",
        ])
        assert code == 0
        assert json.loads(out)["policy"] == "baseline"


class TestSchedCliGuards:
    def test_sched_flags_refused_elsewhere(self, usage_error):
        for flags in (["--trace", "seed:0:2"], ["--policy", "baseline"],
                      ["--machines", "2"], ["--slo", "1.4"]):
            usage_error(["fig5", *flags, "--workloads", ROSTER_ARG], flags[0])
        # decide prices one arrival: no trace, no replan.
        usage_error(["sched", "decide", "G-CC:4", "--trace", "seed:0:2"], "--trace")
        usage_error(["sched", "decide", "G-CC:4", "--replan"], "--replan")

    def test_unknown_subcommand(self, usage_error):
        usage_error(["sched", "frobnicate"], "'frobnicate'")

    def test_unknown_policy_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["sched", "replay", "--policy", "oracle"])


class TestJsonListings:
    def test_store_ls_json(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        assert main([
            "fig5", "--store", store, "--workloads", "G-CC,swaptions",
        ]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["store", "--store", store, "--json"])
        assert code == 0
        listing = json.loads(out)
        assert set(listing) == {"store", "counts", "records"}
        assert listing["counts"]["records"] >= 1
        assert any(r["artifact"] == "fig5" for r in listing["records"])

    def test_scenario_ls_json(self, tmp_path, capsys):
        store = str(tmp_path / "st")
        assert main([
            "scenario", "run", "G-CC:2", "swaptions:2", "G-PR:2",
            "--store", store, "--workloads", "G-CC,swaptions,G-PR",
        ]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, [
            "scenario", "ls", "--store", store, "--json",
        ])
        assert code == 0
        listing = json.loads(out)
        assert set(listing) == {"store", "scenarios"}
        assert listing["scenarios"]  # the N-way cell landed in the tier
