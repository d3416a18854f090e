"""Tests for the ``repro traffic`` CLI, the ``traffic-replay``
invocation, the ``--traffic`` plumbing into sched, and the flag guards."""

import json

import pytest

from repro.cli import _arrivals, main, parse_args
from repro.traffic import TrafficModel, WorkloadMix

ROSTER_ARG = "G-CC,fotonik3d,swaptions"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    model = TrafficModel(
        mix=WorkloadMix.uniform(("G-CC", "swaptions")), rate_per_hour=30.0
    )
    payload = model.payload()
    payload["seed"] = 2
    payload["hours"] = 2.0
    path.write_text(json.dumps(payload))
    return str(path)


class TestTrafficGen:
    def test_gen_writes_a_loadable_trace(self, tmp_path, capsys):
        out_path = tmp_path / "day.json"
        code, out, _ = run(capsys, [
            "traffic", "gen", "--workloads", ROSTER_ARG,
            "--hours", "2", "--rate", "30", "--out", str(out_path),
        ])
        assert code == 0 and "wrote" in out
        from repro.sched import load_trace

        trace = load_trace(out_path)
        assert len(trace.arrivals) > 0

    def test_gen_same_seed_byte_identical(self, capsys):
        argv = [
            "traffic", "gen", "--workloads", ROSTER_ARG,
            "--hours", "2", "--rate", "30", "--seed", "5", "--json",
        ]
        code, a, _ = run(capsys, argv)
        assert code == 0
        code, b, _ = run(capsys, argv)
        assert a == b

    def test_gen_from_model_file(self, model_file, capsys):
        code, out, _ = run(capsys, [
            "traffic", "gen", "--traffic", model_file, "--json",
        ])
        assert code == 0
        events = json.loads(out)["events"]
        assert all(e["workload"] in ("G-CC", "swaptions") for e in events)


    def test_explicit_seed_beats_the_model_files(self, tmp_path, capsys):
        model = TrafficModel(
            mix=WorkloadMix.uniform(("G-CC", "swaptions")), rate_per_hour=30.0
        )
        payload = model.payload()
        payload["seed"] = 5
        payload["hours"] = 2.0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        for flags, seed in ((["--seed", "2"], 2), ([], 5)):
            code, out, err = run(capsys, [
                "traffic", "gen", "--traffic", str(path), "--json", *flags,
            ])
            assert code == 0, err
            trace = model.generate(seed=seed, hours=2.0)
            assert json.loads(out) == json.loads(json.dumps(trace.payload()))


class TestTrafficShowStats:
    def test_show_renders_events(self, capsys):
        code, out, _ = run(capsys, [
            "traffic", "show", "--trace", "diurnal:0:4",
            "--workloads", ROSTER_ARG,
        ])
        assert code == 0
        assert "arrival" in out and "u0000" in out

    def test_stats_json_reports_peak_and_trough(self, capsys):
        code, out, _ = run(capsys, [
            "traffic", "stats", "--workloads", ROSTER_ARG, "--json",
        ])
        assert code == 0
        stats = json.loads(out)
        assert stats["total_arrivals"] > 0
        peak = stats["hours"][stats["peak_hour"]]["arrivals"]
        trough = stats["hours"][stats["trough_hour"]]["arrivals"]
        assert trough == 0 or peak / trough >= 3.0

    def test_unknown_subcommand(self, usage_error):
        usage_error(["traffic", "frobnicate"], "'frobnicate'")


class TestTrafficReplayCli:
    def test_replay_renders_hourly_tables(self, tmp_path, capsys):
        code, out, _ = run(capsys, [
            "traffic-replay", "--store", str(tmp_path / "st"),
            "--workloads", ROSTER_ARG, "--hours", "3", "--rate", "40",
        ])
        assert code == 0
        assert "traffic replay:" in out
        assert "by hour [baseline]" in out

    def test_replay_json_cold_then_warm_zero_miss(self, tmp_path, capsys):
        base = [
            "traffic-replay", "--store", str(tmp_path / "st"),
            "--workloads", ROSTER_ARG, "--hours", "3", "--rate", "40",
            "--json",
        ]
        code, out, _ = run(capsys, base)
        assert code == 0
        cold = json.loads(out)
        assert set(cold) == {"replay", "cache"}
        code, out, _ = run(capsys, base)
        warm = json.loads(out)
        assert warm["cache"].get("scenario_misses", 0) == 0
        assert warm["replay"] == cold["replay"]

    def test_replay_accepts_model_file(self, model_file, tmp_path, capsys):
        model = TrafficModel.from_payload(json.loads(open(model_file).read()))
        code, out, _ = run(capsys, [
            "traffic-replay", "--store", str(tmp_path / "st"),
            "--workloads", "G-CC,swaptions", "--traffic", model_file,
            "--json",
        ])
        assert code == 0
        replay = json.loads(out)["replay"]
        assert replay["model"]["rate_per_hour"] == 30.0
        # The file's own seed (2) and hours (2), as on every replay verb.
        assert (replay["seed"], replay["hours"]) == (2, 2.0)
        trace = model.generate(seed=2, hours=2.0)
        assert replay["trace"] == json.loads(json.dumps(trace.payload()))

    def test_replay_flags_override_model_file(self, model_file, tmp_path, capsys):
        model = TrafficModel.from_payload(json.loads(open(model_file).read()))
        code, out, _ = run(capsys, [
            "traffic-replay", "--store", str(tmp_path / "st"),
            "--workloads", "G-CC,swaptions", "--traffic", model_file,
            "--seed", "7", "--hours", "1", "--json",
        ])
        assert code == 0
        replay = json.loads(out)["replay"]
        assert (replay["seed"], replay["hours"]) == (7, 1.0)
        trace = model.generate(seed=7, hours=1.0)
        assert replay["trace"] == json.loads(json.dumps(trace.payload()))


class TestSchedAndServePlumbing:
    def test_sched_replay_accepts_traffic_file(self, model_file, tmp_path, capsys):
        model = TrafficModel.from_payload(json.loads(open(model_file).read()))
        # The file's own hours (2), then --hours overriding them.
        for flags, hours in (([], 2.0), (["--hours", "1"], 1.0)):
            code, out, err = run(capsys, [
                "sched", "replay", "--store", str(tmp_path / "st"),
                "--workloads", "G-CC,swaptions", "--traffic", model_file,
                "--json", *flags,
            ])
            assert code == 0, err
            comparison = json.loads(out)["comparison"]
            trace = model.generate(seed=2, hours=hours)
            assert comparison["trace"] == json.loads(json.dumps(trace.payload()))

    @pytest.mark.parametrize(
        "verb", [["traffic", "gen"], ["sched", "replay"], ["serve", "drain"]],
        ids="-".join,
    )
    @pytest.mark.parametrize(
        "flags, seed", [(["--seed", "7"], 7), ([], 2)], ids=["flag", "file"],
    )
    def test_explicit_seed_wins_on_every_replay_verb(self, model_file, verb, flags, seed):
        # Every replay surface resolves its day through the same helper.
        model = TrafficModel.from_payload(json.loads(open(model_file).read()))
        args = parse_args([*verb, "--traffic", model_file, *flags])
        trace = _arrivals(args, parse=None)
        assert trace.payload() == model.generate(seed=seed, hours=2.0).payload()

    def test_sched_replay_accepts_diurnal_spec(self, tmp_path, capsys):
        code, out, _ = run(capsys, [
            "sched", "replay", "--store", str(tmp_path / "st"),
            "--workloads", ROSTER_ARG, "--trace", "diurnal:0:10",
        ])
        assert code == 0 and "sched replay:" in out


class TestFlagGuards:
    def test_traffic_knobs_only_for_traffic(self, usage_error):
        for flag, value in (("--hours", "2"), ("--scale", "30"), ("--rate", "5")):
            usage_error(["fig2", flag, value], flag)
        # A replay's --hours only shapes a --traffic day; the default-day
        # knobs belong to 'traffic' and 'traffic-replay'.
        usage_error(["sched", "replay", "--rate", "5"], "--rate")
        usage_error(["serve", "drain", "--scale", "30"], "--scale")

    def test_traffic_file_only_for_traffic_surfaces(self, usage_error):
        usage_error(["fig2", "--traffic", "m.json"], "--traffic")
        usage_error(["sched", "decide", "G-CC:4", "--traffic", "m.json"], "--traffic")

    def test_trace_and_traffic_are_exclusive(self, usage_error):
        for verb in (["traffic", "show"], ["sched", "replay"], ["serve", "drain"]):
            usage_error(
                [*verb, "--trace", "diurnal:0", "--traffic", "m.json"],
                "--traffic", "not allowed with argument --trace",
            )
        # traffic-replay generates its own day: a model file, never a trace.
        usage_error(["traffic-replay", "--trace", "diurnal:0"], "--trace")

    def test_out_rejected_for_traffic_show(self, usage_error):
        usage_error(["traffic", "show", "--out", "x.json"], "--out")
        usage_error(["traffic", "stats", "--out", "x.json"], "--out")

    def test_replan_allowed_for_traffic_replay(self, tmp_path, capsys):
        code, _, err = run(capsys, [
            "traffic-replay", "--store", str(tmp_path / "st"),
            "--workloads", ROSTER_ARG, "--hours", "2", "--rate", "20",
            "--replan",
        ])
        assert code == 0, err

    def test_replan_still_rejected_elsewhere(self, usage_error):
        usage_error(["fig2", "--replan"], "--replan")
        # The daemon re-plans by default: it takes --no-replan instead.
        usage_error(["serve", "start", "--replan"], "--replan")
