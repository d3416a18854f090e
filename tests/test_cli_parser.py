"""Tests for the CLI's parser tree: one parser per verb and sub-verb,
shared flags accepted on either side of the verb, bare verbs running
their default sub-verb, and misuse refused as a usage error."""

import sys
from pathlib import Path
from unittest import mock

import pytest

import repro.cli
from repro.cli import main, parse_args

ROOT = Path(__file__).resolve().parent.parent

#: (flag, value or None for a switch, namespace dest, parsed value)
SHARED = [
    ("--store", "S", "store", "S"),
    ("--workloads", "G-CC,swaptions", "workloads", "G-CC,swaptions"),
    ("--threads", "2", "threads", 2),
    ("--repetitions", "5", "repetitions", 5),
    ("--seed", "7", "seed", 7),
    ("--executor", "thread", "executor", "thread"),
    ("--parallel", None, "parallel", True),
    ("--workers", "3", "workers", 3),
    ("--telemetry", None, "telemetry", True),
    ("-v", None, "verbose", 1),
    ("-q", None, "quiet", True),
]

VERBS = [
    ["fig5"],
    ["list"],
    ["store", "show", "fig5"],
    ["sched", "decide", "G-CC:4"],
    ["serve"],
    ["traffic", "gen"],
]


class TestSharedFlags:
    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    @pytest.mark.parametrize("flag, value, dest, expected", SHARED, ids=lambda x: str(x))
    def test_same_value_before_and_after_the_verb(self, verb, flag, value, dest, expected):
        given = [flag] if value is None else [flag, value]
        before = parse_args([*given, *verb])
        after = parse_args([*verb, *given])
        assert getattr(before, dest) == getattr(after, dest) == expected

    def test_root_store_survives_a_verb_that_does_not_repeat_it(self):
        for verb in (
            ["fig5"], ["run-all", "--shard", "1/2"], ["store"], ["store", "ls"],
            ["store", "show", "fig5"], ["scenario", "ls"], ["sched", "replay"],
            ["trace", "export", "--format", "csv"], ["serve", "start", "--port", "0"],
            ["traffic", "stats"],
        ):
            assert parse_args(["--store", "S", *verb]).store == "S", verb

    def test_unset_flags_take_their_defaults(self):
        args = parse_args(["fig5"])
        assert (args.store, args.threads, args.repetitions, args.seed) == (None, 4, 3, 0)
        assert (args.verbose, args.quiet, args.csv) == (0, False, False)


class TestBareVerbs:
    @pytest.mark.parametrize(
        "argv, func, dest, value",
        [
            (["store", "--store", "S", "--json"], "_store_ls", "json", True),
            (["sched", "--trace", "seed:0:2", "--replan"], "_sched_replay", "replan", True),
            (["serve", "--port", "0", "--budget-s", "0.5"], "_serve_start", "budget_s", 0.5),
            (["trace", "--store", "S", "--json"], "_trace_summary", "json", True),
            (["traffic", "--trace", "diurnal:0", "--rate", "3"], "_traffic_show", "rate", 3.0),
            (["scenario", "--llc-policy", "static"], "_scenario_artifact", "llc_policy", "static"),
        ],
    )
    def test_bare_verb_runs_its_default_with_its_flags(self, argv, func, dest, value):
        args = parse_args(argv)
        assert args.func is getattr(repro.cli, func)
        assert getattr(args, dest) == value

    def test_flags_before_the_sub_verb_are_kept(self):
        assert parse_args(["store", "--json", "ls", "--store", "S"]).json is True
        assert parse_args(["sched", "--trace", "seed:0:2", "replay"]).trace == "seed:0:2"
        assert parse_args(["serve", "--port", "9", "start"]).port == 9


class TestPositionals:
    def test_declared_positionals(self):
        assert parse_args(["store", "show", "fig5"]).target == "fig5"
        args = parse_args(["store", "diff", "a.json", "b.json"])
        assert (args.manifest_a, args.manifest_b) == ("a.json", "b.json")
        assert parse_args(["scenario", "run", "G-CC:2", "Stream:2"]).placements == [
            "G-CC:2", "Stream:2",
        ]
        assert parse_args(["sched", "decide", "G-CC:4"]).arrival == "G-CC:4"
        args = parse_args(["serve", "submit", "G-CC:4"])
        assert (args.arrival, args.tenant) == ("G-CC:4", None)
        assert parse_args(["serve", "submit", "G-CC:4", "t7"]).tenant == "t7"


class TestHoursWithTraffic:
    def test_replay_surfaces_take_hours(self):
        for verb in (["sched", "replay"], ["serve", "drain"], ["traffic", "gen"]):
            args = parse_args([*verb, "--traffic", "model.json", "--hours", "2"])
            assert (args.traffic, args.hours) == ("model.json", 2.0)


class TestGivenFlags:
    """``args.given`` tells an explicit flag from its default, even when
    the two hold the same value (an explicit ``--seed 0`` still beats a
    model file's own seed)."""

    @pytest.mark.parametrize(
        "argv",
        [["traffic", "gen", "--seed", "0"], ["--seed", "0", "traffic", "gen"]],
        ids=["after-verb", "before-verb"],
    )
    def test_flag_on_the_command_line_is_given(self, argv):
        args = parse_args(argv)
        assert "seed" in args.given and args.seed == 0

    def test_default_is_not_given(self):
        args = parse_args(["traffic", "gen"])
        assert "seed" not in args.given and args.seed == 0


class TestOwnFlagsOnly:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fig5", "--cluster", "c.json"], "--cluster"),
            (["sched", "replay", "--cluster", "c.json"], "--cluster"),
            (["fig5", "--host", "h"], "--host"),
            (["sched", "replay", "--port", "1"], "--port"),
            (["serve", "submit", "G-CC:4", "--budget-s", "1"], "--budget-s"),
            (["serve", "drain", "--no-replan"], "--no-replan"),
            (["serve", "drain", "--policy", "baseline"], "--policy"),
            (["serve", "start", "--solo-s", "1"], "--solo-s"),
            (["serve", "stop", "--json"], "--json"),
            (["fig5", "--dry-run"], "--dry-run"),
            (["store", "ls", "--dry-run"], "--dry-run"),
            (["store", "show", "fig5", "--json"], "--json"),
            (["store", "diff", "a", "b", "--csv"], "--csv"),
            (["fig5", "--manifest", "m.json"], "--manifest"),
            (["list", "--csv"], "--csv"),
            (["traffic-replay", "--csv"], "--csv"),
            (["sched", "decide", "G-CC:4", "--hours", "2"], "--hours"),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else x,
    )
    def test_a_flag_the_verb_does_not_take_is_a_usage_error(self, argv, flag, usage_error):
        usage_error(argv, flag)

    def test_a_missing_verb_is_a_usage_error(self, usage_error):
        usage_error(["--store", "S"], "VERB")

    def test_help_lists_only_the_verbs_own_flags(self, capsys):
        for argv, shown, hidden in (
            (["fig5"], ["--csv", "--store"], ["--trace", "--json", "--port"]),
            (["sched", "replay"], ["--trace", "--hours", "--replan"], ["--cluster", "--csv"]),
            (["store", "diff"], ["A", "B"], ["--json", "--dry-run"]),
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert all(flag in out for flag in shown), out
            assert not any(flag in out for flag in hidden), out


class TestPerfbenchDaemon:
    def test_daemon_process_argv_parses(self, tmp_path, monkeypatch):
        """The serve benchmark launches ``repro serve start`` through
        ``perfbench/serve_harness.py``: its argv must stay valid."""

        class Launched(Exception):
            pass

        def popen(argv, **_):
            launched.append(argv)
            raise Launched

        launched = []
        with mock.patch.dict(sys.modules):
            monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
            from serve_harness import DaemonProcess

            monkeypatch.setattr("subprocess.Popen", popen)
            with pytest.raises(Launched):
                DaemonProcess(ROOT, tmp_path / "st", tmp_path / "log").start()
        assert launched[0][1:5] == ["-m", "repro.cli", "serve", "start"]
        args = parse_args(launched[0][3:])
        assert args.func is repro.cli._serve_start
        assert (args.store, args.port) == (str(tmp_path / "st"), 0)
