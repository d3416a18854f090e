"""Tests for scripts/check_docs.py — the doc-vs-CLI drift checker —
plus the acceptance check itself: every documented invocation parses."""

import importlib.util
from pathlib import Path

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def invocations_in(tmp_path, text, *, fenced=True):
    doc = tmp_path / "doc.md"
    doc.write_text(text)
    return [argv for _, argv in check_docs.invocations(doc, fenced=fenced)]


class TestLineExtraction:
    def test_only_fenced_cli_lines_are_kept(self):
        text = "\n".join(
            [
                "Use `repro fig5 --store DIR` in prose — not extracted.",
                "```bash",
                "PYTHONPATH=src python -m repro.cli fig5 --store .st",
                "PYTHONPATH=src python -m pytest -x -q --store bogus",
                "ls --color",
                "```",
                "python -m repro.cli run-all --shard 1/2  # outside the fence",
            ]
        )
        commands = [c for _, c in check_docs.iter_commands(text)]
        argvs = [a for c in commands for a in check_docs.cli_invocations(c)]
        assert argvs == [["fig5", "--store", ".st"]]

    def test_backslash_continuations_are_followed(self):
        text = "\n".join(
            [
                "```bash",
                "PYTHONPATH=src python -m repro.cli sched replay \\",
                "    --trace seed:0:10 --policy baseline",
                "--orphan-flag-not-part-of-any-invocation",
                "```",
            ]
        )
        commands = list(check_docs.iter_commands(text))
        assert commands[0] == (
            2,
            "PYTHONPATH=src python -m repro.cli sched replay "
            "--trace seed:0:10 --policy baseline",
        )
        assert check_docs.cli_invocations(commands[0][1]) == [
            ["sched", "replay", "--trace", "seed:0:10", "--policy", "baseline"]
        ]
        assert check_docs.cli_invocations(commands[1][1]) == []

    def test_flags_are_parsed_out_of_kept_lines(self, tmp_path):
        argvs = invocations_in(
            tmp_path, "```bash\nrepro traffic gen --seed 5 --out day.json\n```\n"
        )
        assert argvs == [["traffic", "gen", "--seed", "5", "--out", "day.json"]]

    def test_shell_syntax_is_stripped(self):
        cases = {
            "time PYTHONPATH=src python -m repro.cli fig5 --csv | tee out.txt":
                [["fig5", "--csv"]],
            "PYTHONPATH=src python -m repro.cli serve start --port 0 > d.out 2>d.err & PID=$!":
                [["serve", "start", "--port", "0"]],
            "repro serve metrics --port $PORT; repro serve stop --port ${PORT}":
                [["serve", "metrics", "--port", "0"], ["serve", "stop", "--port", "0"]],
            "repro trace summary   # per-span accounting": [["trace", "summary"]],
            "run: PYTHONPATH=src python -m repro.cli store ls --store .st":
                [["store", "ls", "--store", ".st"]],
            "from repro import Session": [],
            "if PYTHONPATH=src python -m repro.cli store ls --store X 2> open.err; then":
                [["store", "ls", "--store", "X"]],
            "repro fig5 --csv > out.txt|tee y": [["fig5", "--csv"]],
        }
        for command, expected in cases.items():
            assert check_docs.cli_invocations(command) == expected, command

    def test_ci_workflow_lines_need_no_fence(self, tmp_path):
        text = "    run: |\n      PYTHONPATH=src python -m repro.cli fig5 \\\n        --csv\n"
        assert invocations_in(tmp_path, text, fenced=False) == [["fig5", "--csv"]]
        assert invocations_in(tmp_path, text) == []


class TestValidation:
    def test_known_flags_cover_the_live_surface(self):
        known = check_docs.known_flags()
        for flag in ("--store", "--trace", "--traffic", "--hours", "--json"):
            assert flag in known

    def test_the_verbs_share_the_flat_parsers_option_strings(self):
        # Every option string the live parsers accept (42): adding or
        # dropping a flag must update this pin and the docs it parses.
        assert check_docs.known_flags() == {
            "-h", "--help", "-v", "--verbose", "-q", "--quiet", "--telemetry",
            "--workloads", "--threads", "--repetitions", "--seed", "--csv",
            "--store", "--executor", "--parallel", "--workers", "--llc-policy",
            "--smt", "--ways", "--pin", "--dry-run", "--shard", "--manifest", "--trace",
            "--traffic", "--hours", "--scale", "--rate", "--policy", "--machines",
            "--slo", "--cluster", "--replan", "--host", "--port", "--budget-s",
            "--no-replan", "--solo-s", "--format", "--out", "--limit", "--json",
        }

    def test_a_stale_flag_is_caught(self):
        parser = build_parser()
        problem = check_docs.parse_error(parser, ["fig5", "--frobnicate-quickly"])
        assert "--frobnicate-quickly" in problem
        assert check_docs.parse_error(parser, ["fig5", "--csv"]) is None

    def test_a_flag_on_the_wrong_verb_is_caught(self):
        # --trace exists (on sched replay, serve drain, traffic) but
        # fig5 does not take it.
        parser = build_parser()
        problem = check_docs.parse_error(parser, ["fig5", "--trace", "seed:0:2"])
        assert problem and "--trace" in problem
        assert check_docs.parse_error(parser, ["sched", "replay", "--trace", "seed:0:2"]) is None

    def test_help_is_not_stale(self):
        assert check_docs.parse_error(build_parser(), ["store", "diff", "--help"]) is None


class TestCommittedDocs:
    def test_readme_and_docs_have_no_stale_flags(self):
        # The acceptance criterion itself: every invocation the README,
        # docs/ and the CI workflow show must parse on the live CLI.
        checked = list(check_docs.stale_invocations(ROOT))
        sources = {path.name for path, *_ in checked}
        assert {"README.md", "trace-format.md", "ci.yml"} <= sources
        stale = [
            (str(path.relative_to(ROOT)), lineno, problem)
            for path, lineno, _, problem in checked
            if problem is not None
        ]
        assert stale == []

    def test_cli_usage_docstring_parses(self):
        commands = check_docs.iter_commands(repro.cli.__doc__, fenced=False)
        usage = [argv for _, c in commands for argv in check_docs.cli_invocations(c)]
        assert len(usage) >= 30
        parser = build_parser()
        assert [argv for argv in usage if check_docs.parse_error(parser, argv)] == []

    def test_both_doc_pages_exist_and_are_readme_linked(self):
        readme = (ROOT / "README.md").read_text()
        for page in ("docs/architecture.md", "docs/trace-format.md"):
            assert (ROOT / page).is_file(), page
            assert page in readme, f"README does not link {page}"
