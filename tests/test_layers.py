"""Each process loads only the layers it runs.

* No module of a layer beneath the artifacts (``repro.core``) imports
  them or the CLI, not even inside a function.
* ``import repro``, each layer perfbench imports, and a ``serve start``
  daemon over a whole admission pass load no artifact runner, no
  measurement tool, no trace profiler or generator, no cache model, no
  campaign/manifest/migration code, no trace export and no process
  pool.  They are checked in fresh interpreters, from ``sys.modules``:
  ``-X importtime`` does not log modules ``importlib`` loads.
* Nothing loads numpy, the two solvers or the miss-ratio curves before
  it solves: not those imports, not ``repro list`` or any verb's
  ``--help``, and not a daemon over a whole warm admission pass.  Two
  cold cells still load them and give the pinned bytes, and the
  calibrated profiles are built once per process, however many
  threads ask first.
* Every name a package exports still resolves, ``repro list`` is the
  same bytes and imports no runner, and the registry's runner table
  agrees with what the runner modules register.
"""

import ast
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.sched import PlacementEvaluator, parse_trace, replay_trace
from repro.serve import ServeClient, drain_trace
from repro.session import (
    ExperimentConfig,
    Runner,
    Scenario,
    Session,
    get_runner,
    register_runner,
    runner_names,
)
from repro.session import registry
from repro.session.registry import BUILTIN_RUNNERS, runner_title

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: The layers beneath ``repro.core``.
LOWER_LAYERS = (
    "engine", "machine", "trace", "workloads", "session", "store", "sched", "serve",
    "traffic", "telemetry",
)

#: What no entry point below loads.
NEVER = re.compile(
    r"repro\.(core|tools)(\..*)?"
    r"|repro\.trace\.(profiler|synth)"
    r"|repro\.machine\.(cache|hierarchy|prefetcher)"
    r"|repro\.store\.(campaign|manifest|migration)"
    r"|repro\.telemetry\.export"
    r"|concurrent\.futures\.process"
)

#: What only a solve loads: numpy, the solvers and the curves.
SOLVERS = re.compile(
    r"numpy(\..*)?"
    r"|repro\.engine\.(interval|batch|bandwidth|llc_sharing)"
    r"|repro\.trace\.(mrc|reuse)"
)

#: The packages whose ``__all__`` must resolve.
PACKAGES = (
    "repro", "repro.core", "repro.engine", "repro.machine", "repro.sched", "repro.serve",
    "repro.session", "repro.store", "repro.telemetry", "repro.tools", "repro.trace",
    "repro.traffic", "repro.workloads",
)

#: The warm serve pass: its roster and trace (arrivals and departures).
SERVE_ROSTER = ("G-CC", "swaptions")
SERVE_TRACE = "seed:0:8:2:0.5"

#: Two cold cells solved in a fresh process: the digest of their JSON
#: codec form.
TWO_CELLS_DIGEST = "aac4b38c3ca2ca38"

#: ``print(json.dumps(sorted(sys.modules)))`` as the last line of a script.
DUMP = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_fresh(code: str) -> "tuple[str, set[str]]":
    """Run ``code`` in a fresh interpreter: (its output before the
    module dump, the modules loaded at its end)."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{DUMP}"],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return out + "\n" if out else "", set(json.loads(last))


def never_loaded(modules: "set[str]") -> "list[str]":
    return sorted(m for m in modules if NEVER.fullmatch(m))


def solvers_loaded(modules: "set[str]") -> "list[str]":
    return sorted(m for m in modules if SOLVERS.fullmatch(m))


def runner_modules(modules: "set[str]") -> "set[str]":
    return modules & {b.module for b in BUILTIN_RUNNERS.values()}


class TestImportRule:
    def _imports(self, path: Path) -> "list[tuple[int, str]]":
        """Every module an import statement in ``path`` names, with its line."""
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(node.lineno, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                found.append((node.lineno, node.module))
                found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
        return found

    def test_no_lower_layer_imports_the_artifacts_or_the_cli(self):
        bad = [
            f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for layer in LOWER_LAYERS
            for path in sorted((SRC / layer).rglob("*.py"))
            for line, name in self._imports(path)
            if re.fullmatch(r"repro\.(core|cli)(\..*)?", name)
        ]
        assert bad == []

    def test_the_scan_sees_imports_inside_functions(self):
        # session.py imports the store only inside _resolve_store.
        names = [name for _, name in self._imports(SRC / "session" / "session.py")]
        assert "repro.store.ResultStore" in names


class TestWhatEntryPointsLoad:
    @pytest.mark.parametrize(
        "code",
        [
            "import repro",
            "import repro.engine",
            "import repro.sched",
            "import repro.serve",
            "import repro.session",
            "import repro.store",
            "import repro.traffic",
            "import repro.trace",
            "import repro.workloads.registry",
        ],
    )
    def test_a_layer_loads_no_verb_only_module(self, code):
        """Nor numpy or a solver."""
        _, modules = run_fresh(code)
        assert never_loaded(modules) == []
        assert runner_modules(modules) == set()
        assert solvers_loaded(modules) == []

    def test_import_repro_loads_only_the_package(self):
        _, modules = run_fresh("import repro")
        assert {m for m in modules if m.startswith("repro")} == {"repro", "repro._lazy"}

    def test_repro_list_and_every_help_load_no_solver(self):
        code = (
            "import argparse, contextlib, io\n"
            "from repro.cli import build_parser, main\n"
            "def verbs(parser, argv=()):\n"
            "    yield argv\n"
            "    for action in parser._actions:\n"
            "        if isinstance(action, argparse._SubParsersAction):\n"
            "            for name, sub in action.choices.items():\n"
            "                yield from verbs(sub, (*argv, name))\n"
            "helps = [[*argv, '--help'] for argv in verbs(build_parser())]\n"
            "for argv in [['list'], *helps]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            main(argv)\n"
            "        except SystemExit:\n"
            "            pass\n"
            "print(len(helps))\n"
        )
        out, modules = run_fresh(code)
        assert int(out) > 40  # the root parser, every verb and every sub-verb
        assert solvers_loaded(modules) == []
        assert never_loaded(modules) == []

    def test_a_serve_pass_loads_no_verb_only_module(self, tmp_path):
        """``repro serve start`` over a whole warm admission pass: a
        trace's arrivals and departures, then the read endpoints.  The
        daemon dumps ``sys.modules`` as it exits after SIGTERM.  Its
        store, warmed in this process by the same replay, answers every
        lookup, so the daemon loads no solver either."""
        store = tmp_path / "st"
        trace = parse_trace(SERVE_TRACE, SERVE_ROSTER)
        config = ExperimentConfig(workloads=SERVE_ROSTER, threads=2)
        local = replay_trace(
            trace, PlacementEvaluator(Session(config, store=store)),
            machines=2, policy="interference", replan=True,
        )
        dump = tmp_path / "modules.json"
        script = (
            "import atexit, json, sys\n"
            "atexit.register(lambda: open(sys.argv[1], 'w').write(json.dumps(sorted(sys.modules))))\n"
            "from repro.cli import main\n"
            "raise SystemExit(main(sys.argv[2:]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(dump), "serve", "start",
             "--store", str(store), "--port", "0",
             "--workloads", ",".join(SERVE_ROSTER), "--threads", "2"],
            env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serve: listening on" in line, (line, proc.stderr.read())
            port = int(line.split()[3].rsplit(":", 1)[1])

            async def warm_pass():
                async with ServeClient("127.0.0.1", port) as client:
                    await client.wait_ready()
                    drained = await drain_trace(client, trace)
                    await client.cluster()
                    metrics = await client.metrics()
                    await client.decisions()
                    return drained, metrics

            drained, metrics = asyncio.run(warm_pass())
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert drained.report.decision_log() == local.decision_log()
        cache = metrics["cache"]
        assert (cache["solo_misses"], cache["scenario_misses"]) == (0, 0)
        assert cache["scenario_disk_hits"] > 0
        modules = set(json.loads(dump.read_text()))
        assert "repro.serve.daemon" in modules
        assert never_loaded(modules) == []
        assert runner_modules(modules) == set()
        assert solvers_loaded(modules) == []


class TestFirstSolve:
    def test_a_warm_pass_with_every_reference_on_disk_loads_no_solver(self, tmp_path):
        """Cells and a solo reference that all come from the store: the
        pass plans no solve, so it loads neither the batch engine (which
        solves a cold pass's references) nor numpy."""
        store = tmp_path / "st"
        config = ExperimentConfig(workloads=SERVE_ROSTER, threads=2)
        pairs = [Scenario.pair(a, b, threads=2) for a in SERVE_ROSTER for b in SERVE_ROSTER]
        Session(config, store=store).run_scenarios(pairs)
        out, modules = run_fresh(
            "import json\n"
            "from repro.session import ExperimentConfig, Scenario, Session\n"
            f"roster = {SERVE_ROSTER!r}\n"
            "session = Session(ExperimentConfig(workloads=roster, threads=2),"
            f" store={str(store)!r})\n"
            "session.run_scenarios("
            "[Scenario.pair(a, b, threads=2) for a in roster for b in roster])\n"
            "session.solo('G-CC', threads=2)\n"
            "print(json.dumps(session.stats.snapshot()))\n"
        )
        stats = json.loads(out)
        assert (stats["scenario_disk_hits"], stats["solo_disk_hits"]) == (4, 1)
        assert stats["scenario_misses"] == stats["solo_misses"] == 0
        assert solvers_loaded(modules) == []

    def test_two_cold_cells_load_the_solvers_and_give_the_pinned_bytes(self):
        code = (
            "import hashlib, json\n"
            "from repro.session import ExperimentConfig, Scenario, Session\n"
            "from repro.store.codec import encode_scenario_result\n"
            "session = Session(ExperimentConfig(workloads=('G-CC', 'swaptions'), threads=2))\n"
            "results = session.run_scenarios([\n"
            "    Scenario.pair('G-CC', 'swaptions', threads=2),\n"
            "    Scenario.pair('swaptions', 'G-CC', threads=2),\n"
            "])\n"
            "blob = json.dumps([encode_scenario_result(r.result) for r in results]).encode()\n"
            "print(hashlib.sha256(blob).hexdigest()[:16], session.stats.scenario_misses)\n"
        )
        out, modules = run_fresh(code)
        assert out == f"{TWO_CELLS_DIGEST} 2\n"
        assert {"numpy", "repro.engine.interval", "repro.engine.batch", "repro.trace.mrc"} <= modules

    def test_threads_that_ask_first_build_the_profiles_once(self):
        """Eight threads' first lookups (more threads than cores, a short
        switch interval) return one object, the one ``get_all_profiles``
        holds; the build is slowed so that every thread asks while the
        first one builds."""
        code = (
            "import sys, threading, time\n"
            "from repro.workloads import calibration\n"
            "from repro.workloads.registry import get_all_profiles, get_profile\n"
            "build, builds = calibration._build_profiles, []\n"
            "def slow_build():\n"
            "    builds.append(threading.get_ident())\n"
            "    time.sleep(0.2)\n"
            "    return build()\n"
            "calibration._build_profiles = slow_build\n"
            "barrier, got = threading.Barrier(8), []\n"
            "def first():\n"
            "    barrier.wait()\n"
            "    got.append(get_profile('G-PR'))\n"
            "threads = [threading.Thread(target=first) for _ in range(8)]\n"
            "sys.setswitchinterval(1e-6)\n"
            "try:\n"
            "    for t in threads:\n"
            "        t.start()\n"
            "    for t in threads:\n"
            "        t.join(timeout=60)\n"
            "finally:\n"
            "    sys.setswitchinterval(0.005)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "held = get_all_profiles()['G-PR']\n"
            "print(len(builds), len(got), all(p is held for p in got))\n"
        )
        out, _ = run_fresh(code)
        assert out == "1 8 True\n"


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves(self, package):
        import importlib

        pkg = importlib.import_module(package)
        missing = [name for name in pkg.__all__ if not hasattr(pkg, name)]
        assert missing == []

    def test_a_lazy_name_is_the_defining_modules_object(self):
        import repro
        import repro.core
        import repro.trace
        from repro.sched import classify, policy
        from repro.session import session
        from repro.trace import synth

        assert repro.ExperimentConfig is session.ExperimentConfig
        assert repro.core.Jitter is session.Jitter
        assert repro.core.classify_nway is repro.classify_nway is classify.classify_nway
        assert repro.core.contiguous_split is policy.contiguous_split
        assert repro.trace.synth is synth is sys.modules["repro.trace.synth"]

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no attribute 'fig5'"):
            repro.core.fig5


class TestRunnerTable:
    def test_repro_list_is_pinned_and_imports_no_runner(self):
        out, modules = run_fresh("from repro.cli import main; main(['list'])")
        assert out == (ROOT / "tests" / "golden" / "repro_list.txt").read_text()
        assert runner_modules(modules) == set()
        assert never_loaded(modules) == []

    def test_each_module_registers_exactly_its_table_rows(self):
        for name in BUILTIN_RUNNERS:
            get_runner(name)
        registered = {
            name: (cls.__module__, cls.title, cls.order, cls.artifact)
            for name, cls in registry._RUNNERS.items()
            if cls.__module__ in {b.module for b in BUILTIN_RUNNERS.values()}
        }
        assert registered == {name: tuple(b) for name, b in BUILTIN_RUNNERS.items()}
        assert runner_names() == sorted(BUILTIN_RUNNERS, key=lambda n: BUILTIN_RUNNERS[n].order)

    def test_a_lookup_imports_only_that_runners_module(self):
        code = (
            "import json, sys\n"
            "from repro.session.registry import BUILTIN_RUNNERS, get_runner\n"
            "mods = {b.module for b in BUILTIN_RUNNERS.values()}\n"
            "seen = []\n"
            "for name in ('fig3', 'sched-replay', 'traffic-replay', 'fig5', 'cat-sweep'):\n"
            "    get_runner(name)\n"
            "    seen.append(sorted(mods & set(sys.modules)))\n"
            "print(json.dumps(seen))\n"
        )
        out, _ = run_fresh(code)
        assert json.loads(out) == [
            ["repro.core.bandwidth_sweep"],
            ["repro.core.bandwidth_sweep", "repro.sched.runner"],
            ["repro.core.bandwidth_sweep", "repro.sched.runner", "repro.traffic.runner"],
            ["repro.core.bandwidth_sweep", "repro.core.consolidation", "repro.sched.runner",
             "repro.traffic.runner"],
            ["repro.core.bandwidth_sweep", "repro.core.catsweep", "repro.core.consolidation",
             "repro.sched.runner", "repro.traffic.runner"],
        ]

    def test_a_runner_registered_at_run_time_lists_and_runs(self, capsys):
        @register_runner("echo-roster", title="the configured roster", artifact=False, order=999)
        class EchoRunner(Runner):
            def execute(self, session):
                return list(session.config.workloads)

        try:
            assert runner_names()[-1] == "echo-roster"
            assert "echo-roster" not in runner_names(artifact_only=True)
            assert runner_title("echo-roster") == "the configured roster"
            config = ExperimentConfig(workloads=("G-CC", "swaptions"))
            assert Session(config).run("echo-roster").result == ["G-CC", "swaptions"]
            assert main(["list"]) == 0
            assert "  echo-roster  the configured roster\n" in capsys.readouterr().out
        finally:
            registry._RUNNERS.pop("echo-roster")
            registry._INSTANCES.pop("echo-roster", None)
