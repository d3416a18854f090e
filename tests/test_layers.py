"""Each process loads only the layers it runs.

* No module of a layer beneath the artifacts (``repro.core``) imports
  them or the CLI, not even inside a function.
* ``import repro``, each layer perfbench imports, and a ``serve start``
  daemon over a whole admission pass load no artifact runner, no
  measurement tool, no trace profiler or generator, no cache model, no
  campaign/manifest/migration code, no trace export and no process
  pool.  They are checked in fresh interpreters, from ``sys.modules``:
  ``-X importtime`` does not log modules ``importlib`` loads.
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
from repro.session import (
    ExperimentConfig,
    Runner,
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

#: The packages whose ``__all__`` must resolve.
PACKAGES = (
    "repro", "repro.core", "repro.engine", "repro.machine", "repro.sched", "repro.serve",
    "repro.session", "repro.store", "repro.telemetry", "repro.tools", "repro.trace",
    "repro.traffic", "repro.workloads",
)

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
        ],
    )
    def test_a_layer_loads_no_verb_only_module(self, code):
        _, modules = run_fresh(code)
        assert never_loaded(modules) == []
        assert runner_modules(modules) == set()

    def test_import_repro_loads_only_the_package(self):
        _, modules = run_fresh("import repro")
        assert {m for m in modules if m.startswith("repro")} == {"repro", "repro._lazy"}

    def test_a_serve_pass_loads_no_verb_only_module(self, tmp_path):
        """``repro serve start`` over one admission, one departure and
        the read endpoints; the daemon dumps ``sys.modules`` as it
        exits after SIGTERM."""
        dump = tmp_path / "modules.json"
        script = (
            "import atexit, json, sys\n"
            "atexit.register(lambda: open(sys.argv[1], 'w').write(json.dumps(sorted(sys.modules))))\n"
            "from repro.cli import main\n"
            "raise SystemExit(main(sys.argv[2:]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(dump), "serve", "start",
             "--store", str(tmp_path / "st"), "--port", "0",
             "--workloads", "G-CC,swaptions", "--threads", "2"],
            env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serve: listening on" in line, (line, proc.stderr.read())
            port = int(line.split()[3].rsplit(":", 1)[1])

            async def admit_and_depart():
                from repro.serve import ServeClient

                async with ServeClient("127.0.0.1", port) as client:
                    await client.wait_ready()
                    rec = await client.arrival(
                        tenant="t0", workload="G-CC", threads=2, solo_s=1.0, time_s=0.0
                    )
                    await client.departure("t0", time_s=1.0)
                    await client.cluster()
                    await client.metrics()
                    await client.decisions()
                    return rec

            assert asyncio.run(admit_and_depart())["decision"]["admitted"]
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        modules = set(json.loads(dump.read_text()))
        assert "repro.serve.daemon" in modules
        assert never_loaded(modules) == []
        assert runner_modules(modules) == set()


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
