"""Self-tests of the benchmark.

They are not part of the repository's tier-1 suite (``testpaths`` is
``tests``); run them from the repository root with::

    python3 -m pytest perfbench/tests -q

They replay real traffic days, so they take a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (perfbench/run.py)
import tracing  # noqa: E402
from workloads import DayWarm  # noqa: E402

from repro.store import ResultStore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SEED = 7


def _run(workload: str, trace: int, seconds: float = 3) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def layers():
    """Per-layer metrics of one traced run per workload, run on demand."""
    cache: dict[str, dict] = {}

    def get(workload: str) -> dict:
        if workload not in cache:
            cache[workload] = _run(workload, trace=1)
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", ["day_warm", "serve_warm"])
def test_warm_workloads_run_the_engine_zero_times(layers, workload):
    m = layers(workload)
    assert m["engine.calls"] == 0
    assert m["engine.cells"] == 0
    assert m["store.get_calls"] > 0
    assert m["store.get_hit_ratio"] == 1.0


def test_sweep_batches_are_wide_and_day_batches_narrow(layers):
    assert layers("sweep_cold")["engine.cells_per_call"] >= 100
    assert layers("day_cold")["engine.cells_per_call"] < 20


@pytest.mark.parametrize("workload", ["day_cold", "day_warm", "sweep_cold", "serve_warm"])
def test_traced_run_attributes_wall_time_to_named_layers(layers, workload):
    assert layers(workload)["trace.coverage"] >= 0.9


def test_engine_is_the_largest_self_time_on_day_cold(layers):
    m = layers("day_cold")
    times = {k: v for k, v in m.items() if k.endswith(("self_s", ".get_s", ".put_s", "depart_s"))}
    assert max(times, key=times.get) == "engine.self_s"


def test_store_reads_and_scoring_dominate_day_warm(layers):
    m = layers("day_warm")
    times = {k: v for k, v in m.items() if k.endswith(("self_s", ".get_s", ".put_s", "depart_s"))}
    top = m["store.get_s"] + m["sched.score_self_s"]
    assert top > 0.5 * sum(times.values())
    assert sorted(times, key=times.get)[-2:] in (
        ["store.get_s", "sched.score_self_s"], ["sched.score_self_s", "store.get_s"])


def test_untraced_run_prints_every_end_to_end_metric():
    m = _run("sweep_cold", trace=0, seconds=1)
    assert all(v > 0 for v in m.values())


def test_planted_store_read_slowdown_shows_in_store_get_s_and_throughput(tmp_path):
    """A 2x slower ``ResultStore.get_scenario``, planted through the
    benchmark's own wrapper, must move ``store.get_s`` and push
    ``day_warm``'s ``ops_per_s`` down by more than its bound."""
    w = DayWarm(SEED, 3, ROOT, tmp_path)
    w.warmup()

    def throughput(units):
        return sum(u.ops for u in units) / sum(u.wall_s for u in units)

    def traced_get_s() -> float:
        rec = tracing.Recorder()
        tracing.install(rec)
        try:
            w.prepare(0)
            u = w.unit(0)
        finally:
            rec.uninstall()
        return rec.self_times(u.lo, u.hi)[0]["store.get_s"]

    base, slow = [], []
    for _ in range(2):  # alternate, so machine drift hits both sides
        w.prepare(0)
        base += run.measure(w, 3)
        with tracing.Patches() as patches:
            tracing.plant_slowdown(patches, ResultStore, "get_scenario", 2.0)
            w.prepare(0)
            slow += run.measure(w, 3)
    assert throughput(slow) < throughput(base) * (1 - BOUND["ops_per_s"])

    plain = traced_get_s()
    with tracing.Patches() as patches:
        tracing.plant_slowdown(patches, ResultStore, "get_scenario", 2.0)
        slowed = traced_get_s()
    assert slowed > 1.6 * plain
    assert all(ok for _, ok, _ in w.checks)
