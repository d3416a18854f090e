"""Ablations of the engine's design choices (DESIGN.md Section 5).

Each ablation switches one mechanism off and reports how the headline
co-run predictions move — quantifying which mechanism carries which
paper phenomenon:

1. LLC sharing policy (pressure-weighted vs even vs static);
2. bandwidth queueing curve on/off;
3. prefetch bandwidth tax on/off;
4. memory-level-parallelism overlap on/off.
"""

from repro.engine import EngineConfig, IntervalEngine
from repro.tables import ascii_table
from repro.workloads.registry import get_profile

PAIRS = (("G-CC", "Stream"), ("G-CC", "fotonik3d"), ("fotonik3d", "IRSmk"))

CONFIGS = {
    "full model": EngineConfig(),
    "llc: even split": EngineConfig(llc_policy="even"),
    "llc: static (no sharing)": EngineConfig(llc_policy="static"),
    "no queueing": EngineConfig(use_queueing=False),
    "no prefetch bw tax": EngineConfig(prefetch_bandwidth_tax=False),
    "no MLP overlap": EngineConfig(use_mlp=False),
}


def _run_all() -> dict[str, dict[tuple[str, str], float]]:
    out: dict[str, dict[tuple[str, str], float]] = {}
    for label, cfg in CONFIGS.items():
        engine = IntervalEngine(config=cfg)
        cells = {}
        for fg, bg in PAIRS:
            cells[(fg, bg)] = engine.co_run(
                get_profile(fg), get_profile(bg)
            ).normalized_time
        out[label] = cells
    return out


def test_ablations(benchmark, artifacts):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    headers = ["config"] + [f"{fg}+{bg}" for fg, bg in PAIRS]
    rows = [
        [label] + [results[label][p] for p in PAIRS] for label in CONFIGS
    ]
    artifacts(
        "ablations",
        ascii_table(headers, rows, title="Ablations: normalized fg time per pair"),
    )

    full = results["full model"]
    # Removing LLC sharing must reduce the victim's pain.
    assert results["llc: static (no sharing)"][("G-CC", "Stream")] < full[("G-CC", "Stream")]
    # Queueing moves every pair's outcome, but stays bounded (removing
    # it can even *hurt* a victim second-order: the un-throttled
    # offender demands more bus and cache).
    for p in PAIRS:
        assert abs(results["no queueing"][p] - full[p]) / full[p] < 0.35, p
        assert 1.0 <= results["no queueing"][p] < 4.0, p
    # MLP moves every pair's outcome (normalized time is not monotone in
    # it: solo CPI inflates too) but stays physical.
    for p in PAIRS:
        assert 1.0 <= results["no MLP overlap"][p] < 4.0, p
    # Every mechanism contributes: the full model sits above the most
    # permissive ablation for the heavy pair.
    assert full[("G-CC", "Stream")] > 1.5
