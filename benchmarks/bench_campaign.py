"""Multi-process campaigns: serial run-all vs N workers on one store.

Quantifies what ``repro campaign`` buys over a serial ``run-all`` on a
cold ("warm-free") store, and what any campaign costs over a warm one:

* **serial** — one session executes every registered runner and
  freezes the manifest (the PR 2 baseline);
* **campaign x2 / x4** — :func:`repro.store.run_campaign` forks worker
  processes that steal artifacts off the shared registry heaviest
  first (greedy LPT via claim files; costs come from the store index
  when it has history).  Cells a sibling already persisted are disk
  hits, not re-simulations;
* **warm campaign** — the same campaign over the populated store:
  every cell a disk hit, no simulation anywhere.

Correctness is asserted unconditionally: the campaign manifest must be
``store diff``-identical to the serial one (content-addressed run ids,
so identity means bit-identical cells) and every artifact claimed
exactly once.  The wall-clock assertion is honest about the host: with
a single CPU the workers only timeslice, so near-linear speedup is
asserted only when the machine can physically provide it.
"""

import os
import shutil
import time
from pathlib import Path

from repro.core import ExperimentConfig
from repro.session import Session, runner_names
from repro.store import ResultStore, diff_manifests, load_manifest, run_campaign, write_manifest
from repro.workloads.calibration import APPLICATIONS

from conftest import env_workloads

WORKLOADS = env_workloads(APPLICATIONS[:6])


def _serial(root) -> float:
    session = Session(ExperimentConfig(workloads=WORKLOADS), store=ResultStore(root))
    t0 = time.perf_counter()
    session.run_all(include_extensions=True)
    write_manifest(session, root / "manifest.json", session.store)
    return time.perf_counter() - t0


def _campaign(root, workers: int) -> tuple[float, dict]:
    t0 = time.perf_counter()
    summary = run_campaign(
        ExperimentConfig(workloads=WORKLOADS), root, workers=workers
    )
    return time.perf_counter() - t0, summary


def test_campaign_speedup_and_equivalence(benchmark, artifacts, tmp_path):
    serial_root = tmp_path / "serial"
    serial_s = _serial(serial_root)
    # Keep the frozen campaign manifest as a build artifact (the CI
    # benchmark-smoke job uploads benchmarks/out/).
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    shutil.copy(serial_root / "manifest.json", out_dir / "manifest.json")

    c2_root = tmp_path / "c2"
    c2_s, c2 = _campaign(c2_root, 2)
    c4_root = tmp_path / "c4"
    c4_s, c4 = _campaign(c4_root, 4)
    warm_s, warm = _campaign(c2_root, 2)  # second pass over the warm store

    # Correctness: the 2-process campaign is cell-for-cell identical to
    # the serial one, and every artifact was claimed exactly once.
    names = runner_names(artifact_only=False)
    for summary in (c2, c4):
        claimed = [n for w in summary["workers"] for n in w["done"]]
        assert sorted(claimed) == sorted(names)
    diff = diff_manifests(load_manifest(serial_root), load_manifest(c2_root))
    assert not diff["changed"] and not diff["only_in_a"] and not diff["only_in_b"]

    # The warm campaign proves shared-cell reuse: zero cacheable-cell
    # simulations (the predictor's in-band bubble reporter is
    # uncacheable by design and may cost one solo per worker process).
    assert warm["cache"].get("solo_misses", 0) <= 2
    assert warm["cache"].get("scenario_misses", 0) == 0

    cpus = os.cpu_count() or 1
    if cpus >= 2:
        # With real cores behind the workers, the campaign must beat the
        # serial pass (the LPT claim order keeps the heavy artifacts off
        # one worker's tail; perfect linearity is bounded by the single
        # most expensive artifact's critical path).
        assert c2_s < serial_s, (c2_s, serial_s)

    artifacts(
        "campaign",
        "\n".join(
            [
                f"{len(names)}-artifact campaign on {len(WORKLOADS)} workloads "
                f"(host CPUs: {cpus})",
                f"serial run-all (cold)  : {serial_s * 1e3:8.1f} ms",
                f"campaign x2    (cold)  : {c2_s * 1e3:8.1f} ms"
                f"  ({serial_s / c2_s:5.2f}x vs serial)",
                f"campaign x4    (cold)  : {c4_s * 1e3:8.1f} ms"
                f"  ({serial_s / c4_s:5.2f}x vs serial)",
                f"campaign x2    (warm)  : {warm_s * 1e3:8.1f} ms"
                f"  ({serial_s / warm_s:5.2f}x vs serial; all disk hits)",
            ]
        ),
        cells=len(names),
        wall_seconds=serial_s,
        speedup=serial_s / c2_s,
    )

    shutil.rmtree(c4_root)
    benchmark.pedantic(
        lambda: run_campaign(
            ExperimentConfig(workloads=WORKLOADS), c4_root, workers=2
        ),
        rounds=1,
        iterations=1,
    )
