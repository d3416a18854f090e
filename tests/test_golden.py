"""The determinism contract, pinned: a cold reduced ``run-all`` must give
the run ids, decoded store sections and per-section entry counts in
``tests/golden/run_all.json``, and a warm ``run-all`` over the same
store must serve every cell from disk and give the same run ids.

Regenerate with ``PYTHONPATH=src python scripts/pin_golden.py`` (see
that script for the ``--bump`` rule).
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "pin_golden", ROOT / "scripts" / "pin_golden.py"
)
pin_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_golden)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A cold run-all into an empty store, then a warm one over it."""
    store = tmp_path_factory.mktemp("golden") / "store"
    cold = pin_golden.collect(store)
    warm = pin_golden.run_all(store)
    return cold, warm


@pytest.fixture(scope="module")
def golden():
    return json.loads(pin_golden.GOLDEN.read_text())


def test_golden_covers_every_artifact_and_section(golden):
    from repro.session import runner_names

    assert golden["workloads"] == pin_golden.WORKLOADS
    assert sorted(golden["run_ids"]) == sorted(runner_names())
    assert sorted(golden["sections"]) == sorted(pin_golden.SECTIONS)
    assert sorted(golden["entries"]) == sorted(pin_golden.SECTIONS)
    assert all(count > 0 for count in golden["entries"].values())


def test_cold_run_ids_match_golden(campaign, golden):
    cold, _ = campaign
    assert cold["run_ids"] == golden["run_ids"]


def test_decoded_store_sections_match_golden(campaign, golden):
    cold, _ = campaign
    assert cold["sections"] == golden["sections"]


def test_store_entry_counts_match_golden(campaign, golden):
    """A section digest over an empty or partial listing must not pass."""
    cold, _ = campaign
    assert cold["entries"] == golden["entries"]


def test_warm_run_all_serves_from_disk_with_same_run_ids(campaign):
    cold, warm = campaign
    cache = warm["cache"]
    assert cache["solo_misses"] == 0, cache
    assert cache["scenario_misses"] == 0, cache
    assert cache["solo_disk_hits"] > 0 and cache["scenario_disk_hits"] > 0, cache
    assert pin_golden.run_ids(warm) == cold["run_ids"]


def test_clashes_report_changed_and_dropped_values():
    pinned = {"run_ids": {"fig5": "a", "fig6": "b"}, "sections": {"solo": "x"}}
    fresh = {"run_ids": {"fig5": "a", "fig7": "c"}, "sections": {"solo": "y"}}
    assert pin_golden.clashes(pinned, fresh) == [
        "run_ids.fig6: pinned, but no longer produced",
        "sections.solo: now y, pinned x",
    ]
    assert pin_golden.clashes(pinned, pinned) == []
