"""A schema-2 store written by an earlier version still serves, byte for
byte.

``fixtures/schema2`` was written through a Session by an earlier
version (see ``fixtures/build_schema2.py``): a solo run, a plain pair,
an ``even``-policy pair with uneven threads, a way-masked pair and a
3-way consolidation.  Opened by this version, every cell must be a disk
hit with no miss, and decode to the result that version returned.  A
fresh write of the same cells must give the fixture's entries byte for
byte, so a change to a pair's section, kind, key bytes or packed
numbers fails here even when reads and writes change together.  After a
deliberate model change (``scripts/pin_golden.py --bump``), rebuild the
fixture with ``build_schema2.py``.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.session import ExperimentConfig, Scenario, Session
from repro.store import ResultStore
from repro.store.codec import encode_scenario_result, encode_solo

FIXTURE = Path(__file__).parent / "fixtures" / "schema2"
CONFIG = ExperimentConfig(workloads=("G-CC", "fotonik3d", "swaptions"), jitter=0.0)
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())
SOLO = EXPECTED[0]
CELLS = [(row, Scenario.from_payload(row["scenario"])) for row in EXPECTED[1:]]


def digest(encoded: dict) -> str:
    return hashlib.sha256(json.dumps(encoded).encode()).hexdigest()


def run_cells(session: Session):
    solo = session.solo(SOLO["workload"], threads=SOLO["threads"])
    return solo, session.run_scenarios([scenario for _, scenario in CELLS])


def entries(root: Path) -> dict[str, list[bytes]]:
    """Every whole entry of each shard (``<section>/<engine_fp>``), sorted."""
    out: dict[str, list[bytes]] = {}
    for segment in sorted(root.glob("*/*/*.jsonl")):
        lines = segment.read_bytes().splitlines(keepends=True)
        shard = out.setdefault(f"{segment.parent.parent.name}/{segment.parent.name}", [])
        shard += [b"".join(lines[i : i + 2]) for i in range(0, len(lines), 2)]
    return {shard: sorted(rows) for shard, rows in out.items()}


@pytest.fixture
def store_copy(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", root)
    return root


def test_the_fixture_holds_each_shape_in_its_section(store_copy):
    assert [row["cell"] for row in EXPECTED] == [
        "solo", "pair", "pair-even-uneven", "pair-way-masks", "three-way",
    ]
    counts = ResultStore(store_copy).describe()
    assert (counts["corun_entries"], counts["scenario_entries"]) == (2, 2)


def test_every_cell_serves_from_disk_with_its_pinned_digest(store_copy):
    session = Session(CONFIG, store=ResultStore(store_copy))
    solo, results = run_cells(session)
    stats = session.stats
    assert (stats.solo_misses, stats.scenario_misses) == (0, 0)
    assert (stats.solo_disk_hits, stats.scenario_disk_hits) == (1, len(CELLS))
    assert digest(encode_solo(solo)) == SOLO["encoded_sha256"]
    for (row, scenario), sres in zip(CELLS, results):
        assert session.scenario_identity(scenario)[2] == row["section"], row["cell"]
        assert digest(encode_scenario_result(sres.result)) == row["encoded_sha256"], row["cell"]


def test_a_fresh_write_gives_the_fixture_s_entry_bytes(tmp_path):
    root = tmp_path / "fresh"
    store = ResultStore(root)
    run_cells(Session(CONFIG, store=store))
    store.close()
    assert entries(root) == entries(FIXTURE / "store")
