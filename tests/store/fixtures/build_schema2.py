"""Build ``schema2/``: a store written by a schema-2 version, for the
test that a later version still serves it byte for byte
(``tests/store/test_schema2_fixture.py``).

Run it with the writing version's code first on the path, from a
checkout of it::

    PYTHONPATH=src:. python <this file> OUT_DIR

The store holds five cells written through a :class:`Session`: a solo
run, a plain pair, an ``even``-policy pair with uneven threads (both in
``corun/``, in two engine shards), a way-masked pair and a 3-way
consolidation (both in ``scenario/``), plus the solo references the
pairs and the 3-way were solved against.  ``expected.json`` lists each
cell and the sha256 of its JSON-encoded result as that version's
Session returned it.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

from repro.session import ExperimentConfig, Scenario, Session
from repro.store import ResultStore
from repro.store.codec import encode_scenario_result, encode_solo

CONFIG = ExperimentConfig(workloads=("G-CC", "fotonik3d", "swaptions"), jitter=0.0)
SOLO = ("swaptions", 2)
#: (cell id, scenario, the store section it lives in)
SCENARIOS = (
    ("pair", Scenario.pair("G-CC", "fotonik3d", threads=2), "corun"),
    (
        "pair-even-uneven",
        Scenario.pair("fotonik3d", "swaptions", threads=2, bg_threads=1, llc_policy="even"),
        "corun",
    ),
    (
        "pair-way-masks",
        Scenario.pair("G-CC", "swaptions", threads=2).with_ways([0xF0, 0x0F]),
        "scenario",
    ),
    ("three-way", Scenario.of("G-CC:1", "fotonik3d:1", "swaptions:1"), "scenario"),
)


def digest(encoded: dict) -> str:
    return hashlib.sha256(json.dumps(encoded).encode()).hexdigest()


def main(out):
    out = Path(out)
    shutil.rmtree(out, ignore_errors=True)
    root = out / "store"
    store = ResultStore(root)
    session = Session(CONFIG, store=store)
    workload, threads = SOLO
    expected = [{
        "cell": "solo",
        "workload": workload,
        "threads": threads,
        "encoded_sha256": digest(encode_solo(session.solo(workload, threads=threads))),
    }]
    for (name, scenario, section), sres in zip(
        SCENARIOS, session.run_scenarios([s for _, s, _ in SCENARIOS])
    ):
        expected.append({
            "cell": name,
            "section": section,
            "scenario": scenario.payload(),
            "encoded_sha256": digest(encode_scenario_result(sres.result)),
        })
    store.close()
    (out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"{len(expected)} cells in {root}")


if __name__ == "__main__":
    main(sys.argv[1])
