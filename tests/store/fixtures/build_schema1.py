"""Build ``schema1/``: a store written by the last version with store
schema 1 (commit a101225), for the migrate tests.

Run it with that version's code first on the path, from a checkout of
it::

    PYTHONPATH=src:. python <this file> OUT_DIR

The store holds nine entries, three per cache section: three in segment
logs (one of them ending in a torn entry), three in one-line per-entry
files and three in two-line per-entry files, which that version wrote
with its own ``explode`` test helper.  ``expected.json`` lists each
entry's section, key, and the sha256 of its JSON-encoded result as that
version read it back.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

from repro.core import ExperimentConfig
from repro.session import Scenario, Session
from repro.store import ResultStore
from repro.store.codec import encode_corun, encode_scenario_result, encode_solo
from tests.store.layouts import explode

ENCODERS = {"solo": encode_solo, "corun": encode_corun, "scenario": encode_scenario_result}
CONFIG = ExperimentConfig(workloads=("G-CC", "fotonik3d", "swaptions"), jitter=0.0)
CELLS = {
    "segments": (("G-CC", 4), ("G-CC", "fotonik3d", 2), ("G-CC:1", "fotonik3d:1", "swaptions:1")),
    "one-line": (("swaptions", 2), ("swaptions", "G-CC", 1), ("fotonik3d:1", "swaptions:1", "G-CC:1")),
    "two-line": (("fotonik3d", 1), ("fotonik3d", "swaptions", 2), ("swaptions:2", "G-CC:1")),
}


def write(root, cells):
    session = Session(CONFIG, store=root)
    (workload, threads), (fg, bg, threads2), trio = cells
    session.solo(workload, threads=threads)
    session.run_scenario(Scenario.pair(fg, bg, threads=threads2))
    session.run_scenario(Scenario.of(*trio))


def main(out):
    out = Path(out)
    shutil.rmtree(out, ignore_errors=True)
    root = out / "store"
    write(root, CELLS["segments"])
    for layout in ("one-line", "two-line"):
        other = out / layout
        write(other, CELLS[layout])
        explode(other, layout)
        for path in other.glob("*/*/*.json"):
            target = root / path.relative_to(other)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
        shutil.rmtree(other)
    store = ResultStore(root)
    expected = []
    for section in ENCODERS:
        for entry in store.cache_entries(section):
            key = store.entry_head(entry)["key"]
            fp = key["engine_fingerprint"]
            if section == "solo":
                result = store.get_solo(fp, key["workload"], key["threads"])
            elif section == "corun":
                result = store.get_corun(fp, key["fg"], key["bg"], key["fg_threads"], key["bg_threads"])
            else:
                result = store.get_scenario(fp, Scenario.from_payload(key["scenario"]))
            expected.append({
                "section": section,
                "key": key,
                "path": entry.path,
                "encoded_sha256": hashlib.sha256(
                    json.dumps(ENCODERS[section](result)).encode()
                ).hexdigest(),
            })
    store.close()
    torn = sorted(root.glob("scenario/*/*.jsonl"))[0]
    whole = torn.read_bytes()
    torn.write_bytes(whole + whole[: len(whole) // 2])
    (out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"{len(expected)} entries in {root}")


if __name__ == "__main__":
    main(sys.argv[1])
