"""Pin the determinism contract: run ids and decoded store sections.

``tests/golden/run_all.json`` holds two things, both computed from a
cold ``repro run-all --workloads G-CC,fotonik3d,swaptions`` into an
empty store:

* ``run_ids`` — the run id of every artifact.  A run id hashes the
  record's encoded result, so these pin every artifact's bytes.
* ``sections`` — one sha256 per store cache section (``solo``,
  ``corun``, ``scenario``) over the sorted ``(key, encoded result)``
  pairs, read back through a fresh :class:`~repro.store.ResultStore`.
  They pin decoded results, not file bytes, so the on-disk layout can
  change under the same pin.
* ``entries`` — the number of entries in each section, so a digest
  over an empty or partial listing can never pass.

``tests/test_golden.py`` checks both in tier-1.  To regenerate::

    PYTHONPATH=src python scripts/pin_golden.py

A pinned value is never changed silently: a run that disagrees with one
reports the clash and exits 1.  After a deliberate model change, pass
``--bump`` and review the diff of the golden file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "run_all.json"
WORKLOADS = "G-CC,fotonik3d,swaptions"
SECTIONS = ("solo", "corun", "scenario")


def run_all(store: Path) -> dict:
    """One ``repro run-all`` over ``store``; returns its manifest."""
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["run-all", "--store", str(store), "--workloads", WORKLOADS])
    if rc != 0:
        raise RuntimeError(f"run-all exited {rc}")
    return json.loads((store / "manifest.json").read_text())


def run_ids(manifest: dict) -> dict[str, str]:
    return {name: row["run_id"] for name, row in sorted(manifest["artifacts"].items())}


def _read_back(store, section: str, key: dict):
    """Encoded result of one entry, read through the store's public API
    the way the Session reads it: pairs are 2-app scenarios."""
    from repro.session import Scenario
    from repro.store.codec import encode_corun, encode_scenario_result, encode_solo

    fp = key["engine_fingerprint"]
    if section == "solo":
        result = store.get_solo(fp, key["workload"], key["threads"])
        encode = encode_solo
    elif section == "corun":
        result = store.get_scenario(fp, Scenario.pair(
            key["fg"], key["bg"], threads=key["fg_threads"], bg_threads=key["bg_threads"]
        ))
        encode = encode_corun
    else:
        result = store.get_scenario(fp, Scenario.from_payload(key["scenario"]))
        encode = encode_scenario_result
    if result is None:
        raise RuntimeError(f"{section} entry {key} does not read back")
    return encode(result)


def section_pairs(store_root: Path) -> dict[str, list]:
    """The sorted (key, encoded result) pairs of every cache section.

    Entries come from the store's own listing, keys from each entry's
    first line; results are read back through a fresh store, so the
    pairs are what a reader gets.
    """
    from repro.store import ResultStore

    store = ResultStore(store_root)
    out = {}
    for section in SECTIONS:
        pairs = []
        for entry in store.cache_entries(section):
            key = store.entry_head(entry)["key"]
            pairs.append((json.dumps(key, sort_keys=True), _read_back(store, section, key)))
        pairs.sort(key=lambda pair: pair[0])
        out[section] = pairs
    return out


def collect(store: Path) -> dict:
    """The golden values of a cold run-all into the empty ``store``."""
    ids = run_ids(run_all(store))
    pairs = section_pairs(store)
    return {
        "workloads": WORKLOADS,
        "run_ids": ids,
        "sections": {
            section: hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            for section, rows in pairs.items()
        },
        "entries": {section: len(rows) for section, rows in pairs.items()},
    }


def clashes(pinned: dict, fresh: dict, prefix: str = "") -> list[str]:
    """Every pinned value that ``fresh`` changes or drops."""
    out = []
    for key, value in pinned.items():
        name = f"{prefix}{key}"
        if key not in fresh:
            out.append(f"{name}: pinned, but no longer produced")
        elif isinstance(value, dict) and isinstance(fresh[key], dict):
            out.extend(clashes(value, fresh[key], f"{name}."))
        elif fresh[key] != value:
            out.append(f"{name}: now {fresh[key]}, pinned {value}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--bump", action="store_true",
        help="overwrite pinned values that changed (a deliberate model change)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = collect(Path(tmp) / "store")
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changed = clashes(pinned, fresh)
    for line in changed:
        print(f"clash: {line}", file=sys.stderr)
    if changed and not args.bump:
        print(f"{GOLDEN.name} left unchanged; pass --bump to accept", file=sys.stderr)
        return 1
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"{len(fresh['run_ids'])} run ids, {len(fresh['sections'])} section "
          f"digests and entry counts pinned in {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
