"""Store helpers shared by the store tests and CI: read an entry's two
lines, and rewrite a store in the per-entry layouts of earlier versions.

Imports nothing but the program and the standard library, so CI can run
``explode`` with ``PYTHONPATH=src:.``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.session import Scenario
from repro.store import CacheEntry, ResultStore

SECTIONS = ("solo", "corun", "scenario")

#: The per-entry layouts of earlier versions: the timeline inside line 1
#: (before entries split), or on line 2 after an envelope with its digest.
LAYOUTS = ("one-line", "two-line")


def entry_lines(root: Path, entry: CacheEntry) -> tuple[bytes, bytes]:
    """Line 1 and line 2 of a listed entry, each with its newline."""
    with open(Path(root) / entry.path, "rb") as fh:
        fh.seek(entry.offset)
        return fh.readline(), fh.readline()


def entry_file(store: ResultStore, section: str, key: dict) -> Path:
    """Where versions before segment logs kept the entry of ``key``."""
    fp = key["engine_fingerprint"]
    if section == "solo":
        return Path(store._solo_file(fp, key["workload"], key["threads"]))
    if section == "corun":
        args = (key["fg"], key["bg"], key["fg_threads"], key["bg_threads"])
        return Path(store._corun_file(fp, *args))
    scenario = Scenario.from_payload(key["scenario"])
    return Path(store._scenario_file(fp, scenario, scenario.payload()))


def explode(root: Path, layout: str) -> int:
    """Rewrite every segment entry under ``root`` as a file of its own at
    :func:`entry_file`, in ``layout`` (one of :data:`LAYOUTS`), then
    delete the segments.  Returns the number of files written."""
    root = Path(root)
    store = ResultStore(root)
    written = 0
    for section in SECTIONS:
        for entry in store.cache_entries(section):
            if not entry.path.endswith(".jsonl"):
                continue
            line1, line2 = entry_lines(root, entry)
            envelope = json.loads(line1)
            del envelope["keyfp"]
            if layout == "one-line":
                del envelope["timeline_sha256"]
                envelope["result"]["timeline"] = json.loads(line2)
                data = json.dumps(envelope).encode()
            else:
                data = json.dumps(envelope).encode() + b"\n" + line2
            entry_file(store, section, envelope["key"]).write_bytes(data)
            written += 1
    store.close()
    for section in SECTIONS:
        for segment in (root / section).glob("*/*.jsonl"):
            segment.unlink()
    return written
