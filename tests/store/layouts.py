"""The schema-1 fixture writer, shared by the store tests and CI: rewrite
a store into the cache layouts of schema 1, which ``repro store
migrate`` turns back into schema 2.

Schema 1 kept every number as float text.  Its layouts were segment
logs (line 1 the JSON envelope with ``keyfp`` first and the result minus
its timeline, line 2 the timeline as JSON) and, before segment logs, a
file per entry: one line with the timeline inside the result, or the
same two lines without ``keyfp``.  The program no longer writes any of
them, so this module keeps its own copy of their addresses and
envelopes.

Imports nothing but the program and the standard library, so CI can run
``downgrade`` with ``PYTHONPATH=src:.``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

from repro.session import Scenario
from repro.session.base import fingerprint
from repro.store import CacheEntry, ResultStore
from repro.store.codec import encode_corun, encode_scenario_result, encode_solo

SECTIONS = ("solo", "corun", "scenario")

#: The layouts of schema 1: segment logs, and per-entry files with the
#: timeline inside line 1 (before entries split) or on line 2.
LAYOUTS = ("segments", "one-line", "two-line")

ENCODERS = {"solo": encode_solo, "corun": encode_corun, "scenario": encode_scenario_result}

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def entry_lines(root: Path, entry: CacheEntry) -> tuple[bytes, bytes]:
    """Line 1 and line 2 of a listed entry, each with its newline."""
    with open(Path(root) / entry.path, "rb") as fh:
        fh.seek(entry.offset)
        return fh.readline(), fh.readline()


def read_back(store: ResultStore, section: str, key: dict):
    """The result stored under ``key``, through the public API."""
    fp = key["engine_fingerprint"]
    if section == "solo":
        return store.get_solo(fp, key["workload"], key["threads"])
    if section == "corun":
        return store.get_corun(fp, key["fg"], key["bg"], key["fg_threads"], key["bg_threads"])
    return store.get_scenario(fp, Scenario.from_payload(key["scenario"]))


def encoded(section: str, result) -> str:
    return json.dumps(ENCODERS[section](result))


# -- schema 1 ---------------------------------------------------------------------


def _safe(name: str) -> str:
    return _SAFE.sub("_", name) or "_"


def schema1_keyfp(section: str, key: dict) -> str:
    """The key fingerprint a schema-1 store addressed ``key`` by."""
    fp = key["engine_fingerprint"]
    if section == "solo":
        return fingerprint("solo", fp, key["workload"], key["threads"])
    if section == "corun":
        return fingerprint(
            "corun", fp, key["fg"], key["bg"], key["fg_threads"], key["bg_threads"]
        )
    return fingerprint("scenario", fp, fingerprint("scenario", key["scenario"]))


def schema1_file(root: Path, section: str, key: dict) -> Path:
    """Where versions before segment logs kept the entry of ``key``."""
    fp = key["engine_fingerprint"]
    keyfp = schema1_keyfp(section, key)
    if section == "solo":
        name = f"{_safe(key['workload'])}-t{key['threads']}"
    elif section == "corun":
        name = (
            f"{_safe(key['fg'])}-vs-{_safe(key['bg'])}"
            f"-{key['fg_threads']}x{key['bg_threads']}"
        )
    else:
        name = "+".join(f"{_safe(w)}.{t}" for w, t in key["scenario"]["apps"])[:64]
    return Path(root) / section / fp / f"{name}-{keyfp}.json"


def schema1_lines(section: str, key: dict, result) -> tuple[bytes, bytes]:
    """The two lines a schema-1 segment held for ``result`` under ``key``."""
    body = ENCODERS[section](result)
    timeline = json.dumps(body.pop("timeline"))
    head = json.dumps({
        "keyfp": schema1_keyfp(section, key),
        "schema": 1,
        "kind": section,
        "key": key,
        "result": body,
        "timeline_sha256": hashlib.sha256(timeline.encode()).hexdigest()[:16],
    })
    return f"{head}\n".encode(), f"{timeline}\n".encode()


def schema1_file_bytes(layout: str, line1: bytes, line2: bytes) -> bytes:
    """A per-entry file of ``layout`` ("one-line" or "two-line") holding
    the entry of a schema-1 segment's two lines."""
    envelope = json.loads(line1)
    del envelope["keyfp"]
    if layout == "two-line":
        return json.dumps(envelope).encode() + b"\n" + line2
    del envelope["timeline_sha256"]
    envelope["result"]["timeline"] = json.loads(line2)
    return json.dumps(envelope).encode()


def downgrade(root: Path, layout: str, *, torn: bool = False) -> int:
    """Rewrite every entry of the schema-2 store at ``root`` into
    ``layout`` (one of :data:`LAYOUTS`) of schema 1, delete its schema-2
    segments and mark the store schema 1.  With ``torn``, each schema-1
    segment ends in half of a copy of its first entry, as a crash
    mid-append left it.  Returns the number of entries written."""
    root = Path(root)
    store = ResultStore(root)
    rows = []
    for section in SECTIONS:
        for entry in store.cache_entries(section):
            key = store.entry_head(entry)["key"]
            rows.append((section, entry, key, read_back(store, section, key)))
    store.close()
    old = [root / entry.path for _, entry, _, _ in rows]
    segments: dict[Path, list[bytes]] = {}
    for section, entry, key, result in rows:
        line1, line2 = schema1_lines(section, key, result)
        if layout == "segments":
            shard = root / section / entry.engine_fp
            segments.setdefault(shard, []).append(line1 + line2)
        else:
            schema1_file(root, section, key).write_bytes(schema1_file_bytes(layout, line1, line2))
    for path in set(old):
        path.unlink()
    for shard, entries in segments.items():
        tail = [entries[0][: len(entries[0]) // 2]] if torn else []
        path = shard / f"{os.getpid()}-{os.urandom(4).hex()}.jsonl"
        path.write_bytes(b"".join(entries + tail))
    (root / "store.json").write_text(
        json.dumps({"schema": 1, "tool": "repro-interference"}, indent=1)
    )
    return len(rows)
