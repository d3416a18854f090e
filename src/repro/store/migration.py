"""``repro store migrate``: rewrite a store of an earlier layout into
schema 2.

Schema 1 kept every number of a cache entry as float text: in segment
logs (line 1 the JSON envelope with the result minus its timeline, line
2 the timeline as JSON) and, in versions before segment logs, in a file
per entry (``<shard>/<slug>-<keyfp>.json``: one line with the timeline
inside the result, or the same two lines without ``keyfp``).  This build
reads none of them; :func:`migrate` rewrites them into schema-2
segments (:mod:`repro.store.codec`) and then flips ``store.json``.

An entry migrates when the schema-1 reader would have served it: line 1
parses, its schema is 1 and its kind is the section's, its line 2
matches the digest line 1 carries, its key is one this version builds
for that section (the shard's engine fingerprint, the fields a put
writes, a scenario the store places there) and its result decodes.  Of
several copies of a key, the last one in the segments (in name order)
that checks out wins, else the per-entry file's, as the schema-1 reader
served them.  What does not check out was a miss before and is dropped.

The whole rewrite runs under the **exclusive** store lock, in three
steps, so that a run cut short anywhere loses no entry that was
readable before and a re-run finishes the job:

1. per shard, every migrated entry goes to one new segment, written
   under a temporary name and published with :func:`os.replace`; keys a
   schema-2 entry of the shard already serves are left out, so a re-run
   writes no second copy;
2. ``store.json`` is rewritten with schema 2;
3. every file of a shard that holds no schema-2 entry (schema-1
   segments, per-entry files, temporary files) is removed.  Whether a
   segment holds one is decided entry by entry, so a stray line before
   its first entry does not make it stale.

Migrating a store that is already at schema 2 only removes such files
(it migrates their entries first).  Records, the record index and
manifests have their own schema (:data:`~repro.store.store.RECORD_SCHEMA`)
and are left as they are.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import ReproError, StoreError
from repro.session.scenario import Scenario
from repro.store.codec import (
    SCHEMA_VERSION,
    decode_corun,
    decode_scenario_result,
    decode_solo,
    entry_key,
    pack_entry,
    unpack_entry,
)
from repro.store.locking import store_lock
from repro.store.store import (
    _SCAN_BUFFER,
    _SECTIONS,
    ResultStore,
    _atomic_write_text,
    _listdir,
    _read_json,
    _scan_entries,
)

_DECODERS = {"solo": decode_solo, "corun": decode_corun, "scenario": decode_scenario_result}


def _canonical_key(section: str, engine_fp: str, key: Any) -> dict[str, Any] | None:
    """``key`` as a put of this version builds it (the field order its
    bytes follow), or ``None`` if it is not a key of ``section`` in the
    shard of ``engine_fp``: a scenario the store places in another
    section (a plain pair found under ``scenario/``) is not."""
    try:
        if key["engine_fingerprint"] != engine_fp:
            return None
        if section == "solo":
            home, canon = "solo", ResultStore._solo_key(engine_fp, key["workload"], key["threads"])
        elif section == "corun":
            home, canon = ResultStore._address(engine_fp, Scenario.pair(
                key["fg"], key["bg"], threads=key["fg_threads"], bg_threads=key["bg_threads"]
            ))
        else:
            home, canon = ResultStore._address(engine_fp, Scenario.from_payload(key["scenario"]))
    except (KeyError, TypeError, ValueError, ReproError):
        return None
    return canon if home == section and canon == key else None


def _schema1_entry(raw: bytes, section: str, engine_fp: str) -> tuple[dict[str, Any], Any] | None:
    """The key and the decoded result of one schema-1 entry (a segment's
    two lines, or a per-entry file's bytes), or ``None`` if the schema-1
    reader would not have served it."""
    head, _, rest = raw.partition(b"\n")
    try:
        data = json.loads(head)
    except ValueError:
        return None
    if (
        not isinstance(data, dict)
        or data.get("schema") != 1
        or data.get("kind") != section
        or not isinstance(data.get("result"), dict)
    ):
        return None
    result = data["result"]
    try:
        if "timeline" not in result:
            # The digest covers line 2 without its line terminator, which
            # text-mode writes translated on some platforms.
            line2 = rest.rstrip(b"\r\n")
            if data.get("timeline_sha256") != hashlib.sha256(line2).hexdigest()[:16]:
                return None
            result["timeline"] = json.loads(line2)
        key = _canonical_key(section, engine_fp, data.get("key"))
        return None if key is None else (key, _DECODERS[section](result))
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _is_schema2(raw: bytes) -> bool:
    """Whether an entry's line 1 is a schema-2 envelope."""
    try:
        head = json.loads(raw.partition(b"\n")[0])
    except ValueError:
        return False
    return isinstance(head, dict) and head.get("schema") == SCHEMA_VERSION


def _whole_entries(path: str) -> list[tuple[str, bytes]]:
    """``(keyfp, bytes)`` of every whole entry of a segment."""
    found: list[tuple[str, int, int]] = []
    with open(path, "rb", _SCAN_BUFFER) as fh:
        _scan_entries(fh, 0, lambda keyfp, offset, size: found.append((keyfp, offset, size)))
        out = []
        for keyfp, offset, size in found:
            fh.seek(offset)
            out.append((keyfp, fh.read(size)))
    return out


def _migrate_shard(section: str, shard_dir: str, engine_fp: str) -> tuple[int, int, list[str]]:
    """Step 1 for one shard: returns the entries written, the entries
    dropped, and the files step 3 removes: every file that holds no
    schema-2 entry (a file that cannot be read is left as it is)."""
    have: dict[str, list[bytes]] = {}  # schema-2 copies by key fingerprint
    files: list[bytes] = []  # per-entry files
    old: list[bytes] = []  # the other entries of segments
    stale: list[str] = []
    for name in sorted(_listdir(shard_dir)):
        path = f"{shard_dir}/{name}"
        try:
            if name.endswith(".json"):
                with open(path, "rb") as fh:
                    files.append(fh.read())
            elif name.endswith(".jsonl"):
                current = False
                for keyfp, raw in _whole_entries(path):
                    if _is_schema2(raw):
                        have.setdefault(keyfp, []).append(raw)
                        current = True
                    else:
                        old.append(raw)
                if current:
                    continue
        except OSError:
            continue
        stale.append(path)
    entries: dict[str, bytes] = {}
    dropped = 0
    # Per-entry files first, then segments in name order: the last copy
    # that checks out wins, so a segment copy takes a file's place.
    for raw in files + old:
        got = _schema1_entry(raw, section, engine_fp)
        if got is None:
            dropped += 1
            continue
        key, result = got
        data, keyfp = entry_key(key)
        if not any(unpack_entry(copy, section, keyfp, data) for copy in have.get(keyfp, ())):
            entries[keyfp] = pack_entry(section, keyfp, data, result)
    if entries:
        name = f"{os.getpid()}-{os.urandom(4).hex()}.jsonl"
        tmp = f"{shard_dir}/{name}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(b"".join(entries.values()))
        os.replace(tmp, f"{shard_dir}/{name}")
    return len(entries), dropped, stale


def migrate(root: str | os.PathLike[str]) -> dict[str, Any]:
    """Rewrite every cache entry under ``root`` that is not in schema 2
    into schema 2 (see the module docstring); returns a summary: the
    schema the store had, the entries migrated and dropped, and the
    files removed."""
    root = Path(root)
    if not root.is_dir():
        raise StoreError(f"no store at {root}")
    with store_lock(root, exclusive=True):
        meta = _read_json(root / "store.json")
        schema = meta.get("schema") if isinstance(meta, dict) else None
        if schema is not None and not (isinstance(schema, int) and schema <= SCHEMA_VERSION):
            raise StoreError(
                f"store at {root} has schema {schema!r}; this build migrates to "
                f"schema {SCHEMA_VERSION} only"
            )
        migrated = dropped = 0
        stale: list[str] = []
        for section in _SECTIONS:
            base = f"{root}/{section}"
            for engine_fp in sorted(_listdir(base)):
                shard_dir = f"{base}/{engine_fp}"
                if not os.path.isdir(shard_dir):
                    continue
                written, bad, old = _migrate_shard(section, shard_dir, engine_fp)
                migrated += written
                dropped += bad
                stale += old
        if schema != SCHEMA_VERSION:
            _atomic_write_text(
                root / "store.json",
                json.dumps({"schema": SCHEMA_VERSION, "tool": "repro-interference"}, indent=1),
            )
        for path in stale:
            try:
                os.unlink(path)
            except OSError:
                pass
    return {
        "from_schema": schema,
        "migrated": migrated,
        "dropped": dropped,
        "removed_files": len(stale),
    }
