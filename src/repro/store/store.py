"""ResultStore: the on-disk half of the Session's measurement caches.

Layout under one store root (see the package docstring in
:mod:`repro.store` for the full tour)::

    <root>/
      store.json                  # schema version marker
      .lock                       # advisory store lock (repro.store.locking)
      solo/<engine_fp>/<pid>-<token>.jsonl       # solo entries
      corun/<engine_fp>/<pid>-<token>.jsonl      # plain-pair entries
      scenario/<engine_fp>/<pid>-<token>.jsonl   # every other scenario
      results/<artifact>/<run_id>.json
      index/<pid>-<token>.jsonl   # per-process index segments
      index.jsonl                 # legacy single-file index (read-only)
      manifest.json               # written by `repro run-all` / `repro campaign`

A cache entry is addressed by its section, the engine fingerprint that
names its shard, and its key fingerprint: one sha256 of the entry key's
bytes (:func:`~repro.store.codec.entry_key`; the key is
``engine_fingerprint x workload x threads`` for solos,
``engine_fingerprint x fg x bg x fg_threads x bg_threads`` for plain
pairs, ``engine_fingerprint x scenario payload`` for every other
scenario), so a warm store can never serve a result computed under a
different machine spec or engine configuration.

Each process appends the entries it writes to its own **segment** in
the entry's shard, ``<pid>-<token>.jsonl``, opened on its first put
there.  An entry is two lines in the packed layout of schema 2
(:mod:`repro.store.codec`): line 1 is a JSON envelope, key fingerprint
first, holding the key, the result's shape and its numbers as packed
float64; line 2 is the packed bandwidth timeline.  A store indexes a
shard on its first lookup there, reading each entry's key fingerprint
at a fixed offset of line 1, and reads an entry at its offset through a
descriptor it keeps open.  A read checks the entry against the key it
looks up byte for byte, checks its digest, and returns a result whose
timeline decodes on first use
(:class:`~repro.engine.results.LazyTimeline`).

Stores of schema 1 (float text in segments, and the per-entry files of
earlier versions) are not read: opening one raises
:class:`~repro.errors.StoreError` naming ``repro store migrate``
(:mod:`repro.store.migration`), which rewrites them into schema 2.

Durability rules under many concurrent writer processes:

* an entry is one ``os.write`` of both lines to a segment no other
  process appends to, so entries never interleave; a write that fails
  or comes up short retires its segment, so a torn entry can only be a
  segment's tail.  A scan indexes whole entries only (both lines end in
  a newline) and starts again at a torn tail, so an append that was
  still under way serves once it completes;
* readers treat torn, foreign-schema or colliding entries, and entries
  whose digest (over the rest of line 1 and line 2) does not hold, as
  cache misses (a crash mid-write costs a re-simulation, never a wrong
  number); a copy that fails is dropped from the index, and an older
  copy of the same key, if any, serves instead;
* cache writers take the store lock **shared**; ``gc``'s shard pruning,
  ``migrate`` and manifest freezes take it **exclusive**
  (:mod:`repro.store.locking`), so a prune can never interleave with an
  append.  A put takes the lock around its append; inside
  :meth:`ResultStore.writing` (a session pass's write-behind) a thread
  takes it once, at its first put, and holds it for the rest of the
  run.  Before each append a writer checks that its segment is still
  linked; if gc pruned the shard, it opens a new segment.  A reader may
  go on serving entries it indexed from a pruned segment it holds open:
  they are still right for their keys;
* threads may share a store (one lock guards its index, descriptors and
  appends); a store used after a fork checks its pid and opens segments
  of its own, never appending to its parent's;
* records and ``store.json`` are written to a ``.tmp-<pid>-<thread>``
  sibling and published with :func:`os.replace`;
* each process appends index lines to its **own** segment file under
  ``index/``; :meth:`RecordSink.entries` merges the legacy
  ``index.jsonl`` (written by pre-segment stores) with every segment,
  ordered by append timestamp, and a torn final line of any file is
  skipped.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple

from repro.engine.results import CoRunResult, ScenarioRunResult, SoloRunResult
from repro.errors import ScenarioError, StoreError, StoreWarning
from repro.store.locking import store_lock
from repro.session.base import fingerprint
from repro.session.record import RunRecord
from repro.session.registry import get_runner
from repro.session.scenario import Scenario
from repro.store.codec import SCHEMA_VERSION, entry_key, pack_entry, unpack_entry

#: Version of the record layout: index lines and campaign manifests.
#: Schema 2 changed the cache entries only, so it stays 1.
RECORD_SCHEMA = 1

#: The cache sections, one directory each under the store root.
_SECTIONS = ("solo", "corun", "scenario")

logger = logging.getLogger(__name__)

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _safe_name(name: str) -> str:
    """Filesystem-safe slug for a workload/artifact name (readability
    only — uniqueness comes from the key fingerprint suffix)."""
    return _SAFE.sub("_", name) or "_"


def _atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via a same-directory rename, so a
    crash mid-write leaves only an ignorable ``.tmp-*`` sibling; a write
    or rename that raises removes the sibling first.

    The temporary name is unique per writing thread: two threads
    publishing the same path never share (or rename away) each other's
    half-written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _read_json(path: Path) -> Any | None:
    """Parse a JSON file; missing, torn or non-JSON files are ``None``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


#: Line 1 of an appended entry opens with its key fingerprint at a fixed
#: offset, so a scan indexes entries without parsing JSON.
_KEYFP_PREFIX = b'{"keyfp": "'
_KEYFP_LEN = 12  # characters in a key fingerprint (codec.entry_key)

#: Offsets and sizes in a packed index entry (see :class:`_Shard`).
_LOW40 = (1 << 40) - 1

#: Read buffer of a segment scan: a third faster than the default 8 KiB.
_SCAN_BUFFER = 1 << 16

#: Read descriptors one store keeps open at most (besides the segments
#: it appends to); the oldest is closed first and reopens on demand.
_MAX_READERS = 64

_O_BINARY = getattr(os, "O_BINARY", 0)  # Windows: no newline translation

if hasattr(os, "pread"):
    _read_at = os.pread
else:  # pragma: no cover - Windows; every read holds the store's lock

    def _read_at(fd: int, size: int, offset: int) -> bytes:
        os.lseek(fd, offset, os.SEEK_SET)
        return os.read(fd, size)


def _listdir(path: str) -> list[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []


def _scan_entries(fh: BinaryIO, pos: int, found: Callable[[str, int, int], None]) -> int:
    """Call ``found(keyfp, offset, size)`` for each whole entry of a
    segment from byte ``pos`` on; returns the offset the next scan
    starts at.

    Reads line by line, so memory is bounded by one line.  An entry is
    whole when both its lines end in a newline; an incomplete tail stops
    the scan at its first byte.  A line that does not open an envelope
    is skipped, and so is an envelope followed by another envelope
    instead of its line 2.
    """
    start = len(_KEYFP_PREFIX)
    head = fh.readline()
    while head.endswith(b"\n"):
        if not head.startswith(_KEYFP_PREFIX):
            pos += len(head)
            head = fh.readline()
            continue
        line2 = fh.readline()
        if line2.startswith(_KEYFP_PREFIX):
            pos += len(head)
            head = line2
            continue
        if not line2.endswith(b"\n"):
            break
        size = len(head) + len(line2)
        found(head[start : start + _KEYFP_LEN].decode("latin-1"), pos, size)
        pos += size
        head = fh.readline()
    return pos


class _Segment:
    """One segment file: its number in its shard, its path, its
    descriptor (open while the store reads from it, and while it appends
    to it) and how many of its bytes are indexed."""

    __slots__ = ("number", "path", "fd", "indexed")

    def __init__(self, number: int, path: str) -> None:
        self.number = number
        self.path = path
        self.fd: int | None = None
        self.indexed = 0


class _Shard:
    """The in-memory index of one ``<section>/<engine_fp>`` directory."""

    __slots__ = ("dir", "index", "older", "segments", "numbers", "own")

    def __init__(self, shard_dir: str) -> None:
        self.dir = shard_dir
        #: key fingerprint -> its newest indexed copy, as one int:
        #: ``segment number << 80 | offset << 40 | size``.  An index of
        #: ints allocates nothing the garbage collector tracks, so
        #: building one does not bring the next full collection forward.
        self.index: dict[str, int] = {}
        #: key fingerprint -> its older copies, oldest first (for the few
        #: keys written more than once)
        self.older: dict[str, list[int]] = {}
        #: segments by number, and segment numbers by file name
        self.segments: list[_Segment] = []
        self.numbers: dict[str, int] = {}
        #: the segment this store appends to, once it has put an entry here
        self.own: _Segment | None = None

    def segment(self, name: str) -> _Segment:
        number = self.numbers.get(name)
        if number is None:
            number = self.numbers[name] = len(self.segments)
            self.segments.append(_Segment(number, f"{self.dir}/{name}"))
        return self.segments[number]

    def add(self, keyfp: str, segment: _Segment, offset: int, size: int) -> None:
        """Index a copy of a key as its newest."""
        newest = self.index.get(keyfp)
        if newest is not None:
            self.older.setdefault(keyfp, []).append(newest)
        self.index[keyfp] = segment.number << 80 | offset << 40 | size

    def drop(self, keyfp: str) -> None:
        """Forget the newest copy of a key; the next newest takes its place."""
        older = self.older.get(keyfp)
        if older:
            self.index[keyfp] = older.pop()
        else:
            del self.index[keyfp]


class CacheEntry(NamedTuple):
    """Where one cache entry lives: a row of :meth:`ResultStore.cache_entries`."""

    engine_fp: str
    keyfp: str
    #: The segment holding the entry, relative to the store root.
    path: str
    #: Where the entry's line 1 starts in ``path``.
    offset: int


def live_engine_fingerprints(spec: Any, engine_config: Any) -> set[str]:
    """Every engine fingerprint reachable from one machine spec and
    engine configuration — the allowlist :meth:`ResultStore.gc` keeps.

    The spec and its SMT variant are crossed with every ablation state
    of the engine config: both values of every boolean knob (derived
    from the dataclass fields, so a newly added knob is covered
    automatically — fig4 flips ``prefetchers_on``, the ablation
    benches flip the rest) and every LLC policy a scenario can select.
    Shards outside this set belong to no configuration any runner can
    address from ``(spec, engine_config)``.

    **CAT way-mask / pinning variants are covered by construction**:
    per-app way bitmaps and core pinnings live in the *scenario
    payload*, never in the engine configuration, so a ``cat-sweep`` or
    a masked/pinned ``scenario run`` persists its cells under exactly
    the fingerprints this set already enumerates (base policies x SMT
    variants).  If masks ever migrated into :class:`EngineConfig`,
    freshly written CAT shards would fall outside this allowlist and
    ``store gc`` would prune them — the regression tests pin a session
    identity for masked *and* pinned scenarios against this set.
    """
    from dataclasses import fields, replace
    from itertools import product

    from repro.engine.config import LLC_POLICIES

    axes: dict[str, tuple[Any, ...]] = {
        f.name: (True, False)
        for f in fields(engine_config)
        if isinstance(getattr(engine_config, f.name), bool)
    }
    axes["llc_policy"] = tuple(LLC_POLICIES)
    fps: set[str] = set()
    for machine in (spec, spec.smt_variant()):
        for combo in product(*axes.values()):
            cfg = replace(engine_config, **dict(zip(axes.keys(), combo)))
            fps.add(fingerprint(machine, cfg))
    return fps


def _int_or(value: Any, default: int = 0) -> int:
    """Defensive int coercion: ``None`` / junk becomes the default.

    Provenance dicts are attacker-free but not shape-free — a field can
    be *present and None* (e.g. a custom runner recording ``seed=None``),
    and indexing a record must never crash the run that produced it.
    """
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _float_or(value: Any, default: float = 0.0) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def _str_or(value: Any, default: str = "") -> str:
    return default if value is None else str(value)


@dataclass(frozen=True)
class IndexEntry:
    """One index line: where a streamed record landed."""

    run_id: str
    artifact: str
    #: Path of the record file, relative to the store root.
    path: str
    spec_fingerprint: str
    engine_fingerprint: str
    seed: int
    #: Cache hit/miss deltas of the run that produced the record.
    cache: dict[str, int]
    duration_s: float
    #: Non-default invocation arguments (repr'd); empty for a
    #: canonical ``session.run(name)`` execution.
    arguments: dict[str, str]
    #: Wall-clock append time; orders entries across index segments
    #: written by different processes (legacy lines default to 0.0 and
    #: therefore sort before every segmented line).  Cross-*host*
    #: sharding trusts the hosts' clocks: with skewed clocks, "latest"
    #: may prefer an older record — harmless between identical runs
    #: (run ids are content-addressed) but visible when configs change
    #: between shards.
    ts: float = field(default=0.0, compare=False)

    @property
    def is_canonical(self) -> bool:
        """True for a default-argument (whole-artifact) run."""
        return not self.arguments

    def to_line(self) -> str:
        return json.dumps({"schema": RECORD_SCHEMA, **asdict(self)})


def pick_latest(entries: "list[IndexEntry]") -> "IndexEntry | None":
    """The one selection policy for "the record behind an artifact":
    the latest entry, preferring canonical (default-argument) runs over
    nested subset runs.  Shared by :meth:`ResultStore.latest` and the
    from-store manifest builder so ``store show`` and a frozen
    manifest can never disagree about which record represents an
    artifact."""
    canonical = [e for e in entries if e.is_canonical]
    chosen = canonical or entries
    return chosen[-1] if chosen else None


class RecordSink:
    """Streams :class:`RunRecord`\\ s into ``results/`` + ``index/``.

    Run ids are content-addressed and timestamp-free — a fingerprint of
    the artifact name, the configuration provenance and the encoded
    payload — so re-running an identical experiment overwrites the same
    record file (idempotent) while the append-only index keeps the full
    invocation history.

    The index is **segmented**: each sink appends to a private
    ``index/<pid>-<token>.jsonl`` file (created on first append), so
    concurrent campaign processes sharing one store can never interleave
    or tear each other's lines.  :meth:`entries` merges every segment
    with the legacy single ``index.jsonl`` of pre-segment stores,
    ordered by append timestamp.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        #: Legacy single-file index: still read (and merged), never
        #: appended to by this version.
        self.index_path = self.root / "index.jsonl"
        self.index_dir = self.root / "index"
        self._segment: Path | None = None
        self._append_lock = threading.Lock()
        self._warned_foreign_schema = False

    def segment_path(self) -> Path:
        """This sink's private index segment (lazily named).

        ``pid`` makes the owner obvious in ``ls``; the random token is
        what guarantees uniqueness (two sinks in one process, pid reuse
        across reboots)."""
        if self._segment is None:
            token = os.urandom(4).hex()
            self._segment = self.index_dir / f"{os.getpid()}-{token}.jsonl"
        return self._segment

    def run_id_for(self, record: RunRecord) -> str:
        prov = record.provenance
        payload = get_runner(record.artifact).encode(record.result)
        fp = fingerprint(
            record.artifact,
            prov.get("spec_fingerprint"),
            prov.get("engine_fingerprint"),
            prov.get("seed"),
            prov.get("threads"),
            prov.get("repetitions"),
            prov.get("jitter"),
            prov.get("workloads"),
            payload,
        )
        return f"{_safe_name(record.artifact)}-{fp}"

    def record_relpath(self, record: RunRecord, run_id: str | None = None) -> str:
        # Accepting a precomputed run_id avoids re-encoding the payload
        # (run ids hash the full encoded result).
        run_id = run_id if run_id is not None else self.run_id_for(record)
        return f"results/{_safe_name(record.artifact)}/{run_id}.json"

    def append(self, record: RunRecord) -> IndexEntry:
        """Persist one record and index it; returns the index entry.

        The store root is materialized *before* the record file is
        written, the record file before its index line (an index line
        must never point at a record that does not exist yet), and the
        index line lands in this sink's private segment — a single
        buffered write under a thread lock, so even thread-pool callers
        sharing one sink cannot interleave lines.
        """
        from repro.telemetry.tracer import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("store.append", artifact=record.artifact) as sp:
                entry = self._append_impl(record)
                sp.tag("run_id", entry.run_id)
            return entry
        return self._append_impl(record)

    def _append_impl(self, record: RunRecord) -> IndexEntry:
        prov = record.provenance
        run_id = self.run_id_for(record)
        relpath = self.record_relpath(record, run_id)
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(self.root / relpath, record.to_json(indent=1))
        entry = IndexEntry(
            run_id=run_id,
            artifact=record.artifact,
            path=relpath,
            spec_fingerprint=_str_or(prov.get("spec_fingerprint")),
            engine_fingerprint=_str_or(prov.get("engine_fingerprint")),
            seed=_int_or(prov.get("seed")),
            cache=dict(prov.get("cache") or {}),
            duration_s=_float_or(prov.get("duration_s")),
            arguments=dict(prov.get("arguments") or {}),
            ts=time.time(),
        )
        with self._append_lock:
            segment = self.segment_path()
            segment.parent.mkdir(parents=True, exist_ok=True)
            with open(segment, "a", encoding="utf-8") as fh:
                fh.write(entry.to_line() + "\n")
        logger.debug("appended %s -> %s", run_id, relpath)
        return entry

    def index_files(self) -> list[Path]:
        """Every index file to merge: the legacy single file (if any)
        first, then the segments in name order."""
        files: list[Path] = []
        if self.index_path.exists():
            files.append(self.index_path)
        if self.index_dir.is_dir():
            files.extend(sorted(self.index_dir.glob("*.jsonl")))
        return files

    def entries(self) -> Iterator[IndexEntry]:
        """All well-formed index lines merged across segments, oldest
        first (append timestamp; legacy lines carry none and sort
        before all segmented lines, preserving their file order).

        Lines whose ``schema`` differs from :data:`RECORD_SCHEMA` are
        skipped — but not silently: the first full merge that drops any
        emits one :class:`~repro.errors.StoreWarning` with the count,
        so ``store ls`` / ``store diff`` on a mixed-version store
        cannot under-report without a trace.
        """
        rows: list[IndexEntry] = []
        foreign = 0
        for path in self.index_files():
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue  # segment vanished mid-merge (gc'd store copy)
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    if data.get("schema") != RECORD_SCHEMA:
                        foreign += 1
                        continue
                    data.pop("schema")
                    rows.append(IndexEntry(**data))
                except (ValueError, TypeError):
                    continue  # torn tail line from a crash mid-append
        if foreign and not self._warned_foreign_schema:
            self._warned_foreign_schema = True
            warnings.warn(
                f"skipped {foreign} index line(s) with a schema other than "
                f"{RECORD_SCHEMA} in {self.root} (written by a different "
                "tool version; re-run it there to query them)",
                StoreWarning,
                stacklevel=2,
            )
        rows.sort(key=lambda e: e.ts)  # stable: ties keep file order
        yield from rows


class ResultStore:
    """Persistent, fingerprint-keyed store for session measurements.

    Three roles in one root directory:

    * a **solo/scenario cache** (:meth:`get_solo` / :meth:`put_solo`,
      :meth:`get_corun` / :meth:`put_corun` for plain pairs,
      :meth:`get_scenario` / :meth:`put_scenario`) that a
      :class:`~repro.session.session.Session` reads through and writes
      behind, making a cold process with a warm store as fast as a warm
      in-memory session.  Puts append to this store's segments, reads
      go through descriptors it keeps open (:meth:`close` releases
      them; so does garbage collection), and :meth:`cache_entries`
      lists what is on disk;
    * a **record sink** (:meth:`record`) streaming every executed
      artifact into ``results/`` with an append-only ``index.jsonl``;
    * a **query API** (:meth:`query`, :meth:`latest`, :meth:`load`)
      over that index.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The root as a string: entry paths are formatted, not joined.
        self._root = str(self.root)
        self.sink = RecordSink(self.root)
        #: Guards the shard indexes, the descriptors and the appends.
        self._lock = threading.Lock()
        #: Per thread: the shared store lock of the :meth:`writing` run
        #: under way (``lock``), taken by the run's first put.
        self._held = threading.local()
        self._pid = os.getpid()
        #: shard directory -> its index, built on the first lookup there
        self._shards: dict[str, _Shard] = {}
        #: segments with an open read descriptor, oldest first
        self._readers: dict[_Segment, None] = {}
        self._check_schema()

    def _check_schema(self) -> None:
        meta_path = self.root / "store.json"
        meta = _read_json(meta_path)
        if meta is None:
            _atomic_write_text(
                meta_path,
                json.dumps(
                    {"schema": SCHEMA_VERSION, "tool": "repro-interference"},
                    indent=1,
                ),
            )
            return
        schema = meta.get("schema")
        if schema != SCHEMA_VERSION:
            hint = (
                f": run `repro store migrate --store {self.root}` to rewrite it"
                if isinstance(schema, int) and schema < SCHEMA_VERSION
                else ""
            )
            raise StoreError(
                f"store at {self.root} has schema {schema!r}; "
                f"this build reads schema {SCHEMA_VERSION}{hint}"
            )

    # -- solo / pair / scenario cache -----------------------------------------
    #
    # An entry's address is its shard directory, ``<section>/<engine_fp>``
    # (a string: entry paths are formatted, not joined, since building a
    # Path costs about as much as opening the file), and its key
    # fingerprint.  The section names the entry's kind as well.

    def _owned(self) -> None:
        """After a fork, forget the parent's segments: this process
        opens its own and never appends to (or seeks in) the parent's."""
        if self._pid != os.getpid():
            self._lock = threading.Lock()
            self._held = threading.local()
            self._close_descriptors()
            self._pid = os.getpid()

    def _shard(self, shard_dir: str) -> _Shard:
        shard = self._shards.get(shard_dir)
        if shard is None:
            shard = self._shards[shard_dir] = _Shard(shard_dir)
        return shard

    def _descriptor(self, segment: _Segment) -> int:
        """The segment's open descriptor, opened for reading if needed.

        At most :data:`_MAX_READERS` read descriptors stay open; the
        oldest is closed to make room (its segment reopens on demand)."""
        if segment.fd is None:
            if len(self._readers) >= _MAX_READERS:
                oldest = next(iter(self._readers))
                del self._readers[oldest]
                os.close(oldest.fd)
                oldest.fd = None
            segment.fd = os.open(segment.path, os.O_RDONLY | _O_BINARY)
            self._readers[segment] = None
        return segment.fd

    def _scan(self, shard: _Shard, segment: _Segment) -> bool:
        """Index the whole entries appended to ``segment`` since its last
        scan; True if the scan got past any new bytes."""
        start = segment.indexed
        try:
            with open(self._descriptor(segment), "rb", _SCAN_BUFFER, closefd=False) as fh:
                fh.seek(start)
                segment.indexed = _scan_entries(
                    fh, start, lambda keyfp, offset, size: shard.add(keyfp, segment, offset, size)
                )
        except OSError:
            return False
        return segment.indexed > start

    def _refresh(self, shard: _Shard) -> bool:
        """Index segments that appeared in the shard and bytes other
        writers appended since the last scan: one listing of the shard
        plus one ``stat`` per segment this store does not write.  True if
        anything new was indexed."""
        added = False
        for name in _listdir(shard.dir):  # empty: no shard yet, or gc pruned it
            if not name.endswith(".jsonl"):
                continue
            segment = shard.segment(name)
            if segment is shard.own:
                continue  # indexed as it was written
            if segment.indexed:
                try:
                    if os.stat(segment.path).st_size <= segment.indexed:
                        continue
                except OSError:
                    continue
            added |= self._scan(shard, segment)
        return added

    def _cached(self, shard: _Shard, keyfp: str, kind: str, key: bytes) -> Any | None:
        """The result in the newest indexed copy of a key that checks
        out; copies that do not are dropped from the index."""
        while (copy := shard.index.get(keyfp)) is not None:
            segment = shard.segments[copy >> 80]
            try:
                raw = _read_at(self._descriptor(segment), copy & _LOW40, copy >> 40 & _LOW40)
            except OSError:
                raw = b""
            result = unpack_entry(raw, kind, keyfp, key)
            if result is not None:
                return result
            shard.drop(keyfp)
        return None

    def _get(self, section: str, engine_fp: str, key: dict[str, Any]) -> Any | None:
        """The result stored under one key, or ``None``.

        A shard is indexed on its first lookup; a key the index does not
        hold refreshes the shard once."""
        data, keyfp = entry_key(key)
        shard_dir = f"{self._root}/{section}/{engine_fp}"
        self._owned()
        with self._lock:
            shard = self._shard(shard_dir)
            result = self._cached(shard, keyfp, section, data)
            if result is None and self._refresh(shard):
                result = self._cached(shard, keyfp, section, data)
        return result

    def _own_segment(self, shard: _Shard) -> _Segment:
        """The segment this store appends to in ``shard``, opened on the
        shard's first put.  A new one replaces it when gc has unlinked it
        or its length is not what this store wrote (another hand
        truncated or extended it), so an entry is only ever appended
        right after a whole entry."""
        segment = shard.own
        if segment is not None:
            st = os.fstat(segment.fd)
            if st.st_nlink and st.st_size == segment.indexed:
                return segment
            self._retire(shard)
        os.makedirs(shard.dir, exist_ok=True)
        segment = shard.segment(f"{os.getpid()}-{os.urandom(4).hex()}.jsonl")
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL | _O_BINARY
        segment.fd = os.open(segment.path, flags, 0o644)
        shard.own = segment
        return segment

    @staticmethod
    def _retire(shard: _Shard) -> None:
        """Stop appending to the shard's own segment and close it; what
        it holds stays indexed and reopens for reads."""
        segment = shard.own
        shard.own = None
        if segment is not None and segment.fd is not None:
            os.close(segment.fd)
            segment.fd = None

    @contextlib.contextmanager
    def writing(self) -> Iterator[None]:
        """Hold the *shared* store lock once for a run of puts from this
        thread, instead of once per put.

        The run's first put takes the lock and the run releases it when
        the block ends, so a run that puts nothing takes no lock.  Puts
        from other threads take their own hold as usual, and ``gc``
        (exclusive) waits until the run ends.  A nested run is part of
        the outer one."""
        held = self._held
        if getattr(held, "lock", None) is not None:
            yield
            return
        held.lock = lock = store_lock(self.root, exclusive=False)
        try:
            yield
        finally:
            held.lock = None
            lock.release()  # a no-op if no put took it

    def _writer_lock(self) -> "contextlib.AbstractContextManager[Any]":
        """What a put holds around its append: the shared store lock,
        or, inside a :meth:`writing` run, nothing more than the run's
        lock, which the run's first put takes."""
        lock = getattr(self._held, "lock", None)
        if lock is None:
            return store_lock(self.root, exclusive=False)
        lock.acquire()  # returns at once once held
        return contextlib.nullcontext()

    def _put(self, section: str, engine_fp: str, key: dict[str, Any], result: Any) -> None:
        """Append one cache entry to this process's segment of its shard,
        under the *shared* store lock (:meth:`_writer_lock`), so a
        concurrent ``gc`` (exclusive) can never prune the shard between
        this writer's check of its segment and its append.

        The entry is both of its lines (:func:`~repro.store.codec.pack_entry`)
        written with one ``os.write``.  A failed or short write retires
        the segment, so a torn entry can only be a segment's tail."""
        data, keyfp = entry_key(key)
        data = pack_entry(section, keyfp, data, result)
        self._owned()
        with self._writer_lock(), self._lock:
            shard = self._shard(f"{self._root}/{section}/{engine_fp}")
            segment = self._own_segment(shard)
            try:
                written = os.write(segment.fd, data)
            except OSError:
                self._retire(shard)
                raise
            if written != len(data):
                self._retire(shard)
                raise OSError(f"short write to {segment.path}: {written} of {len(data)} bytes")
            shard.add(keyfp, segment, segment.indexed, written)
            segment.indexed += written

    def _close_descriptors(self) -> None:
        for shard in self._shards.values():
            for segment in shard.segments:
                if segment.fd is not None:
                    os.close(segment.fd)
                    segment.fd = None
        self._shards = {}
        self._readers = {}

    def close(self) -> None:
        """Close every segment descriptor this store holds.  The store
        stays usable: its next lookup indexes the shard again."""
        self._owned()
        with self._lock:
            self._close_descriptors()

    def __del__(self) -> None:
        try:
            self._close_descriptors()
        except Exception:  # interpreter shutdown, or __init__ never finished
            pass

    # The entry keys, field for field in the order their bytes follow.

    @staticmethod
    def _solo_key(engine_fp: str, workload: str, threads: int) -> dict[str, Any]:
        return {"engine_fingerprint": engine_fp, "workload": workload, "threads": threads}

    @staticmethod
    def _corun_key(
        engine_fp: str, fg: str, bg: str, fg_threads: int, bg_threads: int
    ) -> dict[str, Any]:
        return {
            "engine_fingerprint": engine_fp,
            "fg": fg,
            "bg": bg,
            "fg_threads": fg_threads,
            "bg_threads": bg_threads,
        }

    @staticmethod
    def _scenario_key(engine_fp: str, scenario: Scenario) -> dict[str, Any]:
        if not scenario.cacheable:
            raise ScenarioError(
                "scenarios with in-band profiles or solo overrides are never cached"
            )
        return {"engine_fingerprint": engine_fp, "scenario": scenario.payload()}

    def get_solo(
        self, engine_fp: str, workload: str, threads: int
    ) -> SoloRunResult | None:
        return self._get("solo", engine_fp, self._solo_key(engine_fp, workload, threads))

    def put_solo(
        self, engine_fp: str, workload: str, threads: int, result: SoloRunResult
    ) -> None:
        self._put("solo", engine_fp, self._solo_key(engine_fp, workload, threads), result)

    def get_scenario(
        self, engine_fp: str, scenario: Scenario
    ) -> ScenarioRunResult | None:
        """Cached scenario result, or ``None``.

        Plain pairs are *not* stored here — the session keeps them in
        the ``corun/`` section (:meth:`get_corun`).
        """
        return self._get("scenario", engine_fp, self._scenario_key(engine_fp, scenario))

    def put_scenario(
        self, engine_fp: str, scenario: Scenario, result: ScenarioRunResult
    ) -> None:
        self._put("scenario", engine_fp, self._scenario_key(engine_fp, scenario), result)

    def scenarios(self) -> list[dict[str, Any]]:
        """Key metadata of every persisted scenario entry (``repro
        scenario ls``): engine fingerprint, placements, overrides, and
        the ``path`` of the segment that holds it.

        Listing parses only each entry's first line (the envelope that
        holds the key), never the timeline on line 2.
        """
        out: list[dict[str, Any]] = []
        for entry in self.cache_entries("scenario"):
            data = self.entry_head(entry)
            if (
                not isinstance(data, dict)
                or data.get("schema") != SCHEMA_VERSION
                or data.get("kind") != "scenario"
                or not isinstance(data.get("key"), dict)
            ):
                continue
            row = dict(data["key"])
            row["path"] = entry.path
            out.append(row)
        return out

    def get_corun(
        self, engine_fp: str, fg: str, bg: str, fg_threads: int, bg_threads: int
    ) -> CoRunResult | None:
        key = self._corun_key(engine_fp, fg, bg, fg_threads, bg_threads)
        return self._get("corun", engine_fp, key)

    def put_corun(
        self,
        engine_fp: str,
        fg: str,
        bg: str,
        fg_threads: int,
        bg_threads: int,
        result: CoRunResult,
    ) -> None:
        key = self._corun_key(engine_fp, fg, bg, fg_threads, bg_threads)
        self._put("corun", engine_fp, key, result)

    def cache_entries(self, section: str) -> list[CacheEntry]:
        """Every entry of one cache section (``solo``, ``corun`` or
        ``scenario``) as it is on disk: one row per shard and key
        fingerprint, ordered by shard and key fingerprint.

        A row names the last whole copy found in the shard's segments
        (in name order).  Rows are not checked: reading one back can
        still miss (a damaged entry, a foreign schema).  This is the one
        walk behind :meth:`describe`, :meth:`scenarios` and the counts of
        :meth:`gc`.
        """
        rows: list[CacheEntry] = []
        base = f"{self._root}/{section}"
        for shard in sorted(_listdir(base)):
            shard_dir = f"{base}/{shard}"
            where: dict[str, tuple[str, int]] = {}
            for name in sorted(_listdir(shard_dir)):
                if not name.endswith(".jsonl"):
                    continue

                def found(keyfp: str, offset: int, size: int, name: str = name) -> None:
                    where[keyfp] = (name, offset)

                try:
                    with open(f"{shard_dir}/{name}", "rb", _SCAN_BUFFER) as fh:
                        _scan_entries(fh, 0, found)
                except OSError:
                    continue
            rows.extend(
                CacheEntry(shard, keyfp, f"{section}/{shard}/{name}", offset)
                for keyfp, (name, offset) in sorted(where.items())
            )
        return rows

    def entry_head(self, entry: CacheEntry) -> Any | None:
        """Line 1 of a listed entry, parsed (the envelope with its key);
        ``None`` if it is gone or not JSON."""
        try:
            with open(f"{self._root}/{entry.path}", "rb") as fh:
                fh.seek(entry.offset)
                return json.loads(fh.readline())
        except (OSError, ValueError):
            return None

    # -- record sink + query -------------------------------------------------

    def record(self, record: RunRecord) -> IndexEntry:
        """Stream one executed artifact into the store."""
        return self.sink.append(record)

    def run_id_for(self, record: RunRecord) -> str:
        return self.sink.run_id_for(record)

    def query(
        self,
        *,
        artifact: str | None = None,
        spec_fp: str | None = None,
        engine_fp: str | None = None,
        run_id: str | None = None,
    ) -> list[IndexEntry]:
        """Index entries matching every given filter, oldest first."""
        return [
            e
            for e in self.sink.entries()
            if (artifact is None or e.artifact == artifact)
            and (spec_fp is None or e.spec_fingerprint == spec_fp)
            and (engine_fp is None or e.engine_fingerprint == engine_fp)
            and (run_id is None or e.run_id == run_id)
        ]

    def load(self, entry: "IndexEntry | str") -> RunRecord:
        """Rebuild the :class:`RunRecord` behind an index entry or run id."""
        if isinstance(entry, str):
            matches = self.query(run_id=entry)
            if not matches:
                raise StoreError(f"no record with run id {entry!r} in {self.root}")
            entry = matches[-1]
        path = self.root / entry.path
        try:
            text = path.read_text(encoding="utf-8")
            return RunRecord.from_json(text)
        except (OSError, ValueError, KeyError) as exc:
            raise StoreError(f"record file missing or unreadable: {path}") from exc

    def latest(self, artifact: str) -> RunRecord:
        """The most recently streamed record of an artifact.

        Canonical (default-argument) runs are preferred over nested
        subset runs — ``latest("fig5")`` after a campaign is the full
        matrix, not fig6's mini-benchmark sweep.
        """
        picked = pick_latest(self.query(artifact=artifact))
        if picked is None:
            raise StoreError(f"no records for artifact {artifact!r} in {self.root}")
        return self.load(picked)

    # -- maintenance ---------------------------------------------------------

    def gc(
        self, live_engine_fps: "set[str] | frozenset[str]", *, dry_run: bool = False
    ) -> dict[str, Any]:
        """Prune cache entries whose engine fingerprint matches no known
        configuration.

        The solo/corun/scenario cache sections are sharded by engine
        fingerprint; any shard not in ``live_engine_fps`` is
        unreachable by every config the caller still knows (a changed
        machine spec or engine default orphans whole shards) and is
        removed.  Streamed records and the index are history, not
        cache — they are never collected.  With ``dry_run`` nothing is
        deleted; the returned summary reports what would be.

        The counts are those of :meth:`cache_entries`: one per key in a
        shard's segments.  The scan-and-prune runs
        under the **exclusive** store lock: cache writers hold it shared
        around each append (or a pass's run of appends, :meth:`writing`),
        so a gc racing a mid-campaign process can
        never ``rmtree`` a shard between that writer's check of its
        segment and its append (the prune waits for the append, then —
        if the shard really is orphaned — removes the shard including
        the fresh entry, which is exactly a whole-shard decision, never
        a torn one; the writer's next put finds its segment unlinked and
        opens a new one).
        """
        import shutil
        from collections import Counter

        removed_dirs: list[str] = []
        removed_entries = 0
        kept_entries = 0
        with store_lock(self.root, exclusive=True):
            for section in _SECTIONS:
                base = self.root / section
                if not base.exists():
                    continue
                counts = Counter(e.engine_fp for e in self.cache_entries(section))
                for shard in sorted(p for p in base.iterdir() if p.is_dir()):
                    n = counts[shard.name]
                    if shard.name in live_engine_fps:
                        kept_entries += n
                        continue
                    removed_entries += n
                    removed_dirs.append(str(shard.relative_to(self.root)))
                    if not dry_run:
                        shutil.rmtree(shard)
        return {
            "removed_entries": removed_entries,
            "kept_entries": kept_entries,
            "removed_dirs": removed_dirs,
            "dry_run": dry_run,
        }

    # -- inspection ----------------------------------------------------------

    def describe(self) -> dict[str, int]:
        """Entry counts per store section (the ``store ls`` summary)."""
        results = self.root / "results"
        return {
            **{f"{s}_entries": len(self.cache_entries(s)) for s in _SECTIONS},
            "records": sum(1 for _ in results.rglob("*.json")) if results.exists() else 0,
            "index_lines": sum(1 for _ in self.sink.entries()),
        }
