"""ResultStore: the on-disk half of the Session's measurement caches.

Layout under one store root (see the package docstring in
:mod:`repro.store` for the full tour)::

    <root>/
      store.json                  # schema version marker
      .lock                       # advisory store lock (repro.store.locking)
      solo/<engine_fp>/<app>-t<T>-<keyfp>.json
      corun/<engine_fp>/<fg>-vs-<bg>-<FT>x<BT>-<keyfp>.json   # plain pairs
      scenario/<engine_fp>/<apps-slug>-<keyfp>.json   # every other scenario
      results/<artifact>/<run_id>.json
      index/<pid>-<token>.jsonl   # per-process index segments
      index.jsonl                 # legacy single-file index (read-only)
      manifest.json               # written by `repro run-all` / `repro campaign`

Cache entries are content-addressed: the filename embeds a
:func:`repro.session.session.fingerprint` of the entry's key
(``engine_fingerprint x workload x threads`` for solos,
``engine_fingerprint x fg x bg x fg_threads x bg_threads`` for plain
pairs, ``engine_fingerprint x scenario fingerprint`` for every other
scenario), so a warm store can never serve a result computed under a
different machine spec or engine configuration.

Each cache entry is two lines: line 1 is the JSON envelope (``schema``,
``kind``, ``key``, the encoded ``result`` without its timeline, and
``timeline_sha256``, a truncated sha256 of line 2); line 2 is the
encoded bandwidth timeline.  A read parses line 1 only and returns a
result whose timeline decodes on first use
(:class:`~repro.store.codec.LazyTimeline`).  A one-line entry, written
before the split, carries the timeline inside ``result`` and is read
as before.

Durability rules under many concurrent writer processes:

* every file is written to a ``.tmp-<pid>-<thread>`` sibling and
  published with :func:`os.replace`, so readers never observe a
  half-written payload and no two writers share a temporary file;
* readers treat unparseable or schema-mismatched files as cache misses
  (a crash mid-write costs a re-simulation, never a wrong number), and
  an entry whose line 2 does not match its digest likewise;
* each process appends index lines to its **own** segment file under
  ``index/`` — no two processes ever write the same index file, so
  interleaved or torn *non-tail* lines are impossible by construction;
  :meth:`RecordSink.entries` merges the legacy ``index.jsonl`` (written
  by pre-segment stores) with every segment, ordered by append
  timestamp, and a torn final line of any file is skipped;
* cache writers take the store lock **shared**, ``gc``'s shard pruning
  and manifest freezes take it **exclusive**
  (:mod:`repro.store.locking`), so a prune can never interleave with a
  writer materializing an entry in the same shard.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.engine.results import CoRunResult, ScenarioRunResult, SoloRunResult
from repro.errors import ScenarioError, StoreError, StoreWarning
from repro.store.locking import store_lock
from repro.session.base import fingerprint
from repro.session.record import RunRecord
from repro.session.registry import get_runner
from repro.session.scenario import Scenario
from repro.store.codec import (
    LazyTimeline,
    decode_corun,
    decode_scenario_result,
    decode_solo,
    encode_corun,
    encode_scenario_result,
    encode_solo,
)

#: Version of the on-disk layout; bumped on incompatible change.
SCHEMA_VERSION = 1

logger = logging.getLogger(__name__)

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _safe_name(name: str) -> str:
    """Filesystem-safe slug for a workload/artifact name (readability
    only — uniqueness comes from the key fingerprint suffix)."""
    return _SAFE.sub("_", name) or "_"


def _atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via a same-directory rename, so a
    crash mid-write leaves only an ignorable ``.tmp-*`` sibling.

    The temporary name is unique per writing thread: two threads
    publishing the same path never share (or rename away) each other's
    half-written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path: Path) -> Any | None:
    """Parse a JSON file; missing, torn or non-JSON files are ``None``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _digest(data: bytes) -> str:
    """The line-2 digest a cache entry's first line carries."""
    return hashlib.sha256(data).hexdigest()[:16]


def _read_entry(path: str | Path) -> tuple[Any, bytes] | None:
    """A cache entry's parsed first line and the raw bytes after it;
    ``None`` for a missing file or an unparseable first line."""
    try:
        with open(path, "rb", buffering=0) as fh:
            raw = fh.read()
        head, _, rest = raw.partition(b"\n")
        return json.loads(head), rest
    except (OSError, ValueError):
        return None


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

    from repro.engine.interval import LLC_POLICIES

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
        return json.dumps({"schema": SCHEMA_VERSION, **asdict(self)})


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

        Lines whose ``schema`` differs from :data:`SCHEMA_VERSION` are
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
                    if data.get("schema") != SCHEMA_VERSION:
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
                f"{SCHEMA_VERSION} in {self.root} (written by a different "
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
      in-memory session;
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
        if meta.get("schema") != SCHEMA_VERSION:
            raise StoreError(
                f"store at {self.root} has schema {meta.get('schema')!r}; "
                f"this build reads schema {SCHEMA_VERSION}"
            )

    # -- solo / pair / scenario cache -----------------------------------------
    #
    # Reads format entry paths as strings: building a Path costs about
    # as much as opening the file.  Writers take the ``_*_path`` form.

    def _solo_file(self, engine_fp: str, workload: str, threads: int) -> str:
        keyfp = fingerprint("solo", engine_fp, workload, threads)
        return f"{self._root}/solo/{engine_fp}/{_safe_name(workload)}-t{threads}-{keyfp}.json"

    def _solo_path(self, engine_fp: str, workload: str, threads: int) -> Path:
        return Path(self._solo_file(engine_fp, workload, threads))

    def _corun_file(
        self, engine_fp: str, fg: str, bg: str, fg_threads: int, bg_threads: int
    ) -> str:
        keyfp = fingerprint("corun", engine_fp, fg, bg, fg_threads, bg_threads)
        return (
            f"{self._root}/corun/{engine_fp}/{_safe_name(fg)}-vs-{_safe_name(bg)}"
            f"-{fg_threads}x{bg_threads}-{keyfp}.json"
        )

    def _corun_path(
        self, engine_fp: str, fg: str, bg: str, fg_threads: int, bg_threads: int
    ) -> Path:
        return Path(self._corun_file(engine_fp, fg, bg, fg_threads, bg_threads))

    def _publish_entry(
        self, path: Path, kind: str, key: dict[str, Any], result: dict[str, Any]
    ) -> None:
        """Atomically publish one cache entry under the *shared* store
        lock, so a concurrent ``gc`` (exclusive) can never prune the
        shard between this writer's key computation and its rename.

        The entry is two lines: the envelope with the encoded result
        minus its timeline plus a digest of line 2, then the encoded
        timeline (see :mod:`repro.store.codec`)."""
        timeline = json.dumps(result.pop("timeline"))
        head = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "kind": kind,
                "key": key,
                "result": result,
                "timeline_sha256": _digest(timeline.encode()),
            }
        )
        with store_lock(self.root, exclusive=False):
            _atomic_write_text(path, f"{head}\n{timeline}\n")

    @staticmethod
    def _load_entry(path: str, kind: str, key: dict[str, Any]) -> Any | None:
        """The encoded result of one entry, or ``None`` for a missing,
        torn, foreign-schema or colliding one.

        Only line 1 is parsed.  Line 2 is checked against line 1's
        digest and handed over unparsed as a :class:`LazyTimeline`, so
        a bad line 2 is a miss here and never an error later.  A
        one-line entry carries its timeline inline and decodes as is.
        """
        entry = _read_entry(path)
        if entry is None:
            return None
        data, rest = entry
        if (
            not isinstance(data, dict)
            or data.get("schema") != SCHEMA_VERSION
            or data.get("kind") != kind
            or data.get("key") != key
            or not isinstance(data.get("result"), dict)
        ):
            return None
        result = data["result"]
        if "timeline" not in result:
            # The digest covers line 2 without its line terminator, which
            # text-mode writes translate on some platforms.
            if data.get("timeline_sha256") != _digest(rest.rstrip(b"\r\n")):
                return None
            result["timeline"] = LazyTimeline(rest)
        return result

    def get_solo(
        self, engine_fp: str, workload: str, threads: int
    ) -> SoloRunResult | None:
        key = {"engine_fingerprint": engine_fp, "workload": workload, "threads": threads}
        payload = self._load_entry(
            self._solo_file(engine_fp, workload, threads), "solo", key
        )
        if payload is None:
            return None
        try:
            return decode_solo(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None  # corrupt-but-parseable entry: a miss, never data

    def put_solo(
        self, engine_fp: str, workload: str, threads: int, result: SoloRunResult
    ) -> None:
        self._publish_entry(
            self._solo_path(engine_fp, workload, threads),
            "solo",
            {
                "engine_fingerprint": engine_fp,
                "workload": workload,
                "threads": threads,
            },
            encode_solo(result),
        )

    def _scenario_file(
        self, engine_fp: str, scenario: Scenario, payload: dict[str, Any]
    ) -> str:
        """Entry path of ``scenario``, whose ``payload()`` the caller
        passes in (the entry key holds it too)."""
        if not scenario.cacheable:
            raise ScenarioError(
                "scenarios with in-band profiles or solo overrides are never cached"
            )
        # fingerprint("scenario", payload) is scenario.fingerprint.
        keyfp = fingerprint("scenario", engine_fp, fingerprint("scenario", payload))
        slug = "+".join(
            f"{_safe_name(p.workload)}.{p.threads}" for p in scenario.placements
        )[:64]
        return f"{self._root}/scenario/{engine_fp}/{slug}-{keyfp}.json"

    def _scenario_path(
        self, engine_fp: str, scenario: Scenario, payload: dict[str, Any]
    ) -> Path:
        return Path(self._scenario_file(engine_fp, scenario, payload))

    def get_scenario(
        self, engine_fp: str, scenario: Scenario
    ) -> ScenarioRunResult | None:
        """Cached scenario result, or ``None``.

        Plain pairs are *not* stored here — the session keeps them in
        the ``corun/`` section (:meth:`get_corun`), so pre-redesign
        warm stores keep serving them unchanged.
        """
        scenario_payload = scenario.payload()
        key = {"engine_fingerprint": engine_fp, "scenario": scenario_payload}
        payload = self._load_entry(
            self._scenario_file(engine_fp, scenario, scenario_payload), "scenario", key
        )
        if payload is None:
            return None
        try:
            return decode_scenario_result(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None  # corrupt-but-parseable entry: a miss, never data

    def put_scenario(
        self, engine_fp: str, scenario: Scenario, result: ScenarioRunResult
    ) -> None:
        scenario_payload = scenario.payload()
        self._publish_entry(
            self._scenario_path(engine_fp, scenario, scenario_payload),
            "scenario",
            {"engine_fingerprint": engine_fp, "scenario": scenario_payload},
            encode_scenario_result(result),
        )

    def scenarios(self) -> list[dict[str, Any]]:
        """Key metadata of every persisted scenario entry (``repro
        scenario ls``): engine fingerprint, placements, overrides.

        Listing parses only each entry's first line (the envelope that
        holds the key), never the timeline on line 2; a key sidecar or
        index is the upgrade path beyond the hundreds-of-entries scale
        this store targets.
        """
        base = self.root / "scenario"
        out: list[dict[str, Any]] = []
        if not base.exists():
            return out
        for path in sorted(base.rglob("*.json")):
            entry = _read_entry(path)
            data = entry[0] if entry is not None else None
            if (
                not isinstance(data, dict)
                or data.get("schema") != SCHEMA_VERSION
                or data.get("kind") != "scenario"
                or not isinstance(data.get("key"), dict)
            ):
                continue
            entry = dict(data["key"])
            entry["path"] = str(path.relative_to(self.root))
            out.append(entry)
        return out

    def get_corun(
        self, engine_fp: str, fg: str, bg: str, fg_threads: int, bg_threads: int
    ) -> CoRunResult | None:
        key = {
            "engine_fingerprint": engine_fp,
            "fg": fg,
            "bg": bg,
            "fg_threads": fg_threads,
            "bg_threads": bg_threads,
        }
        payload = self._load_entry(
            self._corun_file(engine_fp, fg, bg, fg_threads, bg_threads), "corun", key
        )
        if payload is None:
            return None
        try:
            return decode_corun(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None  # corrupt-but-parseable entry: a miss, never data

    def put_corun(
        self,
        engine_fp: str,
        fg: str,
        bg: str,
        fg_threads: int,
        bg_threads: int,
        result: CoRunResult,
    ) -> None:
        self._publish_entry(
            self._corun_path(engine_fp, fg, bg, fg_threads, bg_threads),
            "corun",
            {
                "engine_fingerprint": engine_fp,
                "fg": fg,
                "bg": bg,
                "fg_threads": fg_threads,
                "bg_threads": bg_threads,
            },
            encode_corun(result),
        )

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

        The scan-and-prune runs under the **exclusive** store lock:
        cache writers hold it shared, so a gc racing a mid-campaign
        process can never ``rmtree`` a shard between that writer's key
        computation and its entry's rename (the prune waits for the
        write to publish, then — if the shard really is orphaned —
        removes the shard including the fresh entry, which is exactly a
        whole-shard decision, never a torn one).
        """
        import shutil

        removed_dirs: list[str] = []
        removed_entries = 0
        kept_entries = 0
        with store_lock(self.root, exclusive=True):
            for section in ("solo", "corun", "scenario"):
                base = self.root / section
                if not base.exists():
                    continue
                for shard in sorted(p for p in base.iterdir() if p.is_dir()):
                    n = sum(1 for _ in shard.rglob("*.json"))
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
        def count(section: str) -> int:
            base = self.root / section
            return sum(1 for _ in base.rglob("*.json")) if base.exists() else 0

        return {
            "solo_entries": count("solo"),
            "corun_entries": count("corun"),
            "scenario_entries": count("scenario"),
            "records": count("results"),
            "index_lines": sum(1 for _ in self.sink.entries()),
        }
