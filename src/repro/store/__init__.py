"""repro.store — the persistent results database for sweep campaigns.

The in-memory caches of :class:`~repro.session.session.Session` (PR 1)
die with the process; this package is their on-disk continuation plus
the sweep-campaign results database:

* :class:`ResultStore` — a fingerprint-keyed solo/scenario cache
  (plain pairs in its ``corun/`` section, every other scenario shape
  in ``scenario/``) kept in per-process append-only segment logs under
  a versioned schema.  A session
  constructed with ``Session(config, store=ResultStore(".repro-store"))``
  (or CLI ``repro --store .repro-store ...``) reads through the store
  and writes behind it, so a *cold process over a warm store* costs
  about as much as PR 1's warm in-memory path.
* :class:`RecordSink` — every executed artifact's
  :class:`~repro.session.record.RunRecord` is streamed to
  ``results/<artifact>/<run_id>.json`` (run ids are content-addressed
  and timestamp-free) and indexed in an append-only, **per-process
  segmented** index under ``index/``.
* a query API — ``store.query(artifact="fig5", spec_fp=...)``,
  ``store.latest("fig5")``, ``store.load(run_id)``.
* :func:`write_manifest` / :func:`write_manifest_from_store` — ``repro
  run-all`` freezes a whole campaign (every registered runner, all
  provenance, all record paths) into one ``manifest.json``; sharded and
  multi-process campaigns rebuild it from the store's merged index.
* :func:`run_campaign` — ``repro campaign``: fork N worker processes
  over the runner registry with claim-file work-stealing, all sharing
  one store (see :mod:`repro.store.campaign`).
* :func:`migrate` — ``repro store migrate``: rewrite a store of an
  earlier layout into the current one (see below).

Store layout (``<root>`` is the directory handed to ``--store``)::

    <root>/
      store.json                   schema marker {"schema": 2, ...}
      .lock                        advisory store lock (never deleted)
      solo/<engine_fp>/            cached solo runs,
        <pid>-<token>.jsonl          key: engine_fp x workload x threads
      corun/<engine_fp>/           cached plain pairs,
        <pid>-<token>.jsonl          key: engine_fp x fg x bg x fg_t x bg_t
      scenario/<engine_fp>/        every other cached scenario,
        <pid>-<token>.jsonl          key: engine_fp x scenario payload
      results/<artifact>/          streamed RunRecords
        <run_id>.json
      index/<pid>-<token>.jsonl    per-process record-index segments
      index.jsonl                  legacy single-file index (read, not
                                   appended; pre-segment stores merge in)
      campaign/<token>/*.claim     work-stealing claims of a live
                                   `repro campaign` (removed on success)
      manifest.json                last campaign freeze

Each ``<pid>-<token>.jsonl`` in a cache shard is one process's segment
log: every entry that process computed for the shard, appended in
order, the segment created on its first put there.  An entry is two
lines in the packed layout of store schema 2 (:mod:`repro.store.codec`
has it field by field).  Line 1 is one JSON object, the envelope
``{"keyfp", "schema", "kind", "key", "shape", "numbers", "sha256"}``:
the key fingerprint first (so a scan reads it at a fixed offset without
parsing JSON), the key, the result's shape (app names, threads, region
names), every number of the result as little-endian float64 in base64,
and last a truncated sha256 of the bytes before it and of line 2.
Line 2 is the bandwidth timeline's rows, packed the same way.  A store
indexes a shard's segments on its first lookup there and reads an entry
at its offset; it checks schema, kind and key as one byte prefix, checks
the digest, unpacks the numbers without parsing any float text, and
hands the timeline over undecoded
(:class:`~repro.engine.results.LazyTimeline`); only Fig 3, Table III
and the ``scenario`` record ever decode one.

Stores of schema 1 kept every number as text: in segments, or in the
per-entry files of versions before segment logs
(``<shard>/<slug>-<keyfp>.json``, one line or two).  Opening one raises
:class:`~repro.errors.StoreError` naming ``repro store migrate``
(:func:`migrate`, :mod:`repro.store.migration`), which rewrites every
entry the schema-1 reader would have served into schema 2, under the
exclusive store lock; a re-run finishes a migrate that was cut short.
Records, the record index and manifests keep their own schema
(:data:`RECORD_SCHEMA`, unchanged).

Every key holds the engine fingerprint of
:func:`repro.session.session.fingerprint` — the same function behind
the session's caches — so a result persisted under one machine spec /
engine configuration can never warm a session running a different one.

Concurrency semantics (:mod:`repro.store.locking`): any number of
processes may share one store.  A cache entry is one append of both
lines to the writer's own segment, so entries never interleave; a
write that fails retires its segment, so a torn entry (a crash
mid-append) can only be a segment's tail, which readers skip until it
is whole.  Records, manifests and ``store.json`` are written atomically
(tmp + rename); each process appends index lines to its own
``index/<pid>-<token>.jsonl`` segment.  Cache writers hold the store
lock *shared* around each append, or once around a session pass's run
of appends (:meth:`ResultStore.writing`), while ``store gc``
shard-pruning, ``store migrate`` and manifest freezes hold it
*exclusive*; a writer whose shard gc pruned opens a new segment.  Readers treat torn, foreign or colliding entries
as misses, never as data, and skipped foreign-schema index lines raise
a one-time :class:`~repro.errors.StoreWarning`.
"""

from repro._lazy import lazy_exports
from repro.store.codec import (
    decode_corun,
    decode_scenario_result,
    decode_solo,
    encode_corun,
    encode_scenario_result,
    encode_solo,
)
from repro.store.locking import FileLock, store_lock
from repro.store.store import (
    RECORD_SCHEMA,
    SCHEMA_VERSION,
    CacheEntry,
    IndexEntry,
    RecordSink,
    ResultStore,
    live_engine_fingerprints,
)

__all__ = [
    "RECORD_SCHEMA",
    "SCHEMA_VERSION",
    "CacheEntry",
    "FileLock",
    "IndexEntry",
    "RecordSink",
    "ResultStore",
    "build_manifest",
    "build_manifest_from_store",
    "decode_corun",
    "decode_scenario_result",
    "decode_solo",
    "diff_manifests",
    "encode_corun",
    "encode_scenario_result",
    "encode_solo",
    "live_engine_fingerprints",
    "load_manifest",
    "migrate",
    "parse_shard",
    "render_diff",
    "run_campaign",
    "shard_names",
    "store_lock",
    "write_manifest",
    "write_manifest_from_store",
]

# The campaign, manifest and migration verbs' own modules.
__getattr__ = lazy_exports(__name__, {
    "repro.store.campaign": ("parse_shard", "run_campaign", "shard_names"),
    "repro.store.manifest": (
        "build_manifest", "build_manifest_from_store", "diff_manifests", "load_manifest",
        "render_diff", "write_manifest", "write_manifest_from_store",
    ),
    "repro.store.migration": ("migrate",),
})
