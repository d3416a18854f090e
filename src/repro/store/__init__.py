"""repro.store — the persistent results database for sweep campaigns.

The in-memory caches of :class:`~repro.session.session.Session` (PR 1)
die with the process; this package is their on-disk continuation plus
the sweep-campaign results database:

* :class:`ResultStore` — a fingerprint-keyed solo/scenario cache
  (plain pairs in its ``corun/`` section, every other scenario shape
  in ``scenario/``) with atomic writes and a versioned schema.  A session
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

Store layout (``<root>`` is the directory handed to ``--store``)::

    <root>/
      store.json                   schema marker {"schema": 1, ...}
      .lock                        advisory store lock (never deleted)
      solo/<engine_fp>/            one entry per cached solo run,
        <app>-t<T>-<keyfp>.json      key: engine_fp x workload x threads
      corun/<engine_fp>/           one entry per cached plain pair,
        <fg>-vs-<bg>-<FT>x<BT>-<keyfp>.json
                                     key: engine_fp x fg x bg x fg_t x bg_t
      scenario/<engine_fp>/        one entry per other cached scenario,
        <apps-slug>-<keyfp>.json     key: engine_fp x scenario fingerprint
      results/<artifact>/          streamed RunRecords
        <run_id>.json
      index/<pid>-<token>.jsonl    per-process record-index segments
      index.jsonl                  legacy single-file index (read, not
                                   appended; pre-segment stores merge in)
      campaign/<token>/*.claim     work-stealing claims of a live
                                   `repro campaign` (removed on success)
      manifest.json                last campaign freeze

Each cache entry is two lines.  Line 1 is one JSON object, the
envelope ``{"schema", "kind", "key", "result", "timeline_sha256"}``:
the encoded result without its bandwidth timeline, plus a truncated
sha256 of line 2.  Line 2 is the encoded timeline.  A read parses line
1 only, checks line 2 against the digest, and hands it over undecoded
(:class:`~repro.store.codec.LazyTimeline`); only Fig 3, Table III and
the ``scenario`` record ever decode one.  Entries written before this
split are one line with the timeline inside ``result``; they keep
serving.  A reader that parses a whole entry file as one JSON document
sees a two-line entry as unparseable, that is, as a miss.

Keys reuse :func:`repro.session.session.fingerprint` exactly — the
same function behind the session's engine fingerprints — so a result persisted
under one machine spec / engine configuration can never warm a session
running a different one.

Concurrency semantics (:mod:`repro.store.locking`): any number of
processes may share one store.  Every entry and record write is atomic
(tmp + rename); each process appends index lines to its own
``index/<pid>-<token>.jsonl`` segment, so index lines are never
interleaved or torn mid-file; cache writers hold the store lock
*shared* while ``store gc`` shard-pruning and manifest freezes hold it
*exclusive*.  Readers treat torn or foreign files as misses, never as
data, and skipped foreign-schema index lines raise a one-time
:class:`~repro.errors.StoreWarning`.
"""

from repro.store.campaign import parse_shard, run_campaign, shard_names
from repro.store.codec import (
    decode_corun,
    decode_scenario_result,
    decode_solo,
    encode_corun,
    encode_scenario_result,
    encode_solo,
)
from repro.store.locking import FileLock, store_lock
from repro.store.manifest import (
    build_manifest,
    build_manifest_from_store,
    diff_manifests,
    load_manifest,
    render_diff,
    write_manifest,
    write_manifest_from_store,
)
from repro.store.store import (
    SCHEMA_VERSION,
    IndexEntry,
    RecordSink,
    ResultStore,
    live_engine_fingerprints,
)

__all__ = [
    "SCHEMA_VERSION",
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
    "parse_shard",
    "render_diff",
    "run_campaign",
    "shard_names",
    "store_lock",
    "write_manifest",
    "write_manifest_from_store",
]
