"""Campaign manifests: one JSON capturing a whole ``run-all`` pass.

``repro run-all`` executes every registered runner through one
:class:`~repro.session.session.Session` and then freezes the campaign
into a ``manifest.json``::

    {
      "schema": 1,
      "config": {"seed": 0, "threads": 4, ..., "workloads": [...]},
      "spec_fingerprint": "...", "engine_fingerprint": "...",
      "executor": "serial",
      "cache": {"solo_hits": ..., "scenario_disk_hits": ..., ...},
      "artifacts": {
        "fig5": {"run_id": "fig5-<fp>", "path": "results/fig5/...json",
                  "provenance": {...}},
        ...
      }
    }

Every artifact's provenance (fingerprints, per-run cache deltas,
duration) is recorded, and — when a store is attached — the ``run_id``
and record path tie each manifest row to the streamed record in
``results/``, so a campaign is fully re-loadable from disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.session.base import fingerprint
from repro.session.registry import runner_names
from repro.store.locking import store_lock
from repro.store.store import (
    RECORD_SCHEMA,
    ResultStore,
    _atomic_write_text,
    pick_latest,
)


def build_manifest(session: Any, store: ResultStore | None = None) -> dict[str, Any]:
    """Freeze a session's executed records into a manifest dict."""
    config = session.config
    artifacts: dict[str, Any] = {}
    for record in session.records:
        if record.artifact in artifacts and record.provenance.get("arguments"):
            continue  # keep the canonical run over a nested subset run
        row: dict[str, Any] = {"provenance": dict(record.provenance)}
        if store is not None:
            run_id = store.run_id_for(record)
            row["run_id"] = run_id
            row["path"] = store.sink.record_relpath(record, run_id)
        artifacts[record.artifact] = row
    return {
        "schema": RECORD_SCHEMA,
        "config": {
            "seed": config.seed,
            "threads": config.threads,
            "repetitions": config.repetitions,
            "jitter": config.jitter,
            "workloads": list(config.workloads),
        },
        "spec_fingerprint": session.spec_fingerprint(),
        "engine_fingerprint": session.engine_fingerprint(),
        "executor": session.executor.name,
        "cache": session.stats.snapshot(),
        "artifacts": artifacts,
    }


def _freeze(manifest: dict[str, Any], path: Path, store: ResultStore | None) -> None:
    """Atomically write a manifest; store-attached freezes take the
    exclusive store lock so two concurrent campaigns serialize their
    ``manifest.json`` publishes instead of interleaving them."""
    if store is not None:
        with store_lock(store.root, exclusive=True):
            _atomic_write_text(path, json.dumps(manifest, indent=1))
    else:
        _atomic_write_text(path, json.dumps(manifest, indent=1))


def write_manifest(
    session: Any,
    path: str | Path,
    store: ResultStore | None = None,
) -> dict[str, Any]:
    """Build and atomically write a manifest; returns the dict."""
    manifest = build_manifest(session, store)
    _freeze(manifest, Path(path), store)
    return manifest


def build_manifest_from_store(
    store: ResultStore,
    config: Any,
    *,
    executor_name: str = "campaign",
    include_extensions: bool = True,
) -> dict[str, Any]:
    """Freeze a campaign manifest from the *store's* merged index.

    A sharded or multi-process campaign has no single session holding
    every record, so the manifest is rebuilt from what the store
    actually persisted: for each registered runner, the latest
    canonical index entry (falling back to the latest entry of any
    shape) supplies the run id, record path and provenance; artifacts
    with no record yet are simply absent (a partial shard writes a
    partial manifest — the final shard's freeze covers everything).
    Because run ids are content-addressed, the resulting manifest is
    ``store diff``-identical to a serial campaign's whenever the cells
    are.

    The top-level ``cache`` economics sum the per-record deltas of the
    rows included, i.e. the whole campaign's hits and misses across
    every worker process.
    """
    by_artifact: dict[str, list[Any]] = {}
    for entry in store.sink.entries():
        by_artifact.setdefault(entry.artifact, []).append(entry)
    artifacts: dict[str, Any] = {}
    cache_totals: dict[str, int] = {}
    for name in runner_names(artifact_only=not include_extensions):
        picked = pick_latest(by_artifact.get(name, []))
        if picked is None:
            continue
        record = store.load(picked)
        artifacts[name] = {
            "provenance": dict(record.provenance),
            "run_id": picked.run_id,
            "path": picked.path,
        }
        for key, delta in (record.provenance.get("cache") or {}).items():
            cache_totals[key] = cache_totals.get(key, 0) + delta
    return {
        "schema": RECORD_SCHEMA,
        "config": {
            "seed": config.seed,
            "threads": config.threads,
            "repetitions": config.repetitions,
            "jitter": config.jitter,
            "workloads": list(config.workloads),
        },
        "spec_fingerprint": fingerprint(config.spec),
        "engine_fingerprint": fingerprint(config.spec, config.engine_config),
        "executor": executor_name,
        "cache": cache_totals,
        "artifacts": artifacts,
    }


def write_manifest_from_store(
    store: ResultStore,
    config: Any,
    path: str | Path | None = None,
    *,
    executor_name: str = "campaign",
    include_extensions: bool = True,
) -> dict[str, Any]:
    """Build a from-store manifest and freeze it (default:
    ``<store>/manifest.json``).

    Both the index read *and* the write happen under one exclusive
    store lock: two concurrent freezes (e.g. two shards finishing
    together) serialize completely, so the later publisher always
    re-reads the index after the earlier one's records landed — a
    stale partial manifest can never overwrite a more complete one.
    """
    target = Path(path) if path is not None else store.root / "manifest.json"
    with store_lock(store.root, exclusive=True):
        manifest = build_manifest_from_store(
            store,
            config,
            executor_name=executor_name,
            include_extensions=include_extensions,
        )
        _atomic_write_text(target, json.dumps(manifest, indent=1))
    return manifest


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read a manifest file; raises :class:`StoreError` on problems."""
    from repro.errors import StoreError

    p = Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"manifest missing or unreadable: {p}") from exc
    if not isinstance(data, dict) or data.get("schema") != RECORD_SCHEMA:
        raise StoreError(f"{p} is not a schema-{RECORD_SCHEMA} campaign manifest")
    return data


#: Artifact-row fields compared by :func:`diff_manifests`; run ids are
#: content-addressed, so a run_id match *is* a bit-identical result.
_DIFF_FIELDS = ("run_id", "path")
_PROV_FIELDS = ("spec_fingerprint", "engine_fingerprint", "arguments", "seed")


def diff_manifests(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Compare two campaign manifests cell-by-cell.

    Returns a structured report: artifacts present in only one
    campaign, artifacts whose identity (content-addressed run id,
    record path, or provenance fingerprints) changed — with the pair of
    differing values per field — plus top-level config changes.
    Artifacts whose compared fields all match are listed as identical.
    """
    arts_a = a.get("artifacts", {})
    arts_b = b.get("artifacts", {})
    changed: dict[str, dict[str, list[Any]]] = {}
    identical: list[str] = []
    for name in sorted(set(arts_a) & set(arts_b)):
        row_a, row_b = arts_a[name], arts_b[name]
        prov_a = row_a.get("provenance", {})
        prov_b = row_b.get("provenance", {})
        diffs: dict[str, list[Any]] = {}
        for field in _DIFF_FIELDS:
            if row_a.get(field) != row_b.get(field):
                diffs[field] = [row_a.get(field), row_b.get(field)]
        for field in _PROV_FIELDS:
            if prov_a.get(field) != prov_b.get(field):
                diffs[field] = [prov_a.get(field), prov_b.get(field)]
        if diffs:
            changed[name] = diffs
        else:
            identical.append(name)
    config_changes = {
        key: [a.get("config", {}).get(key), b.get("config", {}).get(key)]
        for key in sorted(set(a.get("config", {})) | set(b.get("config", {})))
        if a.get("config", {}).get(key) != b.get("config", {}).get(key)
    }
    for key in ("spec_fingerprint", "engine_fingerprint"):
        if a.get(key) != b.get(key):
            config_changes[key] = [a.get(key), b.get(key)]
    return {
        "only_in_a": sorted(set(arts_a) - set(arts_b)),
        "only_in_b": sorted(set(arts_b) - set(arts_a)),
        "changed": changed,
        "identical": identical,
        "config_changes": config_changes,
    }


def render_diff(diff: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_manifests` report."""
    lines: list[str] = []
    if diff["config_changes"]:
        lines.append("config changes:")
        for key, (va, vb) in sorted(diff["config_changes"].items()):
            lines.append(f"  {key}: {va!r} -> {vb!r}")
    for label, names in (("only in A", diff["only_in_a"]),
                         ("only in B", diff["only_in_b"])):
        if names:
            lines.append(f"{label}: {', '.join(names)}")
    for name, fields in diff["changed"].items():
        lines.append(f"changed {name}:")
        for field, (va, vb) in sorted(fields.items()):
            lines.append(f"  {field}: {va!r} -> {vb!r}")
    lines.append(
        f"{len(diff['identical'])} identical, {len(diff['changed'])} changed, "
        f"{len(diff['only_in_a']) + len(diff['only_in_b'])} missing"
    )
    return "\n".join(lines)
