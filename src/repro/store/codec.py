"""Codecs for the engine's result containers: exact JSON, and the packed
cache entry of store schema 2.

The persistent cache only works if a round-tripped result is
*bit-identical* to the in-memory original: a Fig 5 cell computed from a
disk-loaded solo reference must equal the cell computed in the same
process.

**JSON.**  ``encode_*`` / ``decode_*`` turn a result into plain JSON
data and back.  Python's ``json`` module serializes floats via
``repr``, whose shortest-round-trip representation re-parses to the
exact same IEEE-754 value, and both ``dict`` and JSON objects preserve
insertion order — so the per-region accumulation order (which matters
for float summation in :attr:`AppMetrics.total`) survives the trip.
Records (``results/``), run ids and output digests hash this form; the
cache no longer stores it (``repro store migrate`` reads it from stores
of schema 1).  The codec is deliberately explicit per type rather than
reflective: silent field drift would change every digest.

**Packed entries** (:func:`pack_entry` / :func:`unpack_entry`).  A cache
entry is two lines, appended together to a segment log.  Line 1 is a
JSON object whose fields come in a fixed order::

    {"keyfp": K, "schema": 2, "kind": KIND, "key": KEY, "shape": SHAPE,
     "numbers": NUMBERS, "sha256": DIGEST}

``keyfp`` is a truncated sha256 of ``KEY``'s bytes (:func:`entry_key`),
first so a scan reads it at a fixed offset.  ``SHAPE`` holds what is not
a number: ``{"apps": [[name, threads, [region, ...]], ...], "timeline":
[name, ...]}``.  ``NUMBERS`` is every number of the result, as
little-endian float64 in base64: the result's own scalars
(``fg_solo_runtime_s`` then the background rates; a pair's
``bg_relative_rate``; none for a solo run), then per app its
``runtime_s`` followed by each region's six metrics in
``_REGION_FIELDS`` order.  Line 2 is the bandwidth timeline's rows
(:meth:`~repro.engine.results.LazyTimeline.packed`): each sample's time
then one rate per ``SHAPE["timeline"]`` name, packed the same way.
Every sample lists the same apps in the same order (the engine's
timelines are rectangular); a timeline that does not is refused, not
guessed at.  ``DIGEST``, line 1's last field, is a truncated sha256 of
every byte of line 1 before it and of line 2.  base64 holds no newline,
so an entry is always two lines.

A read compares line 1 up to ``SHAPE`` with the bytes the key it looks
up gives (so schema, kind and key are checked without parsing JSON),
checks the digest, parses ``SHAPE`` (once per distinct shape, see
:func:`_shape`) and unpacks the numbers with :mod:`struct`; nothing is
parsed as float text.  Line 2 is handed over unread as a
:class:`~repro.engine.results.LazyTimeline` and decodes on first use,
to the list :func:`decode_timeline` would build; only Fig 3, Table III
and the ``scenario`` record ever read one.  A put packs straight from
the result dataclasses and, for a batch result, from the engine's
timeline rows.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import struct
from collections.abc import Sequence
from typing import Any

from repro.engine.results import (
    AppMetrics,
    BandwidthSample,
    CoRunResult,
    LazyTimeline,
    RegionMetrics,
    ScenarioRunResult,
    SoloRunResult,
    samples_from_json,
)

#: Version of the store's on-disk layout (``store.json`` and every cache
#: entry); bumped on incompatible change.
SCHEMA_VERSION = 2

_REGION_FIELDS = (
    "instructions",
    "cycles",
    "pending_cycles",
    "l2_misses",
    "llc_misses",
    "bus_bytes",
)


def encode_region_metrics(rm: RegionMetrics) -> dict[str, float]:
    return {f: getattr(rm, f) for f in _REGION_FIELDS}


def decode_region_metrics(data: dict[str, float]) -> RegionMetrics:
    return RegionMetrics(
        instructions=data["instructions"],
        cycles=data["cycles"],
        pending_cycles=data["pending_cycles"],
        l2_misses=data["l2_misses"],
        llc_misses=data["llc_misses"],
        bus_bytes=data["bus_bytes"],
    )


def encode_app_metrics(am: AppMetrics) -> dict[str, Any]:
    return {
        "name": am.name,
        "threads": am.threads,
        "runtime_s": am.runtime_s,
        "by_region": {
            region: encode_region_metrics(rm) for region, rm in am.by_region.items()
        },
    }


def decode_app_metrics(data: dict[str, Any]) -> AppMetrics:
    return AppMetrics(
        name=data["name"],
        threads=data["threads"],
        runtime_s=data["runtime_s"],
        by_region={
            region: decode_region_metrics(rm)
            for region, rm in data["by_region"].items()
        },
    )


def encode_timeline(timeline: Sequence[BandwidthSample]) -> list[dict[str, Any]]:
    if isinstance(timeline, LazyTimeline):
        return timeline.encoded()
    return [
        {"time_s": s.time_s, "bytes_per_s": dict(s.bytes_per_s)} for s in timeline
    ]


def decode_timeline(data: "list[dict[str, Any]]") -> Sequence[BandwidthSample]:
    return samples_from_json(data)


def encode_solo(res: SoloRunResult) -> dict[str, Any]:
    return {
        "metrics": encode_app_metrics(res.metrics),
        "timeline": encode_timeline(res.timeline),
    }


def decode_solo(data: dict[str, Any]) -> SoloRunResult:
    return SoloRunResult(
        metrics=decode_app_metrics(data["metrics"]),
        timeline=decode_timeline(data["timeline"]),
    )


def encode_corun(res: CoRunResult) -> dict[str, Any]:
    return {
        "fg": encode_app_metrics(res.fg),
        "bg": encode_app_metrics(res.bg),
        "fg_solo_runtime_s": res.fg_solo_runtime_s,
        "bg_relative_rate": res.bg_relative_rate,
        "timeline": encode_timeline(res.timeline),
    }


def decode_corun(data: dict[str, Any]) -> CoRunResult:
    return CoRunResult(
        fg=decode_app_metrics(data["fg"]),
        bg=decode_app_metrics(data["bg"]),
        fg_solo_runtime_s=data["fg_solo_runtime_s"],
        bg_relative_rate=data["bg_relative_rate"],
        timeline=decode_timeline(data["timeline"]),
    )


def encode_scenario_result(res: ScenarioRunResult) -> dict[str, Any]:
    return {
        "apps": [encode_app_metrics(a) for a in res.apps],
        "fg_solo_runtime_s": res.fg_solo_runtime_s,
        "bg_relative_rates": list(res.bg_relative_rates),
        "timeline": encode_timeline(res.timeline),
    }


def decode_scenario_result(data: dict[str, Any]) -> ScenarioRunResult:
    return ScenarioRunResult(
        apps=[decode_app_metrics(a) for a in data["apps"]],
        fg_solo_runtime_s=data["fg_solo_runtime_s"],
        bg_relative_rates=list(data["bg_relative_rates"]),
        timeline=decode_timeline(data["timeline"]),
    )


# -- packed entries (schema 2) --------------------------------------------------


def entry_key(key: dict[str, Any]) -> tuple[bytes, str]:
    """The bytes an entry stores its key as, and the key fingerprint
    that addresses it (one hash of those bytes)."""
    data = json.dumps(key).encode()
    return data, hashlib.sha256(data).hexdigest()[:12]


def _digest(body: bytes, line2: bytes) -> bytes:
    h = hashlib.sha256(body)
    h.update(line2)
    return h.hexdigest()[:16].encode()


def _pack_timeline(timeline: Sequence[BandwidthSample]) -> tuple[Sequence[str], bytes]:
    """A timeline's names and its line 2 (see the module docstring)."""
    if isinstance(timeline, LazyTimeline):
        return timeline.packed()
    if not timeline:
        return (), b""
    names = list(timeline[0].bytes_per_s)
    rates = []
    for sample in timeline:
        if list(sample.bytes_per_s) != names:
            raise ValueError(
                f"timeline is not rectangular: a sample at {sample.time_s} lists "
                f"{list(sample.bytes_per_s)}, the first lists {names}"
            )
        rates.append(list(sample.bytes_per_s.values()))
    import numpy as np

    rows = (np.array([s.time_s for s in timeline]), np.array(rates).reshape(len(rates), len(names)))
    return LazyTimeline(rows, names).packed()


def _parts(kind: str, result: Any) -> tuple[list[float], list[AppMetrics]]:
    """A result's own scalars and its apps, in packing order."""
    if kind == "solo":
        return [], [result.metrics]
    if kind == "corun":
        return [result.fg_solo_runtime_s, result.bg_relative_rate], [result.fg, result.bg]
    return [result.fg_solo_runtime_s, *result.bg_relative_rates], list(result.apps)


def _prefix(kind: str, keyfp: str, key: bytes) -> bytes:
    """Line 1 up to its shape: what a read compares with its lookup's key."""
    return b'{"keyfp": "%s", "schema": %d, "kind": "%s", "key": %s, "shape": ' % (
        keyfp.encode(), SCHEMA_VERSION, kind.encode(), key,
    )


_NUMBERS = b', "numbers": "'
_SHA = b', "sha256": "'
#: The bytes of line 1 from ``_SHA`` on: the digest and the closing brace.
_TAIL = len(_SHA) + 16 + len(b'"}')


def pack_entry(kind: str, keyfp: str, key: bytes, result: Any) -> bytes:
    """Both lines of the cache entry of ``result`` under ``key`` (the
    bytes :func:`entry_key` gives) and its fingerprint ``keyfp``."""
    values, apps = _parts(kind, result)
    shape_apps = []
    for app in apps:
        shape_apps.append([app.name, app.threads, list(app.by_region)])
        values.append(app.runtime_s)
        for rm in app.by_region.values():
            values += (
                rm.instructions, rm.cycles, rm.pending_cycles,
                rm.l2_misses, rm.llc_misses, rm.bus_bytes,
            )
    names, line2 = _pack_timeline(result.timeline)
    body = b"".join((
        _prefix(kind, keyfp, key),
        json.dumps({"apps": shape_apps, "timeline": list(names)}).encode(),
        _NUMBERS,
        base64.b64encode(struct.pack(f"<{len(values)}d", *values)),
        b'"',
    ))
    return b"".join((body, _SHA, _digest(body, line2), b'"}\n', line2, b"\n"))


@functools.lru_cache(maxsize=2048)
def _shape(
    data: bytes,
) -> tuple[tuple[tuple[str, int, tuple[str, ...]], ...], tuple[str, ...], int]:
    """A shape's apps as ``(name, threads, regions)``, its timeline
    names, and how many numbers its apps hold.  Shapes repeat across
    entries (a serve day's 4,212 reads hold about 930 distinct ones), so
    each is parsed once while it stays among the last 2048 used."""
    parsed = json.loads(data)
    apps = tuple((name, threads, tuple(regions)) for name, threads, regions in parsed["apps"])
    return apps, tuple(parsed["timeline"]), sum(1 + 6 * len(regions) for _, _, regions in apps)


def unpack_entry(raw: bytes, kind: str, keyfp: str, key: bytes) -> Any | None:
    """The result in one entry's bytes (both lines, as appended), or
    ``None`` if they are not a whole schema-2 entry of ``kind`` under
    ``key`` (the bytes :func:`entry_key` gives) whose digest holds."""
    head, _, line2 = raw.partition(b"\n")
    prefix = _prefix(kind, keyfp, key)
    body = head[:-_TAIL]
    if not (line2.endswith(b"\n") and body.startswith(prefix)):
        return None
    line2 = line2[:-1]
    if head[len(body) :] != b'%s%s"}' % (_SHA, _digest(body, line2)):
        return None
    shape, _, numbers = body[len(prefix) : -1].rpartition(_NUMBERS)
    try:
        apps_shape, names, held = _shape(shape)
        packed = base64.b64decode(numbers, validate=True)
        values = struct.unpack(f"<{len(packed) // 8}d", packed)
    except (ValueError, TypeError, KeyError, struct.error):
        return None
    own = len(values) - held  # the result's own scalars, before the apps
    if own < 0:
        return None
    it = iter(values[own:])
    apps = []
    for name, threads, regions in apps_shape:
        runtime_s = next(it)
        metrics = zip(it, it, it, it, it, it)  # one region's six at a time
        by_region = {region: RegionMetrics(*six) for region, six in zip(regions, metrics)}
        apps.append(AppMetrics(name, threads, runtime_s, by_region))
    timeline = LazyTimeline(line2, names)
    if kind == "solo":
        return SoloRunResult(apps[0], timeline) if own == 0 and len(apps) == 1 else None
    if kind == "corun":
        if own != 2 or len(apps) != 2:
            return None
        return CoRunResult(apps[0], apps[1], values[0], values[1], timeline)
    return ScenarioRunResult(apps, values[0], list(values[1:own]), timeline) if own else None
