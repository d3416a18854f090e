"""Exact JSON codec for the engine's result containers.

The persistent cache only works if a round-tripped result is
*bit-identical* to the in-memory original: a Fig 5 cell computed from a
disk-loaded solo reference must equal the cell computed in the same
process.  Python's ``json`` module serializes floats via ``repr``,
whose shortest-round-trip representation re-parses to the exact same
IEEE-754 value, and both ``dict`` and JSON objects preserve insertion
order — so the per-region accumulation order (which matters for float
summation in :attr:`AppMetrics.total`) survives the trip.

The codec is deliberately explicit per type rather than reflective:
the on-disk schema is a contract (see :data:`SCHEMA_VERSION` in
:mod:`repro.store.store`), and silent field drift would corrupt warm
stores.

A store entry splits each encoded result into two lines, appended
together to a segment log.  Line 1 is the envelope (key fingerprint
first) with the result minus its bandwidth timeline (plus a digest of
line 2); line 2 is the encoded timeline alone.  The timeline is most of
an entry's bytes and only Fig 3, Table III and the ``scenario``
record read it, so a reader hands line 2 unparsed to a
:class:`~repro.engine.results.LazyTimeline` (the type the batch engine
keeps its timelines in, as rows) and the ``decode_*`` functions pass
that through: it decodes on first use to exactly the list
:func:`decode_timeline` would build.  :func:`encode_timeline` encodes a
lazy timeline straight from its source, so a batch result goes to disk
without a :class:`~repro.engine.results.BandwidthSample` being built.
A one-line entry (timeline inline, as stores wrote into per-entry
files before the split) decodes eagerly as before.  The store appends
a pass's entries under one hold of its shared lock
(:meth:`~repro.store.store.ResultStore.writing`).
"""

from __future__ import annotations

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


def decode_timeline(
    data: "list[dict[str, Any]] | LazyTimeline",
) -> Sequence[BandwidthSample]:
    if isinstance(data, LazyTimeline):
        return data  # a store entry's line 2: decoded on first use
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
