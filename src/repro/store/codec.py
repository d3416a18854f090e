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
record read it, so a reader hands line 2 to :class:`LazyTimeline`
unparsed and the ``decode_*`` functions pass that through: it decodes
on first use to exactly the list :func:`decode_timeline` would build.
A one-line entry (timeline inline, as stores wrote into per-entry
files before the split) decodes eagerly as before.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from typing import Any

from repro.engine.results import (
    AppMetrics,
    BandwidthSample,
    CoRunResult,
    RegionMetrics,
    ScenarioRunResult,
    SoloRunResult,
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
    return [
        {"time_s": s.time_s, "bytes_per_s": dict(s.bytes_per_s)} for s in timeline
    ]


def decode_timeline(
    data: "list[dict[str, Any]] | LazyTimeline",
) -> Sequence[BandwidthSample]:
    if isinstance(data, LazyTimeline):
        return data  # a store entry's line 2: decoded on first use
    return [
        BandwidthSample(time_s=s["time_s"], bytes_per_s=dict(s["bytes_per_s"]))
        for s in data
    ]


class LazyTimeline(Sequence):
    """A read-only timeline held as its encoded JSON until first use.

    The first ``len``, index, iteration or ``==`` decodes the whole
    list and swaps it in with one assignment, so a concurrent first
    access sees either the raw bytes or the complete list, and decoding
    twice yields equal lists.  It is deliberately not a ``list``
    subclass: C-level list fast paths (``[] + x``, ``list.copy(x)``)
    read a subclass's own storage, which is empty until decoded.
    """

    __slots__ = ("_data",)

    def __init__(self, raw: bytes) -> None:
        self._data: bytes | list[BandwidthSample] = raw

    def _samples(self) -> list[BandwidthSample]:
        data = self._data
        if isinstance(data, bytes):
            data = decode_timeline(json.loads(data))
            self._data = data
        return data

    def __len__(self) -> int:
        return len(self._samples())

    def __getitem__(self, index):
        return self._samples()[index]

    def __iter__(self) -> Iterator[BandwidthSample]:
        return iter(self._samples())

    def __eq__(self, other: object) -> bool:
        return self._samples() == other

    __hash__ = None  # type: ignore[assignment]  # unhashable, like list

    def __repr__(self) -> str:
        return repr(self._samples())


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
