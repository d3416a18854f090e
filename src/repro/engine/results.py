"""Result containers for the interval engine.

Every experiment in the paper reduces to these observables: runtimes
(normalized or absolute), the four VTune metrics (CPI, L2_PCP, LLC
MPKI, LL), and PCM-style bandwidth timelines.  The accumulator gathers
them per application *and* per code region so the provenance analysis
(Figs 7–8, Table IV) can attribute contention to source lines.
"""

from __future__ import annotations

import base64
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any


@dataclass
class RegionMetrics:
    """Accumulated hardware metrics for one code region."""

    instructions: float = 0.0
    cycles: float = 0.0
    #: Cycles stalled on accesses past the private L2 (LLC or DRAM).
    pending_cycles: float = 0.0
    l2_misses: float = 0.0
    llc_misses: float = 0.0
    bus_bytes: float = 0.0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def l2_pcp(self) -> float:
        """L2 Pending Cycle Percent: share of cycles waiting past L2."""
        return self.pending_cycles / self.cycles if self.cycles else 0.0

    @property
    def llc_mpki(self) -> float:
        """LLC misses per kilo-instruction."""
        return 1000.0 * self.llc_misses / self.instructions if self.instructions else 0.0

    @property
    def l2_mpki(self) -> float:
        """L2 misses per kilo-instruction."""
        return 1000.0 * self.l2_misses / self.instructions if self.instructions else 0.0

    @property
    def ll(self) -> float:
        """The paper's LL metric: CPI * L2_PCP / (L2 misses per
        instruction) — the average load latency beyond the private L2
        as seen by one miss (cycles)."""
        if self.instructions == 0 or self.l2_misses == 0:
            return 0.0
        mpi = self.l2_misses / self.instructions
        return self.cpi * self.l2_pcp / mpi

    def merge(self, other: "RegionMetrics") -> None:
        """Accumulate another chunk into this one."""
        self.instructions += other.instructions
        self.cycles += other.cycles
        self.pending_cycles += other.pending_cycles
        self.l2_misses += other.l2_misses
        self.llc_misses += other.llc_misses
        self.bus_bytes += other.bus_bytes


@dataclass
class AppMetrics:
    """Whole-application metrics: aggregate plus per-region split."""

    name: str
    threads: int
    runtime_s: float = 0.0
    by_region: dict[str, RegionMetrics] = field(default_factory=dict)

    def region(self, name: str) -> RegionMetrics:
        """Get (or create) a region's accumulator."""
        rm = self.by_region.get(name)
        if rm is None:
            rm = self.by_region[name] = RegionMetrics()
        return rm

    @property
    def total(self) -> RegionMetrics:
        """Aggregate over all regions."""
        agg = RegionMetrics()
        for rm in self.by_region.values():
            agg.merge(rm)
        return agg

    @property
    def avg_bandwidth_bytes(self) -> float:
        """Average bus bandwidth over the app's lifetime."""
        return self.total.bus_bytes / self.runtime_s if self.runtime_s > 0 else 0.0


@dataclass(frozen=True)
class BandwidthSample:
    """One PCM-style observation: per-app bus bandwidth at a timestamp."""

    time_s: float
    bytes_per_s: dict[str, float]

    @property
    def total_bytes_per_s(self) -> float:
        return sum(self.bytes_per_s.values())


def samples_from_json(encoded: "list[dict[str, Any]]") -> list[BandwidthSample]:
    """A timeline from its JSON form: one ``{"time_s", "bytes_per_s"}``
    object per sample (what :mod:`repro.store.codec` writes)."""
    return [
        BandwidthSample(time_s=s["time_s"], bytes_per_s=dict(s["bytes_per_s"]))
        for s in encoded
    ]


class LazyTimeline(Sequence):
    """A read-only timeline kept in a compact source until first use.

    Two sources hand one out.  The batch engine keeps a cell's timeline
    as rows, ``(times, rates)`` with ``names``: sample ``k`` is at
    ``times[k]`` with ``rates[k][i]`` bytes/s for app ``names[i]``
    (numpy arrays); a name that repeats keeps its first position and its
    last rate, as the ``bytes_per_s`` dict of the scalar solver does.
    The store's read path keeps an entry's line 2, the same rows packed
    (:meth:`packed`), as bytes, with the names it was packed under.
    :meth:`encoded` builds the JSON form straight from either source, so
    writing a result to the store builds no :class:`BandwidthSample`,
    and gives the same bytes whether or not the timeline was read first.

    The first ``len``, index, iteration or ``==`` decodes the whole
    list and publishes it with one assignment, so a concurrent first
    access sees either no list or the complete one, and decoding twice
    yields equal lists.  numpy is imported only then (or by
    :meth:`packed` over rows), so a process that reads entries without
    their timelines never loads it.  It is deliberately not a ``list`` subclass:
    C-level list fast paths (``[] + x``, ``list.copy(x)``) read a
    subclass's own storage, which is empty until decoded.
    """

    __slots__ = ("_source", "_names", "_list")

    def __init__(
        self, source: "bytes | tuple[Any, Any]", names: Sequence[str] = ()
    ) -> None:
        self._source = source
        self._names = tuple(names)
        self._list: list[BandwidthSample] | None = None

    def _rows(self) -> "tuple[Any, Any, tuple[str, ...]]":
        """``(times, rates, names)`` with every name once: a repeated
        name's column is its last one, at its first position."""
        source, names = self._source, self._names
        if isinstance(source, bytes):
            import numpy as np

            table = np.frombuffer(base64.b64decode(source), dtype="<f8")
            table = table.reshape(-1, len(names) + 1)
            return table[:, 0], table[:, 1:], names
        times, rates = source
        if len(set(names)) < len(names):
            last = {name: i for i, name in enumerate(names)}
            return times, rates[:, list(last.values())], tuple(last)
        return times, rates, names

    def packed(self) -> "tuple[tuple[str, ...], bytes]":
        """The names and the store's line-2 form of this timeline: the
        rows, each a time then one rate per name, as little-endian
        float64 in base64.  A timeline read from the store hands back
        the bytes it was read from."""
        if isinstance(self._source, bytes):
            return self._names, self._source
        import numpy as np

        times, rates, names = self._rows()
        table = np.column_stack((times, rates)).astype("<f8", copy=False)
        return names, base64.b64encode(table.tobytes())

    def encoded(self) -> list[dict[str, Any]]:
        """The JSON form :func:`repro.store.codec.encode_timeline` writes,
        built from the source."""
        times, rates, names = self._rows()
        return [
            {"time_s": t, "bytes_per_s": dict(zip(names, row))}
            for t, row in zip(times.tolist(), rates.tolist())
        ]

    def _decode(self) -> list[BandwidthSample]:
        return samples_from_json(self.encoded())

    def _samples(self) -> list[BandwidthSample]:
        samples = self._list
        if samples is None:
            samples = self._list = self._decode()
        return samples

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


@dataclass
class SoloRunResult:
    """Outcome of one application running alone."""

    metrics: AppMetrics
    timeline: Sequence[BandwidthSample] = field(default_factory=list)

    @property
    def runtime_s(self) -> float:
        return self.metrics.runtime_s


@dataclass
class CoRunResult:
    """Outcome of a foreground/background consolidation pair.

    The background application restarts for as long as the foreground
    runs (the paper's protocol); ``bg_progress_rate`` is its steady
    instruction throughput relative to its solo throughput.
    """

    fg: AppMetrics
    bg: AppMetrics
    fg_solo_runtime_s: float
    bg_relative_rate: float
    timeline: Sequence[BandwidthSample] = field(default_factory=list)

    @property
    def normalized_time(self) -> float:
        """Fig 5's cell value: fg co-run time / fg solo time."""
        if self.fg_solo_runtime_s <= 0:
            return 0.0
        return self.fg.runtime_s / self.fg_solo_runtime_s

    @property
    def bg_slowdown(self) -> float:
        """Background slowdown factor (>= 1 when it is hurt)."""
        return 1.0 / self.bg_relative_rate if self.bg_relative_rate > 0 else float("inf")


@dataclass
class ScenarioRunResult:
    """Outcome of an N-way consolidation scenario.

    ``apps[0]`` is the measured foreground (the paper's protocol
    generalized): every other application loops for as long as the
    foreground runs, and each background's progress is reported
    relative to its solo instruction rate.  For exactly two apps this
    carries the same observables as :class:`CoRunResult` —
    :meth:`to_corun` / :meth:`from_corun` convert losslessly.
    """

    apps: list[AppMetrics]
    fg_solo_runtime_s: float
    #: One entry per background app (``apps[1:]``): instruction
    #: throughput while consolidated / solo instruction throughput.
    bg_relative_rates: list[float]
    timeline: Sequence[BandwidthSample] = field(default_factory=list)

    @property
    def fg(self) -> AppMetrics:
        return self.apps[0]

    @property
    def backgrounds(self) -> list[AppMetrics]:
        return self.apps[1:]

    @property
    def normalized_time(self) -> float:
        """Foreground co-run time / foreground solo time."""
        if self.fg_solo_runtime_s <= 0:
            return 0.0
        return self.fg.runtime_s / self.fg_solo_runtime_s

    def bg_slowdowns(self) -> list[float]:
        """Per-background slowdown factors (>= 1 when hurt)."""
        return [
            1.0 / r if r > 0 else float("inf") for r in self.bg_relative_rates
        ]

    def to_corun(self) -> CoRunResult:
        """Lossless view of a 2-app scenario as a legacy pair result."""
        if len(self.apps) != 2:
            raise ValueError(
                f"only 2-app scenarios convert to CoRunResult, got {len(self.apps)}"
            )
        return CoRunResult(
            fg=self.apps[0],
            bg=self.apps[1],
            fg_solo_runtime_s=self.fg_solo_runtime_s,
            bg_relative_rate=self.bg_relative_rates[0],
            timeline=self.timeline,
        )

    @staticmethod
    def from_corun(co: CoRunResult) -> "ScenarioRunResult":
        """Lift a legacy pair result into the scenario container."""
        return ScenarioRunResult(
            apps=[co.fg, co.bg],
            fg_solo_runtime_s=co.fg_solo_runtime_s,
            bg_relative_rates=[co.bg_relative_rate],
            timeline=co.timeline,
        )
