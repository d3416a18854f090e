"""N-way consolidation studies: the scenarios no pair API can express.

Three runners built on the first-class Scenario API:

* ``scenario`` — execute one declarative scenario (what ``repro
  scenario run bfs:8 dnn:4 amg:4 --llc-policy static`` dispatches to),
  returning a per-app outcome table that round-trips through the
  result store like any other artifact;
* ``consolidate-n`` — the >=3-app degradation table: every size-N
  combination of a workload pool co-runs with each member taking a
  turn as the measured foreground, under an optional LLC policy / SMT
  override.  The paper stops at pairs (Fig 5); this is the ROADMAP's
  ">2-app consolidations" axis made a first-class artifact.
* ``scenario-set`` — a whole :class:`ScenarioSet` sweep persisted as
  **one campaign artifact with per-cell provenance**: every cell
  records the scenario payload, its stable fingerprint, the engine
  fingerprint shard it caches under and which store section holds it
  (plain pair cells live in ``corun/``, every other cell in
  ``scenario/``).
  The default sweep re-declares the cells Fig 5 and ``consolidate-n``
  already simulate, so inside a campaign it costs only cache hits —
  the sweep's identity lands in ``manifest.json`` for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ScenarioError
from repro.sched.classify import VICTIM_THRESHOLD, NWayVerdict, classify_nway
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import (
    AppPlacement,
    Scenario,
    ScenarioResult,
    ScenarioSet,
)
from repro.tables import ascii_table


def rotation_verdicts(
    cells: "list[tuple[tuple[Any, ...], tuple[str, ...], str, float]]",
    *,
    threshold: float = VICTIM_THRESHOLD,
) -> list[NWayVerdict]:
    """Aggregate foreground-rotation cells into N-way verdicts.

    ``cells`` rows are ``(group_key, members, fg, fg_slowdown)`` where
    ``group_key`` identifies one consolidation (the sorted member tuple
    plus any policy overrides), ``members`` is its full roster and
    ``fg`` names the cell's measured foreground.  Only *complete*
    rotations — every member measured as foreground once — yield a
    verdict; partial groups are skipped, never guessed.
    """
    groups: dict[tuple[Any, ...], dict[str, float]] = {}
    roster: dict[tuple[Any, ...], tuple[str, ...]] = {}
    order: list[tuple[Any, ...]] = []
    for key, members, fg, slowdown in cells:
        if key not in groups:
            groups[key] = {}
            roster[key] = tuple(sorted(members))
            order.append(key)
        groups[key].setdefault(fg, slowdown)
    out: list[NWayVerdict] = []
    for key in order:
        members = roster[key]
        rotated = groups[key]
        if len(members) < 2 or set(rotated) != set(members):
            continue
        out.append(
            classify_nway(
                members, [rotated[m] for m in members], threshold=threshold
            )
        )
    return out


#: Largest default workload pool for ``consolidate-n`` (C(6,3)*3 = 60
#: cells); explicit ``apps=`` lifts the cap.
MAX_DEFAULT_POOL = 6


def fit_placements(spec, pool_size: int, config_threads: int, n: int | None = None):
    """(n, threads-per-app) fitting ``n`` placements onto a machine:
    at most 3 apps by default, threads split so the scenario fills no
    more than the spec's hardware-thread slots.  The single sizing rule
    shared by :func:`default_scenario` and ``consolidate-n``."""
    n = n if n is not None else max(1, min(3, pool_size, spec.n_slots))
    threads = max(1, min(config_threads, spec.n_slots // n))
    return n, threads


def default_scenario(session, *, llc_policy: str | None = None, smt: bool = False) -> Scenario:
    """A sensible scenario for argument-free runs (``repro scenario``,
    ``run-all`` campaigns): the first few configured workloads, threads
    split so the placements fit the machine's hardware threads."""
    config = session.config
    spec = config.spec.smt_variant() if smt else config.spec
    n, threads = fit_placements(spec, len(config.workloads), config.threads)
    return Scenario(
        tuple(AppPlacement(name, threads) for name in config.workloads[:n]),
        llc_policy=llc_policy,
        smt=smt,
    )


def render_scenario_result(sres: ScenarioResult) -> str:
    """Per-app outcome table for one executed scenario."""
    scenario, result = sres.scenario, sres.result
    headers = ["app", "threads", "role", "slowdown / rel. rate"]
    rows: list[list[Any]] = [
        [
            scenario.placements[0].workload,
            scenario.placements[0].threads,
            "foreground",
            f"{result.normalized_time:.3f}x solo time",
        ]
    ]
    for place, rate in zip(scenario.placements[1:], result.bg_relative_rates):
        rows.append(
            [place.workload, place.threads, "background", f"{rate:.3f}x solo rate"]
        )
    policy = scenario.llc_policy if scenario.llc_policy is not None else "(session default)"
    return ascii_table(
        headers,
        rows,
        title=(
            f"Scenario {scenario.label}: "
            f"llc_policy={policy}, smt={'on' if scenario.smt else 'off'}"
        ),
    )


@register_runner("scenario")
class ScenarioRunner(Runner):
    """Run one :class:`Scenario` through the session (CLI: ``repro
    scenario run <app:threads> ...``); defaults to a small N-way
    consolidation of the configured workloads."""

    def execute(
        self,
        session,
        *,
        scenario: Scenario | None = None,
        llc_policy: str | None = None,
        smt: bool = False,
    ) -> ScenarioResult:
        if scenario is None:
            scenario = default_scenario(session, llc_policy=llc_policy, smt=smt)
        if not scenario.cacheable:
            raise ScenarioError(
                "the scenario artifact requires registry-named placements "
                "(in-band profiles cannot round-trip through the store)"
            )
        return session.run_scenario(scenario)

    def render(self, result: ScenarioResult, **_) -> str:
        return render_scenario_result(result)

    def encode(self, result: ScenarioResult) -> dict:
        from repro.store.codec import encode_scenario_result

        return {
            "scenario": result.scenario.payload(),
            "result": encode_scenario_result(result.result),
        }

    def decode(self, payload: dict) -> ScenarioResult:
        from repro.store.codec import decode_scenario_result

        scenario = Scenario.from_payload(payload["scenario"])
        return ScenarioResult(scenario, decode_scenario_result(payload["result"]))


@dataclass(frozen=True)
class SweepCell:
    """One executed sweep cell plus its persistent identity.

    The provenance triple (``engine_fingerprint``, ``fingerprint``,
    ``tier``) names exactly where this cell's result lives in any store
    sharing the campaign's configuration — a manifest row built from
    these cells is re-loadable measurement by measurement.
    """

    scenario: Scenario
    #: Engine-fingerprint shard the cell caches under.
    engine_fingerprint: str
    #: The scenario's stable cache fingerprint.
    fingerprint: str
    #: Store section: ``"corun"`` (plain pairs) or ``"scenario"``.
    tier: str
    #: Foreground co-run time / foreground solo time.
    fg_slowdown: float
    #: Per-background progress relative to solo.
    bg_relative_rates: tuple[float, ...]


@dataclass
class ScenarioSweep:
    """A whole ScenarioSet sweep as one campaign artifact."""

    pool: tuple[str, ...]
    llc_policy: str | None
    smt: bool
    cells: list[SweepCell] = field(default_factory=list)

    def worst(self) -> SweepCell:
        return max(self.cells, key=lambda c: c.fg_slowdown)

    def by_tier(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.cells:
            counts[c.tier] = counts.get(c.tier, 0) + 1
        return counts

    def verdicts(self, *, threshold: float = VICTIM_THRESHOLD) -> list[NWayVerdict]:
        """N-way verdicts over every complete rotation group in the
        sweep.  Members are identified by their placement label (so an
        asymmetric ``G-CC:2`` and ``G-CC:4`` never merge), and the
        group key carries the engine overrides — the same placements
        under two LLC policies classify independently."""
        rows = []
        for c in self.cells:
            s = c.scenario
            labels = tuple(p.label for p in s.placements)
            rows.append(
                (
                    (tuple(sorted(labels)), s.llc_policy, s.smt),
                    labels,
                    labels[0],
                    c.fg_slowdown,
                )
            )
        return rotation_verdicts(rows, threshold=threshold)

    def render(self, *, top: int = 10) -> str:
        tiers = ", ".join(f"{n} {t}" for t, n in sorted(self.by_tier().items()))
        policy = self.llc_policy if self.llc_policy is not None else "default"
        ranked = sorted(self.cells, key=lambda c: -c.fg_slowdown)[:top]
        rows = [
            [
                c.scenario.label,
                c.tier,
                f"{c.fg_slowdown:.3f}",
                c.fingerprint,
            ]
            for c in ranked
        ]
        table = ascii_table(
            ["scenario", "tier", "fg slowdown", "cell fingerprint"],
            rows,
            title=(
                f"ScenarioSet sweep: {len(self.cells)} cells ({tiers}), "
                f"llc={policy}, smt={'on' if self.smt else 'off'} — "
                f"{min(top, len(self.cells))} most degraded"
            ),
        )
        verdicts = self.verdicts()
        if verdicts:
            counts: dict[str, int] = {}
            for v in verdicts:
                counts[v.relationship.value] = counts.get(v.relationship.value, 0) + 1
            table += (
                f"verdicts over {len(verdicts)} complete rotation group(s): "
                + ", ".join(f"{n} {rel}" for rel, n in sorted(counts.items()))
                + "\n"
            )
        return table


def default_sweep(session, *, llc_policy: str | None = None, smt: bool = False) -> ScenarioSet:
    """The argument-free ``scenario-set`` sweep: the Fig 5 pairwise
    product plus the ``consolidate-n`` rotation set (same pools, same
    thread fits), declared as one ScenarioSet.  Inside a ``run-all`` /
    ``repro campaign`` pass those cells are already persisted, so the
    sweep artifact materializes their provenance from cache hits alone.
    """
    config = session.config
    spec = config.spec.smt_variant() if smt else config.spec
    sweep = ScenarioSet.pairwise(
        config.workloads, threads=config.threads, llc_policy=llc_policy, smt=smt
    )
    pool = config.workloads[:MAX_DEFAULT_POOL]
    n, threads = fit_placements(spec, len(pool), config.threads)
    if n >= 3:
        sweep = sweep + ScenarioSet.consolidations(
            pool, n=n, threads=threads, llc_policy=llc_policy, smt=smt
        )
    return sweep


@register_runner("scenario-set")
class ScenarioSetRunner(Runner):
    """Persist a whole :class:`ScenarioSet` sweep as one artifact.

    Cells fan out over the session executor through the shared caches;
    every cell is recorded with the (engine fingerprint, scenario
    fingerprint, cache tier) triple that locates its persisted result —
    the PR 3 follow-on: a sweep is now a first-class campaign artifact,
    not just a loop that warms caches.

    ``shard="I/N"`` executes only the round-robin cell slice
    (:meth:`ScenarioSet.shard`), which is how ``run-all --shard I/N``
    splits the sweep at *cell* granularity: every shard warms its
    disjoint slice of the shared store, then whichever shard owns the
    ``scenario-set`` artifact name materializes the canonical full
    record from cache hits.
    """

    def execute(
        self,
        session,
        *,
        scenarios: "ScenarioSet | tuple[Scenario, ...] | None" = None,
        llc_policy: str | None = None,
        smt: bool = False,
        shard: str | None = None,
    ) -> ScenarioSweep:
        sweep = (
            default_sweep(session, llc_policy=llc_policy, smt=smt)
            if scenarios is None
            else ScenarioSet(tuple(scenarios))
        )
        if not len(sweep):
            raise ScenarioError("scenario-set needs at least one scenario")
        if shard is not None:
            from repro.store.campaign import parse_shard

            index, count = parse_shard(shard)
            sweep = sweep.shard(index, count)
            if not len(sweep):
                raise ScenarioError(
                    f"shard {shard} selects no cells "
                    f"(the sweep has fewer scenarios than shards)"
                )
        for s in sweep:
            if not s.cacheable:
                raise ScenarioError(
                    "scenario-set requires registry-named placements "
                    "(in-band profiles have no stable cell identity)"
                )
        result = ScenarioSweep(
            pool=session.config.workloads, llc_policy=llc_policy, smt=smt
        )
        for sres in session.run_scenarios(sweep):
            engine_fp, cell_fp, tier = session.scenario_identity(sres.scenario)
            result.cells.append(
                SweepCell(
                    scenario=sres.scenario,
                    engine_fingerprint=engine_fp,
                    fingerprint=cell_fp,
                    tier=tier,
                    fg_slowdown=sres.normalized_time,
                    bg_relative_rates=tuple(sres.bg_relative_rates),
                )
            )
        return result

    def render(self, result: ScenarioSweep, **_) -> str:
        worst = result.worst()
        return (
            result.render()
            + f"worst hit: {worst.scenario.label} at {worst.fg_slowdown:.3f}x"
        )

    def encode(self, result: ScenarioSweep) -> dict:
        return {
            "pool": list(result.pool),
            "llc_policy": result.llc_policy,
            "smt": result.smt,
            "verdicts": [
                [list(v.apps), list(v.slowdowns), v.relationship.value]
                for v in result.verdicts()
            ],
            "cells": [
                [
                    c.scenario.payload(),
                    c.engine_fingerprint,
                    c.fingerprint,
                    c.tier,
                    c.fg_slowdown,
                    list(c.bg_relative_rates),
                ]
                for c in result.cells
            ],
        }

    def decode(self, payload: dict) -> ScenarioSweep:
        return ScenarioSweep(
            pool=tuple(payload["pool"]),
            llc_policy=payload["llc_policy"],
            smt=payload["smt"],
            cells=[
                SweepCell(
                    scenario=Scenario.from_payload(spec),
                    engine_fingerprint=engine_fp,
                    fingerprint=cell_fp,
                    tier=tier,
                    fg_slowdown=slowdown,
                    bg_relative_rates=tuple(rates),
                )
                for spec, engine_fp, cell_fp, tier, slowdown, rates in payload["cells"]
            ],
        )


@dataclass(frozen=True)
class NWayCell:
    """One N-way consolidation outcome: a foreground measured against
    N-1 looping backgrounds."""

    fg: str
    backgrounds: tuple[str, ...]
    threads: int
    #: Foreground co-run time / foreground solo time.
    fg_slowdown: float
    #: Per-background progress relative to solo, ordered like
    #: ``backgrounds``.
    bg_relative_rates: tuple[float, ...]


@dataclass
class NWayDegradationTable:
    """The >=3-app degradation table (``consolidate-n``)."""

    n: int
    threads: int
    llc_policy: str | None
    smt: bool
    cells: list[NWayCell] = field(default_factory=list)
    #: The workload pool the combinations were drawn from.
    pool: tuple[str, ...] = ()
    #: Original pool size when the default cap truncated it (no silent
    #: caps: the render reports the truncation), else ``None``.
    pool_truncated_from: int | None = None

    def cell(self, fg: str, backgrounds: tuple[str, ...]) -> NWayCell:
        for c in self.cells:
            if c.fg == fg and c.backgrounds == tuple(backgrounds):
                return c
        raise KeyError((fg, tuple(backgrounds)))

    def worst(self) -> NWayCell:
        """The most-degraded foreground across all consolidations."""
        return max(self.cells, key=lambda c: c.fg_slowdown)

    def verdicts(self, *, threshold: float = VICTIM_THRESHOLD) -> list[NWayVerdict]:
        """One :class:`NWayVerdict` per complete rotation group: the
        pair taxonomy generalized over each consolidation's foreground
        rotations (derived from the cells, so stored tables re-classify
        identically)."""
        return rotation_verdicts(
            [
                (
                    tuple(sorted((c.fg,) + c.backgrounds)),
                    (c.fg,) + c.backgrounds,
                    c.fg,
                    c.fg_slowdown,
                )
                for c in self.cells
            ],
            threshold=threshold,
        )

    def render(self) -> str:
        headers = ["foreground", "backgrounds", "fg slowdown", "bg rel. rates"]
        rows = [
            [
                c.fg,
                " + ".join(c.backgrounds),
                f"{c.fg_slowdown:.3f}",
                ", ".join(f"{r:.3f}" for r in c.bg_relative_rates),
            ]
            for c in self.cells
        ]
        policy = self.llc_policy if self.llc_policy is not None else "default"
        table = ascii_table(
            headers,
            rows,
            title=(
                f"{self.n}-way consolidation ({self.threads} threads/app, "
                f"llc={policy}, smt={'on' if self.smt else 'off'})"
            ),
        )
        if self.pool_truncated_from is not None:
            table += (
                f"note: default pool capped to the first {len(self.pool)} of "
                f"{self.pool_truncated_from} workloads; pass apps= "
                "(or a smaller --workloads) for the full sweep\n"
            )
        verdicts = self.verdicts()
        if verdicts:
            table += ascii_table(
                ["consolidation", "verdict", "roles"],
                [
                    [
                        " + ".join(v.apps),
                        v.relationship.value,
                        ", ".join(f"{a}={v.role(a)}" for a in v.apps),
                    ]
                    for v in verdicts
                ],
                title=(
                    f"N-way verdicts ({VICTIM_THRESHOLD}x threshold, "
                    "aggregated across fg rotations)"
                ),
            )
        return table


@register_runner("consolidate-n")
class NWayConsolidationRunner(Runner):
    """Every size-N combination of the workload pool, each member taking
    a turn as the measured foreground — the degradation surface the
    pair-only API could not express.  Scenarios fan out over the
    session executor and land in the scenario cache tier."""

    def execute(
        self,
        session,
        *,
        apps: tuple[str, ...] | None = None,
        n: int | None = None,
        threads: int | None = None,
        llc_policy: str | None = None,
        smt: bool = False,
    ) -> NWayDegradationTable:
        config = session.config
        spec = config.spec.smt_variant() if smt else config.spec
        pool = tuple(apps) if apps is not None else config.workloads
        truncated_from = None
        if apps is None and len(pool) > MAX_DEFAULT_POOL:
            # The full roster would be C(25, 3) * 3 ~ 7k simulations;
            # cap the *default* pool and say so in the render (explicit
            # apps= sweeps whatever it is given).
            truncated_from = len(pool)
            pool = pool[:MAX_DEFAULT_POOL]
        fit_n, fit_threads = fit_placements(spec, len(pool), config.threads, n)
        n = fit_n
        threads = threads if threads is not None else fit_threads
        sweep = ScenarioSet.consolidations(
            pool, n=n, threads=threads, llc_policy=llc_policy, smt=smt
        )
        table = NWayDegradationTable(
            n=n, threads=threads, llc_policy=llc_policy, smt=smt,
            pool=pool, pool_truncated_from=truncated_from,
        )
        for sres in session.run_scenarios(sweep):
            table.cells.append(
                NWayCell(
                    fg=sres.fg,
                    backgrounds=sres.backgrounds,
                    threads=threads,
                    fg_slowdown=sres.normalized_time,
                    bg_relative_rates=tuple(sres.bg_relative_rates),
                )
            )
        return table

    def render(self, result: NWayDegradationTable, **_) -> str:
        worst = result.worst()
        return (
            result.render()
            + f"worst hit: {worst.fg} at {worst.fg_slowdown:.3f}x "
            f"behind {' + '.join(worst.backgrounds)}"
        )

    def encode(self, result: NWayDegradationTable) -> dict:
        return {
            "n": result.n,
            "threads": result.threads,
            "llc_policy": result.llc_policy,
            "smt": result.smt,
            "pool": list(result.pool),
            "pool_truncated_from": result.pool_truncated_from,
            "cells": [
                [c.fg, list(c.backgrounds), c.threads, c.fg_slowdown,
                 list(c.bg_relative_rates)]
                for c in result.cells
            ],
            # Derived, re-derivable from the cells; persisted so stored
            # records carry the classification without a decode pass.
            "verdicts": [
                [list(v.apps), list(v.slowdowns), v.relationship.value]
                for v in result.verdicts()
            ],
        }

    def decode(self, payload: dict) -> NWayDegradationTable:
        table = NWayDegradationTable(
            n=payload["n"],
            threads=payload["threads"],
            llc_policy=payload["llc_policy"],
            smt=payload["smt"],
            pool=tuple(payload.get("pool", ())),
            pool_truncated_from=payload.get("pool_truncated_from"),
        )
        table.cells = [
            NWayCell(
                fg=fg,
                backgrounds=tuple(bgs),
                threads=threads,
                fg_slowdown=slow,
                bg_relative_rates=tuple(rates),
            )
            for fg, bgs, threads, slow, rates in payload["cells"]
        ]
        return table
