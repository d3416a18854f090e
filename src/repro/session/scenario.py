"""Declarative consolidation scenarios: the Session's one measurement
vocabulary.

A :class:`Scenario` is a hashable *value object* describing one
consolidation experiment: an ordered tuple of
:class:`AppPlacement`\\ (workload, threads) entries — the first
placement is the measured foreground, every other application loops
for as long as it runs (the paper's protocol generalized to N live
apps) — plus engine overrides:

* ``llc_policy`` — run under a non-default LLC sharing policy
  (``"pressure"``/``"even"``/``"static"``); with per-app way masks in
  play the policy governs how *overlapping* ways split, so each global
  policy is simply the all-ways-shared preset of the mask model;
* ``smt`` — run on the SMT-enabled variant of the session's machine
  spec (double the hardware-thread slots, shared core pipelines).

On top of the scenario-wide knobs, each :class:`AppPlacement` can
carry true CAT partitioning state: ``llc_ways`` (a way-mask bitmap
validated against ``MachineSpec.llc_ways``; disjoint masks isolate
capacity, overlapping masks share it pressure-style) and ``pinning``
(explicit physical core ids — two placements that pin the same SMT
core deliberately share its pipeline, and asymmetric spreads model
core-allocation policies beyond thread counts).  Both join the
scenario payload **only when set**, so mask-free, pin-free scenarios
keep their pre-CAT fingerprints and every warm store keeps serving.
Masked or pinned *pairs* have no pair key (the pair key cannot encode
a bitmap): the store keeps them under their scenario fingerprint in
its ``scenario/`` section instead.

Identity and caching
--------------------

A cacheable scenario is its own in-memory cache key (the session keys
one map by ``(engine fingerprint, canonical Scenario)``).
``scenario.fingerprint`` hashes the canonical :meth:`Scenario.payload`
through :func:`~repro.session.base.fingerprint`; the store keys an
entry by that same payload (:func:`repro.store.codec.entry_key`).  The
store decides where a scenario lives, and on disk a **plain pair**
*reduces to its pair key*: :meth:`Scenario.corun_key` exposes the
``(fg, bg, fg_threads, bg_threads)`` tuple the store's ``corun/``
section is keyed by — which is why a warm store written before the
scenario redesign still serves 2-app scenarios bit-identically, with
zero re-simulation.  Every other shape lives in the store's
``scenario/`` section under its fingerprint.

Synthetic applications (the Bubble-Up predictor's tunable balloon) can
be placed **in-band** via ``AppPlacement(profile=...)``; such
scenarios are executable but deliberately *uncacheable* — a profile
object is not a stable registry name, so its results never enter the
keyed caches (exactly the pre-redesign behaviour of the predictor's
bespoke co-runs).

:class:`ScenarioSet` builds sweeps declaratively: pairwise products
(the Fig 5 matrix), N-way consolidations (every size-N combination,
each member taking a turn as foreground) and LLC-policy ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Sequence

from repro.engine.config import LLC_POLICIES, BatchCell
from repro.engine.results import ScenarioRunResult
from repro.errors import ScenarioError
from repro.session.base import fingerprint
from repro.workloads.base import WorkloadProfile
from repro.workloads.registry import get_profile

if TYPE_CHECKING:
    from repro.session.session import ExperimentConfig


@dataclass(frozen=True)
class AppPlacement:
    """One application's seat in a scenario.

    ``profile`` carries an in-band synthetic
    :class:`~repro.workloads.base.WorkloadProfile` (e.g. the Bubble-Up
    balloon) instead of resolving ``workload`` through the registry;
    ``solo_rate_override`` substitutes the background's solo
    instruction rate reference (the predictor passes a sentinel — the
    balloon's own progress is meaningless).  Either one marks the
    enclosing scenario uncacheable.

    ``llc_ways`` is an optional CAT way-mask bitmap (``0xF0`` = this
    app may only fill the four high LLC ways); ``pinning`` pins the
    app's threads to explicit physical core ids (two placements that
    pin the same core deliberately share its pipeline).  Both are part
    of the scenario's cache identity — and both stay *out* of the
    canonical payload when unset, so mask-free, pin-free scenarios keep
    their pre-CAT fingerprints bit-identical.
    """

    workload: str
    threads: int
    profile: WorkloadProfile | None = None
    solo_rate_override: float | None = None
    #: CAT way-mask bitmap; ``None`` = all ways (unpartitioned).
    llc_ways: int | None = None
    #: Physical core ids to pin this app's threads to; ``None`` =
    #: schedule onto the cores no placement reserves.
    pinning: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.workload:
            raise ScenarioError("placement needs a workload name")
        if self.threads < 1:
            raise ScenarioError(f"{self.workload}: threads must be >= 1")
        if self.llc_ways is not None and (
            not isinstance(self.llc_ways, int) or self.llc_ways <= 0
        ):
            raise ScenarioError(
                f"{self.workload}: llc_ways must be a positive bitmap, "
                f"got {self.llc_ways!r}"
            )
        if self.pinning is not None:
            cores = tuple(self.pinning)
            if not cores:
                raise ScenarioError(f"{self.workload}: empty pinning")
            if any(not isinstance(c, int) or c < 0 for c in cores):
                raise ScenarioError(
                    f"{self.workload}: pinning must name core ids >= 0, got {cores}"
                )
            if len(set(cores)) != len(cores):
                raise ScenarioError(f"{self.workload}: duplicate cores in {cores}")
            object.__setattr__(self, "pinning", cores)

    @property
    def plain(self) -> bool:
        """True when this placement resolves purely through the
        workload registry (the cacheable case)."""
        return self.profile is None and self.solo_rate_override is None

    @property
    def partitioned(self) -> bool:
        """True when a way mask or pinning shapes this placement."""
        return self.llc_ways is not None or self.pinning is not None

    def resolve_profile(self) -> WorkloadProfile:
        return self.profile if self.profile is not None else get_profile(self.workload)

    @property
    def label(self) -> str:
        text = f"{self.workload}:{self.threads}"
        if self.llc_ways is not None:
            text += f"@{self.llc_ways:#x}"
        if self.pinning is not None:
            text += f"#{','.join(str(c) for c in self.pinning)}"
        return text


def parse_placement(spec: str, *, default_threads: int = 4) -> AppPlacement:
    """Parse a CLI placement spec: ``"G-CC:2"`` or bare ``"G-CC"``."""
    name, sep, threads = spec.rpartition(":")
    if not sep:
        return AppPlacement(spec, default_threads)
    try:
        return AppPlacement(name, int(threads))
    except ValueError:
        raise ScenarioError(
            f"bad placement {spec!r}; expected NAME or NAME:THREADS"
        ) from None


def parse_way_mask(spec: str) -> tuple[str, int]:
    """Parse a CLI way-mask spec ``"NAME:0xF0"`` (hex, binary or
    decimal bitmap) into ``(workload, mask)``."""
    name, sep, mask = spec.rpartition(":")
    if not sep or not name:
        raise ScenarioError(
            f"bad way mask {spec!r}; expected NAME:BITMAP, e.g. G-CC:0xF0"
        )
    try:
        value = int(mask, 0)
    except ValueError:
        raise ScenarioError(
            f"bad way mask {spec!r}; bitmap must be an integer like 0xF0"
        ) from None
    return name, value


def parse_pinning(spec: str) -> tuple[str, tuple[int, ...]]:
    """Parse a CLI pinning spec ``"NAME:0,1"`` into
    ``(workload, core_ids)``."""
    name, sep, cores = spec.rpartition(":")
    if not sep or not name:
        raise ScenarioError(
            f"bad pinning {spec!r}; expected NAME:CORE[,CORE...], e.g. G-CC:0,1"
        )
    try:
        ids = tuple(int(c) for c in cores.split(",") if c != "")
    except ValueError:
        raise ScenarioError(
            f"bad pinning {spec!r}; cores must be integers like 0,1"
        ) from None
    if not ids:
        raise ScenarioError(f"bad pinning {spec!r}; names no cores")
    return name, ids


@dataclass(frozen=True)
class Scenario:
    """A declarative, hashable N-way consolidation experiment."""

    placements: tuple[AppPlacement, ...]
    #: LLC sharing policy override; ``None`` keeps the session default.
    llc_policy: str | None = None
    #: Run on the SMT-enabled variant of the session's machine spec.
    smt: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))
        if not self.placements:
            raise ScenarioError("a scenario needs at least one placement")
        if self.llc_policy is not None and self.llc_policy not in LLC_POLICIES:
            raise ScenarioError(
                f"unknown llc_policy {self.llc_policy!r}; "
                f"use one of {', '.join(LLC_POLICIES)}"
            )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(
        *specs: "str | AppPlacement",
        threads: int = 4,
        llc_policy: str | None = None,
        smt: bool = False,
    ) -> "Scenario":
        """Build from placement specs: ``Scenario.of("bfs:8", "dnn:4")``."""
        placements = tuple(
            s if isinstance(s, AppPlacement) else parse_placement(s, default_threads=threads)
            for s in specs
        )
        return Scenario(placements, llc_policy=llc_policy, smt=smt)

    @staticmethod
    def pair(
        fg: str,
        bg: str,
        *,
        threads: int = 4,
        bg_threads: int | None = None,
        llc_policy: str | None = None,
        smt: bool = False,
    ) -> "Scenario":
        """The classic 2-app consolidation (Fig 5's cell shape)."""
        return Scenario(
            (
                AppPlacement(fg, threads),
                AppPlacement(bg, bg_threads if bg_threads is not None else threads),
            ),
            llc_policy=llc_policy,
            smt=smt,
        )

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from its canonical :meth:`payload` dict —
        the inverse used by store round-trips (``scenario`` /
        ``scenario-set`` record decoding)."""
        apps = payload["apps"]
        ways = payload.get("llc_ways") or [None] * len(apps)
        pins = payload.get("pinning") or [None] * len(apps)
        return Scenario(
            tuple(
                AppPlacement(
                    name,
                    threads,
                    llc_ways=mask,
                    pinning=tuple(pin) if pin is not None else None,
                )
                for (name, threads), mask, pin in zip(apps, ways, pins)
            ),
            llc_policy=payload.get("llc_policy"),
            smt=bool(payload.get("smt", False)),
        )

    # -- identity -----------------------------------------------------------

    @property
    def cacheable(self) -> bool:
        """Only registry-named, override-free placements have a stable
        identity under one engine fingerprint."""
        return all(p.plain for p in self.placements)

    @property
    def partitioned(self) -> bool:
        """True when any placement carries a way mask or pinning."""
        return any(p.partitioned for p in self.placements)

    def payload(self) -> dict[str, Any]:
        """Canonical JSON identity (what :attr:`fingerprint` hashes and
        the store persists as the entry key).

        Way masks and pinnings join the payload **only when set**: a
        mask-free, pin-free scenario hashes to exactly the pre-CAT
        payload, so every previously persisted entry keeps serving.
        """
        payload: dict[str, Any] = {
            "apps": [[p.workload, p.threads] for p in self.placements],
            "llc_policy": self.llc_policy,
            "smt": self.smt,
        }
        if any(p.llc_ways is not None for p in self.placements):
            payload["llc_ways"] = [p.llc_ways for p in self.placements]
        if any(p.pinning is not None for p in self.placements):
            payload["pinning"] = [
                list(p.pinning) if p.pinning is not None else None
                for p in self.placements
            ]
        return payload

    @property
    def fingerprint(self) -> str:
        """Stable short hash of the canonical payload.

        Golden values are pinned by the test suite: changing the
        payload shape invalidates every persisted scenario entry, like
        bumping the store schema.
        """
        if not self.cacheable:
            raise ScenarioError(
                "scenarios with in-band profiles or solo overrides have no "
                "stable fingerprint (and are never cached)"
            )
        return fingerprint("scenario", self.payload())

    def corun_key(self) -> tuple[str, str, int, int] | None:
        """The pair key ``(fg, bg, fg_threads, bg_threads)`` when this
        scenario *is* a classic co-run, else ``None``.

        The store files a scenario that has one in its ``corun/``
        section under this key
        (:meth:`~repro.store.store.ResultStore.get_scenario`), so warm
        stores written before the scenario redesign stay bit-identical
        and are never re-simulated.  Way-masked or pinned pairs have
        *no* pair key — it cannot encode a CAT bitmap, so the store
        keeps them under their scenario fingerprint instead.
        """
        if len(self.placements) != 2 or not self.cacheable or self.partitioned:
            return None
        fg, bg = self.placements
        return (fg.workload, bg.workload, fg.threads, bg.threads)

    @property
    def label(self) -> str:
        """Compact human identity, e.g. ``G-CC:4+Stream:4[llc=even]``."""
        apps = "+".join(p.label for p in self.placements)
        mods = []
        if self.llc_policy is not None:
            mods.append(f"llc={self.llc_policy}")
        if self.smt:
            mods.append("smt")
        return apps + (f"[{','.join(mods)}]" if mods else "")

    # -- derivation ---------------------------------------------------------

    def with_policy(self, llc_policy: str | None) -> "Scenario":
        return replace(self, llc_policy=llc_policy)

    def with_smt(self, smt: bool = True) -> "Scenario":
        return replace(self, smt=smt)

    def _per_placement(
        self, values: "Sequence[Any] | dict[str, Any] | None", kind: str
    ) -> list[Any]:
        """Normalize a per-placement override to a placement-aligned
        list: ``None`` (strip all), a ``{workload: value}`` dict (every
        named workload must be placed), or an aligned sequence."""
        if values is None:
            return [None] * len(self.placements)
        if isinstance(values, dict):
            unknown = set(values) - {p.workload for p in self.placements}
            if unknown:
                raise ScenarioError(
                    f"{kind} names unplaced workload(s): {sorted(unknown)}"
                )
            return [values.get(p.workload) for p in self.placements]
        if len(values) != len(self.placements):
            raise ScenarioError(
                f"{len(self.placements)} placements but {len(values)} {kind}s"
            )
        return list(values)

    def with_ways(
        self, masks: "Sequence[int | None] | dict[str, int] | None"
    ) -> "Scenario":
        """This scenario under CAT way masks.

        ``masks`` is either a sequence aligned with the placements or a
        ``{workload: bitmap}`` dict (every named workload must be
        placed); ``None`` strips all masks.
        """
        seq = self._per_placement(masks, "way mask")
        return replace(
            self,
            placements=tuple(
                replace(p, llc_ways=m) for p, m in zip(self.placements, seq)
            ),
        )

    def with_pinning(
        self,
        pins: "Sequence[tuple[int, ...] | None] | dict[str, tuple[int, ...]] | None",
    ) -> "Scenario":
        """This scenario with explicit core pinnings (same shapes as
        :meth:`with_ways`)."""
        seq = self._per_placement(pins, "pinning")
        return replace(
            self,
            placements=tuple(
                replace(p, pinning=tuple(c) if c is not None else None)
                for p, c in zip(self.placements, seq)
            ),
        )

    @property
    def total_threads(self) -> int:
        return sum(p.threads for p in self.placements)


@dataclass(frozen=True)
class ScenarioSet:
    """An ordered collection of scenarios plus sweep builders."""

    scenarios: tuple[Scenario, ...] = ()

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __getitem__(self, i: int) -> Scenario:
        return self.scenarios[i]

    def __add__(self, other: "ScenarioSet") -> "ScenarioSet":
        return ScenarioSet(self.scenarios + other.scenarios)

    def shard(self, index: int, count: int) -> "ScenarioSet":
        """Round-robin shard ``index``/``count`` (1-based) of this set.

        The ``count`` shards are disjoint and cover every scenario —
        the declarative primitive behind splitting one sweep across
        campaign processes that share a store.
        """
        if count < 1 or not 1 <= index <= count:
            raise ScenarioError(
                f"bad shard {index}/{count}; need 1 <= index <= count"
            )
        return ScenarioSet(self.scenarios[index - 1 :: count])

    # -- builders -----------------------------------------------------------

    @staticmethod
    def pairwise(
        foregrounds: Sequence[str],
        backgrounds: Sequence[str] | None = None,
        *,
        threads: int = 4,
        bg_threads: int | None = None,
        llc_policy: str | None = None,
        smt: bool = False,
    ) -> "ScenarioSet":
        """Every fg x bg product (Fig 5's 625-pair shape)."""
        bgs = backgrounds if backgrounds is not None else foregrounds
        return ScenarioSet(
            tuple(
                Scenario.pair(
                    fg, bg, threads=threads, bg_threads=bg_threads,
                    llc_policy=llc_policy, smt=smt,
                )
                for fg in foregrounds
                for bg in bgs
            )
        )

    @staticmethod
    def consolidations(
        workloads: Sequence[str],
        *,
        n: int = 3,
        threads: int = 1,
        rotate: bool = True,
        llc_policy: str | None = None,
        smt: bool = False,
    ) -> "ScenarioSet":
        """Every size-``n`` combination of ``workloads`` as an N-way
        consolidation; with ``rotate`` each member takes a turn as the
        measured foreground (n scenarios per combination) — the shape
        no pair API can express."""
        if n < 1:
            raise ScenarioError("n must be >= 1")
        if n > len(workloads):
            raise ScenarioError(
                f"cannot pick {n} distinct apps from {len(workloads)} workloads"
            )
        scenarios: list[Scenario] = []
        for combo in combinations(workloads, n):
            rotations = (
                [combo[i:] + combo[:i] for i in range(n)] if rotate else [combo]
            )
            for order in rotations:
                scenarios.append(
                    Scenario(
                        tuple(AppPlacement(name, threads) for name in order),
                        llc_policy=llc_policy,
                        smt=smt,
                    )
                )
        return ScenarioSet(tuple(scenarios))

    @staticmethod
    def policy_ablation(
        base: Scenario,
        policies: Sequence[str | None] = LLC_POLICIES,
    ) -> "ScenarioSet":
        """The same placements under each LLC sharing policy."""
        return ScenarioSet(tuple(base.with_policy(p) for p in policies))


@dataclass
class ScenarioResult:
    """A scenario plus its measured outcome (what
    :meth:`Session.run_scenario` returns)."""

    scenario: Scenario
    result: ScenarioRunResult

    @property
    def normalized_time(self) -> float:
        """Foreground co-run time / foreground solo time."""
        return self.result.normalized_time

    @property
    def bg_relative_rates(self) -> list[float]:
        return self.result.bg_relative_rates

    @property
    def fg(self) -> str:
        return self.scenario.placements[0].workload

    @property
    def backgrounds(self) -> tuple[str, ...]:
        return tuple(p.workload for p in self.scenario.placements[1:])


class _ScenarioTask(NamedTuple):
    """One scenario to solve (picklable primitives; solo references
    come pre-resolved from the parent session's caches)."""

    scenario: Scenario
    fg_solo_runtime_s: float
    bg_solo_rates: tuple[float, ...]


def scenario_engine_parts(config: ExperimentConfig, scenario: Scenario):
    """(spec, engine_config) a scenario runs under, given a base config.

    Shared by the session (cache keying) and the batch workers (engine
    rebuild), so both sides resolve overrides identically.
    """
    spec = config.spec.smt_variant() if scenario.smt else config.spec
    cfg = config.engine_config
    if scenario.llc_policy is not None and scenario.llc_policy != cfg.llc_policy:
        cfg = replace(cfg, llc_policy=scenario.llc_policy)
    return spec, cfg


@dataclass(frozen=True)
class _ScenarioBatchTask:
    """One engine-compatible shard of scenarios shipped to a batch
    solve (picklable; every task shares one engine fingerprint, so the
    worker rebuilds a single engine for the whole shard).

    ``len()`` counts cells so executors can size their serial-fallback
    decision without knowing the payload shape.
    """

    config: ExperimentConfig
    tasks: tuple[_ScenarioTask, ...]

    def __len__(self) -> int:
        return len(self.tasks)


def _task_cell(task: _ScenarioTask) -> BatchCell:
    """A scenario task in the engine's cell vocabulary — the one
    Scenario -> :class:`~repro.engine.BatchCell` conversion.

    Way masks and pinnings travel only for partitioned scenarios.  Solo
    references stay mask/pin-free: the paper normalizes against the
    *unrestricted* solo run, which also keeps the shared solo cache
    serving every CAT/pinning variant.
    """
    s = task.scenario
    part = s.partitioned
    return BatchCell(
        profiles=tuple(p.resolve_profile() for p in s.placements),
        threads=tuple(p.threads for p in s.placements),
        fg_solo_runtime_s=task.fg_solo_runtime_s,
        bg_solo_rates=tuple(task.bg_solo_rates),
        llc_ways=tuple(p.llc_ways for p in s.placements) if part else None,
        pinnings=tuple(p.pinning for p in s.placements) if part else None,
    )


def run_scenario_batch_task(batch: _ScenarioBatchTask) -> list[ScenarioRunResult]:
    """Solve one engine-compatible shard through the batch engine.

    Runs in-process or inside pool workers; all tasks in the shard
    resolve to the same (spec, engine config) pair by construction, so
    one engine serves every cell.  Results are bit-identical to the
    scalar per-cell path (``solve_batch``'s contract).
    """
    from repro.engine import solve_batch
    from repro.engine.interval import IntervalEngine

    spec, cfg = scenario_engine_parts(batch.config, batch.tasks[0].scenario)
    engine = IntervalEngine(spec=spec, config=cfg)
    return solve_batch(engine, [_task_cell(t) for t in batch.tasks])
