"""The Session: shared measurement state for all paper artifacts.

A :class:`Session` owns everything the eleven experiment runners used
to construct privately:

* the :class:`~repro.machine.spec.MachineSpec` and memoized
  :class:`~repro.engine.interval.IntervalEngine` instances (one per
  engine configuration, keyed by fingerprint);
* a cross-experiment **solo cache** keyed by
  ``workload x threads x engine fingerprint`` — Fig 2, Fig 3, Fig 5 and
  Table III all reuse the same 25 solo references instead of
  recomputing them per artifact;
* one cross-experiment **scenario cache** keyed by
  ``engine fingerprint x canonical Scenario`` — every cacheable cell,
  the paper's pairs included, so Table III's five pairs and Fig 8's
  offender cells are free once the Fig 5 sweep ran;
* the :class:`ExperimentConfig` it runs and the seeded :class:`Jitter`
  model, keyed per-measurement so results do not depend on iteration
  order (which is what makes the parallel executor bit-identical to
  the serial one);
* a pluggable :class:`~repro.session.executors.Executor` that shards
  the batch engine's solves over a process or thread pool;
* optionally a persistent :class:`~repro.store.store.ResultStore`
  (``Session(config, store=...)``): solo and scenario lookups read
  through the disk tier, fresh simulations write behind to it, and
  every executed artifact's record streams into the store's index — a
  cold process over a warm store never re-simulates.

Usage::

    from repro import ExperimentConfig, Session

    session = Session(ExperimentConfig())
    fig5 = session.run("fig5")            # 625-pair sweep
    table3 = session.run("table3")        # solo + pair cells all cached
    print(fig5.result.render_fig5())
    everything = session.run_all()        # every paper artifact, one pass
"""

from __future__ import annotations

import inspect
import logging
import statistics
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable

from repro.engine.config import EngineConfig
from repro.engine.results import ScenarioRunResult, SoloRunResult
from repro.errors import ExperimentError
from repro.machine.spec import MachineSpec, xeon_e5_4650
from repro.session.base import fingerprint
from repro.session.executors import Executor, resolve_executor
from repro.session.record import RunRecord
from repro.session.registry import get_runner, runner_names
from repro.session.scenario import (
    Scenario,
    ScenarioResult,
    _ScenarioBatchTask,
    _ScenarioTask,
    _task_cell,
    run_scenario_batch_task,
    scenario_engine_parts,
)
from repro.telemetry.tracer import get_tracer
from repro.workloads.base import WorkloadProfile
from repro.workloads.calibration import APPLICATIONS
from repro.workloads.registry import get_profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.interval import IntervalEngine

__all__ = ["CacheStats", "ExperimentConfig", "Jitter", "Session", "fingerprint"]

logger = logging.getLogger(__name__)


@dataclass
class ExperimentConfig:
    """Common knobs for all experiments: which applications, how many
    threads (the paper pins 4 per app), how many repetitions (the paper
    runs each pair three times), and the seeded :class:`Jitter` model
    that exercises the repetition protocol the way real hardware does."""

    threads: int = 4
    repetitions: int = 3
    #: Fractional stddev of multiplicative measurement noise applied to
    #: runtimes per repetition (0 disables the jitter model).
    jitter: float = 0.01
    seed: int = 0
    workloads: tuple[str, ...] = APPLICATIONS
    spec: MachineSpec = field(default_factory=xeon_e5_4650)
    engine_config: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ExperimentError("repetitions must be >= 1")
        if self.jitter < 0:
            raise ExperimentError("jitter must be >= 0")
        if not self.workloads:
            raise ExperimentError("need at least one workload")

    def make_engine(self) -> IntervalEngine:
        """A fresh engine honouring this config."""
        from repro.engine.interval import IntervalEngine

        return IntervalEngine(spec=self.spec, config=self.engine_config)


class Jitter:
    """Seeded multiplicative measurement noise (the 'three runs' model).

    Constructed bare, draws come from one sequential stream seeded by
    ``config.seed``.  Constructed via :meth:`for_key`, the stream is
    derived from ``(config.seed, key)`` so each named measurement gets
    its own independent, order-free noise — the property that lets the
    parallel executor reproduce the serial sweep bit-for-bit.  The
    first one a process builds imports numpy, whose generator it draws
    from.
    """

    def __init__(self, config: ExperimentConfig, *, key: str | None = None) -> None:
        import numpy as np

        if key is None:
            self._rng = np.random.default_rng(config.seed)
        else:
            # crc32 (not hash()) so the derivation is stable across
            # processes and interpreter runs.
            self._rng = np.random.default_rng([config.seed, zlib.crc32(key.encode())])
        self._sigma = config.jitter
        self._reps = config.repetitions

    @classmethod
    def for_key(cls, config: ExperimentConfig, *parts: object) -> "Jitter":
        """Jitter stream for one named measurement (e.g. a Fig 5 cell)."""
        return cls(config, key="|".join(str(p) for p in parts))

    def measure(self, true_value: float) -> float:
        """Median of ``repetitions`` noisy observations of a value."""
        if self._sigma == 0 or true_value == 0:
            return true_value
        obs = true_value * (1.0 + self._rng.normal(0.0, self._sigma, self._reps))
        return float(statistics.median(obs))


@dataclass
class CacheStats:
    """Hit/miss economics of a session's shared caches.

    Every lookup counts exactly once: ``*_hits`` count in-memory hits,
    ``*_disk_hits`` count results served from an attached
    :class:`~repro.store.store.ResultStore` (read-through), and
    ``*_misses`` count actual simulations — a cold cell is one miss and
    nothing else.  The ``scenario_*`` counters cover every cacheable
    scenario, the paper's 2-app pairs included; within one
    :meth:`Session.run_scenarios` pass a repeat of a cell the pass
    solves is a memory hit.
    """

    solo_hits: int = 0
    solo_misses: int = 0
    solo_disk_hits: int = 0
    scenario_hits: int = 0
    scenario_misses: int = 0
    scenario_disk_hits: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(asdict(self))

    def delta_since(self, before: dict[str, int]) -> dict[str, int]:
        return {k: v - before[k] for k, v in asdict(self).items()}


def _resolve_store(value: Any) -> Any:
    """Normalize a store argument: ResultStore instance, path, or None.

    Imported lazily — :mod:`repro.store` depends on this module for
    :func:`fingerprint`, so the dependency must stay one-directional at
    import time.
    """
    if value is None:
        return None
    from repro.store import ResultStore

    if isinstance(value, ResultStore):
        return value
    return ResultStore(value)


def _strip_default_kwargs(runner: Any, kwargs: dict[str, Any]) -> dict[str, Any]:
    """Drop kwargs that merely restate the runner's execute defaults, so
    ``run("fig2")`` and ``run("fig2", max_threads=8)`` share one memo."""
    sig = inspect.signature(runner.execute)
    out: dict[str, Any] = {}
    for key, value in kwargs.items():
        param = sig.parameters.get(key)
        if param is not None and param.default is not inspect.Parameter.empty:
            try:
                if value is param.default or value == param.default:
                    continue
            except Exception:
                pass  # incomparable value: keep it
        out[key] = value
    return out


class Session:
    """Shared substrate every artifact runner executes through."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        executor: Executor | str | None = None,
        store: "Any | None" = None,
        engine_batch: bool = True,
    ) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self.executor = resolve_executor(executor)
        self.stats = CacheStats()
        #: Solve the cache-missing cells of :meth:`run_scenarios` through
        #: the stacked batch engine (:func:`repro.engine.solve_batch`),
        #: sharded over the executor.  ``False`` is the scalar
        #: reference: every cell is solved in process by the scalar
        #: solver (results are bit-identical either way).
        self.engine_batch = engine_batch
        #: Every RunRecord produced by this session, in execution order.
        self.records: list[RunRecord] = []
        #: Optional persistent ResultStore: solo/scenario lookups read
        #: through it, fresh simulations write behind to it, and every
        #: executed artifact's record is streamed into it.
        self.store = _resolve_store(store)
        self._engines: dict[str, IntervalEngine] = {}
        # Engine fingerprints memoized by config/spec object identity:
        # hashing a full MachineSpec asdict per lookup dominates sweep
        # planning otherwise.  Values keep strong references to the
        # keyed objects so ids can never be recycled underneath us
        # (configs are value objects — derivation goes through
        # dataclasses.replace, never in-place mutation).
        self._engine_fps: dict[tuple[int, int], tuple[str, Any, Any]] = {}
        self._solos: dict[tuple[str, str, int], SoloRunResult] = {}
        #: Every cacheable scenario's result, pairs included, keyed by
        #: (engine_fp, canonical scenario); hashing the frozen Scenario
        #: is far cheaper than its sha256 fingerprint.
        self._scenarios: dict[tuple[str, Scenario], ScenarioRunResult] = {}
        self._artifacts: dict[tuple[str, str], RunRecord] = {}

    # -- machine / engine ---------------------------------------------------

    @property
    def spec(self):
        """The shared machine specification."""
        return self.config.spec

    def spec_fingerprint(self) -> str:
        return fingerprint(self.spec)

    def engine_fingerprint(
        self,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> str:
        cfg = engine_config if engine_config is not None else self.config.engine_config
        sp = spec if spec is not None else self.spec
        key = (id(cfg), id(sp))
        hit = self._engine_fps.get(key)
        if hit is not None:
            return hit[0]
        fp = fingerprint(sp, cfg)
        self._engine_fps[key] = (fp, cfg, sp)
        return fp

    def engine(
        self,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> IntervalEngine:
        """Memoized engine for a (spec, engine config) pair; both default
        to the session's own."""
        cfg = engine_config if engine_config is not None else self.config.engine_config
        fp = self.engine_fingerprint(cfg, spec)
        if fp not in self._engines:
            from repro.engine.interval import IntervalEngine

            self._engines[fp] = IntervalEngine(
                spec=spec if spec is not None else self.spec, config=cfg
            )
        return self._engines[fp]

    # -- shared measurement caches -----------------------------------------

    def solo(
        self,
        name: str,
        *,
        threads: int,
        engine_config: EngineConfig | None = None,
        profile: WorkloadProfile | None = None,
        spec: MachineSpec | None = None,
    ) -> SoloRunResult:
        """Solo run, cached across every artifact of this session.

        Lookup order: in-memory cache, then the attached store (disk
        hit), then simulation — which writes behind to both.  Explicit
        ``profile`` overrides bypass the disk tier: the store keys by
        name, and only registry-resolved profiles are guaranteed stable
        under one engine fingerprint.
        """
        unsaved: "list[tuple[str, str, int, SoloRunResult]]" = []
        res = self._solo(name, threads, engine_config, profile, spec, unsaved)
        for entry in unsaved:
            self.store.put_solo(*entry)
        return res

    def _solo(
        self,
        name: str,
        threads: int,
        engine_config: EngineConfig | None,
        profile: WorkloadProfile | None,
        spec: MachineSpec | None,
        unsaved: "list[tuple[str, str, int, SoloRunResult]]",
    ) -> SoloRunResult:
        """:meth:`solo`, leaving a fresh result's store put in
        ``unsaved`` for the caller to write."""
        engine_fp = self.engine_fingerprint(engine_config, spec)
        key = (engine_fp, name, threads)
        hit = self._solos.get(key)
        if hit is not None:
            self.stats.solo_hits += 1
            return hit
        if self.store is not None and profile is None:
            disk = self.store.get_solo(engine_fp, name, threads)
            if disk is not None:
                self.stats.solo_disk_hits += 1
                self._solos[key] = disk
                return disk
        self.stats.solo_misses += 1
        prof = profile if profile is not None else get_profile(name)
        res = self.engine(engine_config, spec).solo_run(prof, threads=threads)
        self._solos[key] = res
        if self.store is not None and profile is None:
            unsaved.append((engine_fp, name, threads, res))
        return res

    def solo_runtime(
        self,
        name: str,
        *,
        threads: int,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> float:
        """Solo runtime (seconds)."""
        return self.solo(
            name, threads=threads, engine_config=engine_config, spec=spec
        ).runtime_s

    def solo_rate(
        self,
        name: str,
        *,
        threads: int,
        engine_config: EngineConfig | None = None,
        spec: MachineSpec | None = None,
    ) -> float:
        """Solo instruction throughput (instructions / second)."""
        res = self.solo(name, threads=threads, engine_config=engine_config, spec=spec)
        return res.metrics.total.instructions / res.runtime_s

    # -- scenarios ----------------------------------------------------------

    def _scenario_parts(
        self, scenario: Scenario
    ) -> tuple[str, EngineConfig, MachineSpec | None, Scenario]:
        """(engine_fp, engine_config, spec override, canonical scenario).

        The canonical scenario collapses ``llc_policy=None`` onto the
        *effective* engine policy, so the session default and the same
        policy named explicitly share one cache identity — a
        ``policy_ablation`` never re-simulates the default cell.
        """
        spec, cfg = scenario_engine_parts(self.config, scenario)
        spec_override = spec if scenario.smt else None
        canon = (
            scenario
            if scenario.llc_policy == cfg.llc_policy or not scenario.cacheable
            else replace(scenario, llc_policy=cfg.llc_policy)
        )
        return self.engine_fingerprint(cfg, spec_override), cfg, spec_override, canon

    def _scenario_solo_refs(
        self,
        scenario: Scenario,
        engine_config: EngineConfig,
        spec: MachineSpec | None,
        unsaved: "list[tuple[str, str, int, SoloRunResult]]",
    ) -> tuple[float, tuple[float, ...]]:
        """Resolve a scenario's solo references through the shared cache
        (honouring per-placement overrides), so serial loops and pool
        workers all see identical floats.  Fresh solo results are left
        in ``unsaved`` for the pass to write."""
        fg = scenario.placements[0]
        fg_runtime = self._solo(
            fg.workload, fg.threads, engine_config, fg.profile, spec, unsaved
        ).runtime_s
        rates: list[float] = []
        for p in scenario.placements[1:]:
            if p.solo_rate_override is not None:
                rates.append(p.solo_rate_override)
                continue
            solo = self._solo(p.workload, p.threads, engine_config, p.profile, spec, unsaved)
            rates.append(solo.metrics.total.instructions / solo.runtime_s)
        return fg_runtime, tuple(rates)

    def scenario_identity(self, scenario: Scenario) -> tuple[str, str, str]:
        """``(engine_fingerprint, scenario_fingerprint, cache_tier)`` —
        the persistent identity a cacheable scenario's result lives
        under in any store sharing this session's configuration.

        ``cache_tier`` names the store section the store places the
        result in: ``"corun"`` for plain 2-app scenarios and
        ``"scenario"`` for every other shape.  This is the per-cell
        provenance the ``scenario-set`` campaign artifact records.
        """
        from repro.store.store import ResultStore

        engine_fp, _, _, canon = self._scenario_parts(scenario)
        return engine_fp, canon.fingerprint, ResultStore._address(engine_fp, canon)[0]

    def run_scenario(self, scenario: Scenario) -> ScenarioResult:
        """The one measurement primitive: run a declarative scenario.

        One cell of the :meth:`run_scenarios` pass: cacheable
        scenarios, 2-app pairs included, are served from memory, then
        the store, then simulation; uncacheable scenarios (in-band
        profiles) simulate every time.

        With telemetry enabled, each call emits a
        ``session.run_scenario`` span tagged with the cache tier the
        pass reports (``memory`` / ``disk`` / ``engine``); the span is
        out-of-band and the returned result is byte-identical either
        way.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._lookup([scenario])[0][0]
        with tracer.span("session.run_scenario", apps=scenario.label) as sp:
            (result,), (tier,) = self._lookup([scenario])
            sp.tag("tier", tier)
        return result

    def run_scenarios(self, scenarios: "Iterable[Scenario]") -> list[ScenarioResult]:
        """Run many scenarios in one pass; cache-missing ones are solved
        together.

        The pass looks each cell up once — memory, then the store — and
        counts that lookup once: a memory hit (a repeat of a cell this
        pass solves included), a disk hit, or a miss.  Each distinct
        cacheable miss is solved once (uncacheable cells have no
        identity to deduplicate by, count nothing and are always
        solved).  With :attr:`engine_batch` (the default) and at least
        two cells to solve, they go through the batch engine sharded
        over the executor; otherwise each is solved in process by the
        scalar :meth:`IntervalEngine.scenario_run`.  Fresh results, and
        the solo references the pass simulated for them, are cached and
        written behind to the store after the solve, under one hold of
        its shared lock (:meth:`~repro.store.store.ResultStore.writing`).
        The returned list is bit-identical either way, whatever the
        executor.
        """
        scens = list(scenarios)
        tracer = get_tracer()
        if not tracer.enabled:
            return self._lookup(scens)[0]
        with tracer.span(
            "session.run_scenarios",
            cells=len(scens),
            executor=self.executor.name,
        ):
            return self._lookup(scens)[0]

    def _lookup(
        self, scens: "list[Scenario]"
    ) -> "tuple[list[ScenarioResult], list[str]]":
        """The one lookup pass: each cell's result and the tier that
        served it (``memory``, ``disk`` or ``engine``)."""
        results: "list[ScenarioRunResult | None]" = [None] * len(scens)
        tiers = ["engine"] * len(scens)
        tasks: list[_ScenarioTask] = []
        parts: "list[tuple[str, EngineConfig, MachineSpec | None]]" = []
        keys: "list[tuple[str, Scenario] | None]" = []
        planned: dict[tuple[str, Scenario], int] = {}
        owner: dict[int, int] = {}  # cell index -> task index
        unsaved_solos: "list[tuple[str, str, int, SoloRunResult]]" = []
        for i, s in enumerate(scens):
            engine_fp, engine_config, spec, canon = self._scenario_parts(s)
            key = (engine_fp, canon) if s.cacheable else None
            if key is not None:
                hit = self._scenarios.get(key)
                if hit is not None or key in planned:
                    self.stats.scenario_hits += 1
                    tiers[i] = "memory"
                    if hit is None:
                        owner[i] = planned[key]
                    else:
                        results[i] = hit
                    continue
                if self.store is not None:
                    hit = self.store.get_scenario(*key)
                    if hit is not None:
                        self.stats.scenario_disk_hits += 1
                        self._scenarios[key] = hit
                        results[i] = hit
                        tiers[i] = "disk"
                        continue
                planned[key] = len(tasks)
            fg_runtime, rates = self._scenario_solo_refs(s, engine_config, spec, unsaved_solos)
            owner[i] = len(tasks)
            tasks.append(_ScenarioTask(s, fg_runtime, rates))
            parts.append((engine_fp, engine_config, spec))
            keys.append(key)
        if tasks:
            if self.engine_batch and len(tasks) > 1:
                solved = self._solve_tasks_batched(tasks, [fp for fp, _, _ in parts])
            else:
                solved = [
                    self._solve_task(self.engine(cfg, spec), task)
                    for task, (_, cfg, spec) in zip(tasks, parts)
                ]
            fresh = [(key, res) for key, res in zip(keys, solved) if key is not None]
            for key, res in fresh:
                self.stats.scenario_misses += 1
                self._scenarios[key] = res
            if self.store is not None:
                # One lock hold for the pass, taken after the solve: the
                # solo references it simulated, then its cells.
                with self.store.writing():
                    for entry in unsaved_solos:
                        self.store.put_solo(*entry)
                    for key, res in fresh:
                        self.store.put_scenario(*key, res)
            for i, j in owner.items():
                results[i] = solved[j]
        return [ScenarioResult(s, r) for s, r in zip(scens, results)], tiers

    @staticmethod
    def _solve_task(engine: IntervalEngine, task: _ScenarioTask) -> ScenarioRunResult:
        """One task through the scalar :meth:`IntervalEngine.scenario_run`."""
        cell = _task_cell(task)
        return engine.scenario_run(
            cell.profiles,
            cell.threads,
            fg_solo_runtime_s=cell.fg_solo_runtime_s,
            bg_solo_rates=cell.bg_solo_rates,
            llc_ways=cell.llc_ways,
            pinnings=cell.pinnings,
        )

    def _solve_tasks_batched(
        self, tasks: "list[_ScenarioTask]", task_fps: "list[str]"
    ) -> "list[ScenarioRunResult]":
        """Solve planned scenario tasks through the batch engine.

        Tasks partition into engine-compatible groups (same engine
        fingerprint = same spec + engine config), each group shards
        across the executor's workers, and every shard is one
        :func:`repro.engine.solve_batch` call — one stacked fixed point
        instead of ``len(tasks)`` scalar solves.  Results come back in
        task order and are bit-identical to the scalar path.
        """
        groups: dict[str, list[int]] = {}
        for j, fp in enumerate(task_fps):
            groups.setdefault(fp, []).append(j)
        workers = int(getattr(self.executor, "max_workers", 1) or 1)
        n_shards = workers if self.executor.parallel else 1
        shards: list[_ScenarioBatchTask] = []
        shard_idx: list[list[int]] = []
        for idxs in groups.values():
            per = max(1, -(-len(idxs) // n_shards))
            for a in range(0, len(idxs), per):
                part = idxs[a : a + per]
                shards.append(
                    _ScenarioBatchTask(self.config, tuple(tasks[j] for j in part))
                )
                shard_idx.append(part)
        outs = self.executor.map_batches(run_scenario_batch_task, shards)
        results: "list[ScenarioRunResult | None]" = [None] * len(tasks)
        for part, out in zip(shard_idx, outs):
            for j, res in zip(part, out):
                results[j] = res
        return results  # type: ignore[return-value]

    # -- measurement jitter -------------------------------------------------

    def jitter(self, *key: Any) -> Jitter:
        """Seeded jitter model for one named measurement.

        Keying each measurement (instead of drawing from one sequential
        RNG) makes every cell's noise independent of sweep order and of
        which executor computed it.
        """
        return Jitter.for_key(self.config, *key)

    # -- artifact execution -------------------------------------------------

    def run(self, name: str, **kwargs: Any) -> RunRecord:
        """Execute one artifact by name, memoized per (name, kwargs).

        Returns the :class:`RunRecord`; re-running the same artifact
        with equivalent arguments (explicitly passing a runner default
        counts as equivalent) returns the *same* record object, so one
        session holds at most one record per distinct invocation.
        """
        runner = get_runner(name)
        kwargs = _strip_default_kwargs(runner, kwargs)
        memo_key = (name, repr(sorted(kwargs.items())))
        cached = self._artifacts.get(memo_key)
        if cached is not None:
            return cached
        tracer = get_tracer()
        before = self.stats.snapshot()
        t0 = time.perf_counter()
        if tracer.enabled:
            with tracer.span("session.run", artifact=name):
                result = runner.execute(self, **kwargs)
        else:
            result = runner.execute(self, **kwargs)
        duration = time.perf_counter() - t0
        record = RunRecord(
            artifact=name,
            result=result,
            provenance={
                "artifact": name,
                # Non-default invocation arguments (repr'd): lets the
                # store tell a canonical artifact run from a nested
                # subset run (e.g. fig6's mini-bench fig5 sweep).
                "arguments": {k: repr(v) for k, v in sorted(kwargs.items())},
                "seed": self.config.seed,
                "threads": self.config.threads,
                "repetitions": self.config.repetitions,
                "jitter": self.config.jitter,
                "workloads": list(self.config.workloads),
                "spec_fingerprint": self.spec_fingerprint(),
                "engine_fingerprint": self.engine_fingerprint(),
                "executor": self.executor.name,
                "duration_s": duration,
                "cache": self.stats.delta_since(before),
            },
        )
        self.records.append(record)
        self._artifacts[memo_key] = record
        if self.store is not None:
            self.store.record(record)
        cache_delta = record.provenance["cache"]
        tracer.merge_counters("cache", cache_delta)
        logger.info(
            "artifact %s finished in %.3fs (cache delta: %s)",
            name,
            duration,
            {k: v for k, v in cache_delta.items() if v},
        )
        return record

    def run_all(
        self,
        *,
        include_extensions: bool = False,
        names: "Iterable[str] | None" = None,
    ) -> dict[str, RunRecord]:
        """Run every paper artifact in paper order; returns name -> record.

        With ``include_extensions=True`` the registered extension
        studies (solo, insights, predict, efficiency, allocation) run
        after the paper artifacts, each with its default arguments —
        this is what ``repro run-all`` executes for a campaign.  An
        explicit ``names`` subset runs exactly those artifacts in the
        given order (``repro run-all --shard I/N`` hands each shard its
        slice of the registry this way).
        """
        if names is None:
            names = runner_names(artifact_only=not include_extensions)
        return {name: self.run(name) for name in names}
