"""The interval engine: fast analytic co-execution simulation.

Each application is a :class:`~repro.workloads.base.WorkloadProfile`.
The engine advances wall-clock time in steps bounded by phase
boundaries; inside each step it solves a damped fixed point coupling
three mechanisms:

1. **CPI stack** — ``CPI = 1/IPC_core + sync(t) + max(latency stall,
   bandwidth stall)`` where the latency stall walks L2 misses through
   the LLC (hit) or DRAM (miss, queue-inflated), divided by the phase's
   memory-level parallelism, with prefetch-covered misses mostly hidden;
2. **LLC sharing** — capacity splits by insertion pressure capped by
   footprint (:mod:`repro.engine.llc_sharing`); each app's miss ratio
   comes from its miss-ratio curve at its current share;
3. **bus contention** — sub-saturation latency inflation plus
   proportional throughput division at saturation
   (:mod:`repro.engine.bandwidth`).

The same engine runs solo characterization (Figs 2–4), 625-pair
consolidation (Fig 5) and the provenance profiling (Figs 7–8), so every
co-run number *emerges* from these mechanisms rather than being looked
up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import EngineError
from repro.engine.bandwidth import resolve_bus
from repro.engine.config import BatchCell, EngineConfig
from repro.engine.llc_sharing import allocate_llc, allocate_llc_groups, way_groups
from repro.engine.results import (
    AppMetrics,
    BandwidthSample,
    CoRunResult,
    ScenarioRunResult,
    SoloRunResult,
)
from repro.machine.spec import MachineSpec, xeon_e5_4650
from repro.telemetry.tracer import get_tracer
from repro.units import CACHE_LINE
from repro.workloads.base import RegionProfile, WorkloadProfile

#: Fraction of a phase's "regular" L2-miss traffic the prefetchers cover.
PREFETCH_COVERAGE = 0.85
#: Fraction of a covered miss's DRAM latency that prefetching hides.
PREFETCH_HIDE = 0.88
#: Useless prefetched bytes per covered-miss byte (overfetch tax).
PREFETCH_OVERFETCH = 0.30
#: Super-linear weighting of LLC insertion pressure: heavy inserters
#: (STREAM) displace light ones more than proportionally, reproducing
#: the ~2.6x victim-MPKI inflation of Fig 7c.
LLC_PRESSURE_EXP = 1.6
#: SMT marginal throughput: the second hardware thread on a core adds
#: this fraction of single-thread throughput (Sandy Bridge-class SMT
#: yields ~1.3x aggregate).  Only active on ``hyperthreading=True``
#: specs when the live thread count oversubscribes the physical cores.
SMT_MARGINAL_THROUGHPUT = 0.30
#: Fixed-point iteration limits.
_MAX_ITER = 60
_TOL = 1e-5
_DAMP = 0.5
#: Step-count safety valve.
_MAX_STEPS = 200_000


@dataclass
class _LiveApp:
    """Mutable execution state of one co-running application."""

    profile: WorkloadProfile
    threads: int
    looping: bool
    metrics: AppMetrics
    region_i: int = 0
    instr_done_in_region: float = 0.0
    finished: bool = False
    total_instructions: float = 0.0
    #: CAT way-mask bitmap restricting this app's LLC reach; ``None``
    #: means all ways (the unpartitioned default).
    llc_ways: int | None = None
    #: Physical core ids this app's threads are pinned to; ``None``
    #: schedules onto the cores no placement reserves.
    pinning: tuple[int, ...] | None = None

    @property
    def region(self) -> RegionProfile:
        return self.profile.regions[self.region_i]

    def region_instr(self) -> float:
        """Dynamic instructions of the current region at this thread
        count (work inflation applied)."""
        work = self.profile.total_kinstr * 1000.0 * self.profile.scaling.work_factor(self.threads)
        return work * self.region.weight

    def effective_threads(self) -> int:
        return 1 if self.region.serial else self.threads


@dataclass(frozen=True)
class _PhaseSolution:
    """Fixed-point outcome for one app during one step."""

    cpi: float
    sync_cpi: float
    stall_cpi: float
    rate_per_thread: float  # instructions / s
    bytes_per_s: float      # app-wide bus traffic
    llc_miss_ratio: float
    llc_alloc_bytes: float


class IntervalEngine:
    """Analytic co-execution simulator over WorkloadProfiles."""

    def __init__(
        self,
        spec: MachineSpec | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.spec = spec if spec is not None else xeon_e5_4650()
        self.config = config if config is not None else EngineConfig()

    # -- fixed point -----------------------------------------------------

    def _solve(
        self,
        apps: list[_LiveApp],
        alloc0: list[float] | None,
        rho0: float,
    ) -> tuple[list[_PhaseSolution], list[float], float]:
        spec = self.spec
        cfg = self.config
        freq = spec.freq_hz
        llc_cap = float(spec.llc.size_bytes)
        llc_lat = float(spec.llc.latency_cycles)
        idle_lat = float(spec.memory.idle_latency_cycles)
        n = len(apps)

        alloc = list(alloc0) if alloc0 is not None else [llc_cap / n] * n
        rho = rho0
        # SMT pipeline sharing: when the live threads oversubscribe the
        # physical cores, each core time-slices its two hardware
        # threads; the second thread adds SMT_MARGINAL_THROUGHPUT of a
        # core's throughput, so per-thread core IPC scales down.  The
        # scale is exactly 1.0 whenever the spec disables SMT or the
        # threads fit the cores, keeping non-SMT results bit-identical.
        # With explicit pinning the contention is per-app: each app's
        # threads spread over its pinned cores, a core's occupancy is
        # what its residents pay for, and pinned cores are *reserved* —
        # unpinned apps spread over the remaining cores (as a real
        # scheduler would), falling back to all cores only when every
        # core is claimed by some pinning.
        smt_scales = [1.0] * n
        if any(a.pinning is not None for a in apps):
            reserved = {c for a in apps if a.pinning is not None for c in a.pinning}
            free = tuple(c for c in range(spec.n_cores) if c not in reserved)
            if not free:
                free = tuple(range(spec.n_cores))
            occ = [0.0] * spec.n_cores
            spans: list[tuple[int, ...]] = []
            for a in apps:
                cores = a.pinning if a.pinning is not None else free
                spans.append(cores)
                load = a.effective_threads() / len(cores)
                for c in cores:
                    occ[c] += load
            for i in range(n):
                per_core = sum(occ[c] for c in spans[i]) / len(spans[i])
                if per_core > 1.0:
                    if spec.hyperthreading:
                        smt_scales[i] = (
                            1.0 + (per_core - 1.0) * SMT_MARGINAL_THROUGHPUT
                        ) / per_core
                    else:
                        # A non-SMT core time-slices fairly: pure division.
                        smt_scales[i] = 1.0 / per_core
        elif spec.hyperthreading:
            live_threads = sum(a.effective_threads() for a in apps)
            if live_threads > spec.n_cores:
                per_core = live_threads / spec.n_cores
                smt_scales = [
                    (1.0 + (per_core - 1.0) * SMT_MARGINAL_THROUGHPUT) / per_core
                ] * n
        # Per-app CAT way masks: when any app carries a bitmap the LLC
        # targets come from the masked allocator; the no-mask path below
        # is kept verbatim so unpartitioned runs stay bit-identical.
        # The ways' sharer groups depend on the masks alone: grouped
        # once here, not on every iteration.
        has_masks = any(a.llc_ways is not None for a in apps)
        mask_caps: list[float] = []
        if has_masks:
            full = (1 << spec.llc_ways) - 1
            mask_caps = [
                bin(a.llc_ways if a.llc_ways is not None else full).count("1")
                * spec.llc_way_bytes
                for a in apps
            ]
            groups = way_groups(spec.llc_ways, [a.llc_ways for a in apps])
        sols: list[_PhaseSolution] = []
        for _ in range(_MAX_ITER):
            from repro.machine.memory import queueing_latency_multiplier

            qmult = (
                queueing_latency_multiplier(rho, spec.memory)
                if cfg.use_queueing
                else 1.0
            )
            miss_ratios: list[float] = []
            stalls_lat: list[float] = []
            bpis: list[float] = []
            cpis: list[float] = []
            rates: list[float] = []
            demands: list[float] = []
            syncs: list[float] = []
            for i, app in enumerate(apps):
                r = app.region
                if cfg.llc_policy == "static":
                    cap_i = mask_caps[i] if has_masks else llc_cap
                    m = r.mrc.miss_ratio(min(r.footprint_bytes, cap_i))
                else:
                    m = r.mrc.miss_ratio(alloc[i])
                cov = r.regularity * PREFETCH_COVERAGE if cfg.prefetchers_on else 0.0
                mem_lat = idle_lat * qmult
                l_eff = llc_lat + m * (1.0 - PREFETCH_HIDE * cov) * mem_lat
                mlp = r.mlp if cfg.use_mlp else 1.0
                stall_lat = (r.l2_mpki / 1000.0) * l_eff / mlp
                overfetch = PREFETCH_OVERFETCH * cov if cfg.prefetch_bandwidth_tax else 0.0
                bpi = (r.l2_mpki / 1000.0) * CACHE_LINE * m * (
                    1.0 + r.write_fraction + overfetch
                )
                sync = self.profile_sync(app)
                cpi = 1.0 / (r.ipc_core * smt_scales[i]) + sync + stall_lat
                t_eff = app.effective_threads()
                rate = freq / cpi
                miss_ratios.append(m)
                stalls_lat.append(stall_lat)
                bpis.append(bpi)
                cpis.append(cpi)
                syncs.append(sync)
                rates.append(rate)
                demands.append(bpi * rate * t_eff)

            bus = resolve_bus(
                demands,
                spec.memory,
                bw_efficiencies=[a.region.bw_efficiency for a in apps],
                regularities=[a.region.regularity for a in apps],
            )
            new_sols: list[_PhaseSolution] = []
            for i, app in enumerate(apps):
                r = app.region
                t_eff = app.effective_threads()
                stall = stalls_lat[i]
                core_cpi = 1.0 / (r.ipc_core * smt_scales[i])
                cpi = core_cpi + syncs[i] + stall
                rate = freq / cpi
                if bpis[i] > 0:
                    # Roofline: execution cannot outrun the bandwidth
                    # this pattern can extract — its own efficiency cap,
                    # and its fair share when the bus saturates.
                    cap = r.bw_efficiency * spec.memory.peak_bandwidth_bytes
                    if bus.saturated and bus.achieved[i] > 0:
                        cap = min(cap, bus.achieved[i])
                    rate_bw = cap / (bpis[i] * t_eff)
                    if rate_bw < rate:
                        rate = rate_bw
                        cpi = freq / rate
                        stall = cpi - core_cpi - syncs[i]
                new_sols.append(
                    _PhaseSolution(
                        cpi=cpi,
                        sync_cpi=syncs[i],
                        stall_cpi=stall,
                        rate_per_thread=rate,
                        bytes_per_s=bpis[i] * rate * t_eff,
                        llc_miss_ratio=miss_ratios[i],
                        llc_alloc_bytes=alloc[i],
                    )
                )

            # LLC reallocation from insertion pressures (or, with CAT
            # way masks present, the masked allocator: the global policy
            # is its all-ways degenerate case).
            if has_masks or cfg.llc_policy == "pressure":
                pressures = [
                    (
                        (a.region.l2_mpki / 1000.0)
                        * new_sols[i].llc_miss_ratio
                        * new_sols[i].rate_per_thread
                        * a.effective_threads()
                    )
                    ** LLC_PRESSURE_EXP
                    for i, a in enumerate(apps)
                ]
                footprints = [a.region.footprint_bytes for a in apps]
            if has_masks:
                target_alloc = allocate_llc_groups(
                    llc_cap,
                    spec.llc_ways,
                    groups,
                    pressures,
                    footprints,
                    cfg.llc_policy,
                )
            elif cfg.llc_policy == "pressure":
                target_alloc = allocate_llc(llc_cap, pressures, footprints)
            elif cfg.llc_policy == "even":
                target_alloc = [
                    min(a.region.footprint_bytes, llc_cap / n) for a in apps
                ]
            else:  # static
                target_alloc = [
                    min(a.region.footprint_bytes, llc_cap) for a in apps
                ]

            total_achieved = sum(
                min(d, a) for d, a in zip(bus.demands, bus.achieved)
            )
            rho_new = (
                min(total_achieved / bus.effective_peak, 1.0)
                if bus.effective_peak > 0
                else 0.0
            )

            delta = abs(rho_new - rho)
            for i in range(n):
                if alloc[i] > 0:
                    delta = max(delta, abs(target_alloc[i] - alloc[i]) / llc_cap)
            rho = (1 - _DAMP) * rho + _DAMP * rho_new
            alloc = [
                (1 - _DAMP) * a + _DAMP * t for a, t in zip(alloc, target_alloc)
            ]
            sols = new_sols
            if delta < _TOL:
                break
        return sols, alloc, rho

    @staticmethod
    def profile_sync(app: _LiveApp) -> float:
        """Synchronization CPI of one app at its thread count (serial
        phases do not synchronize)."""
        if app.region.serial:
            return 0.0
        return app.profile.scaling.sync_cpi(app.threads)

    # -- time stepping -----------------------------------------------------

    def _advance(
        self,
        apps: list[_LiveApp],
        sols: list[_PhaseSolution],
        now: float,
        timeline: list[BandwidthSample],
        max_dt: float,
    ) -> float:
        # Step ends at the earliest phase boundary (or max_dt).
        dt = max_dt
        for app, sol in zip(apps, sols):
            if app.finished:
                continue
            t_eff = app.effective_threads()
            remaining = app.region_instr() - app.instr_done_in_region
            speed = sol.rate_per_thread * t_eff
            if speed <= 0:
                raise EngineError(f"{app.profile.name}: zero execution rate")
            dt = min(dt, max(remaining / speed, 1e-9))

        for app, sol in zip(apps, sols):
            if app.finished:
                continue
            t_eff = app.effective_threads()
            instr = sol.rate_per_thread * t_eff * dt
            r = app.region
            rm = app.metrics.region(r.region.name)
            rm.instructions += instr
            rm.cycles += instr * (sol.cpi - sol.sync_cpi)
            rm.pending_cycles += instr * sol.stall_cpi
            rm.l2_misses += instr * r.l2_mpki / 1000.0
            rm.llc_misses += instr * r.l2_mpki / 1000.0 * sol.llc_miss_ratio
            rm.bus_bytes += sol.bytes_per_s * dt
            # Synchronization cycles attributed to the sync region.
            if sol.sync_cpi > 0:
                sync_name = app.profile.sync_region_name or r.region.name
                app.metrics.region(sync_name).cycles += instr * sol.sync_cpi
                if app.profile.sync_region_name:
                    app.metrics.region(sync_name).instructions += 0.0
            app.total_instructions += instr
            app.instr_done_in_region += instr
            if app.instr_done_in_region >= app.region_instr() - 1e-6:
                app.instr_done_in_region = 0.0
                app.region_i += 1
                if app.region_i >= len(app.profile.regions):
                    app.region_i = 0
                    if not app.looping:
                        app.finished = True

        timeline.append(
            BandwidthSample(
                time_s=now + dt,
                # Every sample lists every app, finished or not: timelines
                # are rectangular, which the store's packed entries rely on.
                bytes_per_s={
                    app.metrics.name: sol.bytes_per_s for app, sol in zip(apps, sols)
                },
            )
        )
        return dt

    def _simulate(
        self,
        apps: list[_LiveApp],
        *,
        stop_when: int,
        max_dt: float,
    ) -> list[BandwidthSample]:
        """Run until app[stop_when] finishes; returns the timeline."""
        timeline: list[BandwidthSample] = []
        now = 0.0
        alloc: list[float] | None = None
        rho = 0.2
        for _ in range(_MAX_STEPS):
            if apps[stop_when].finished:
                break
            sols, alloc, rho = self._solve(apps, alloc, rho)
            now += self._advance(apps, sols, now, timeline, max_dt)
        else:
            raise EngineError("step budget exhausted; check profile scales")
        for app in apps:
            app.metrics.runtime_s = now
        return timeline

    # -- public API ----------------------------------------------------------

    def solo_run(
        self,
        profile: WorkloadProfile,
        *,
        threads: int = 4,
        max_dt: float = 5.0,
    ) -> SoloRunResult:
        """Run one application alone on the machine."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("engine.solo_run", app=profile.name, threads=threads):
                return self._solo_run(profile, threads=threads, max_dt=max_dt)
        return self._solo_run(profile, threads=threads, max_dt=max_dt)

    def _solo_run(
        self,
        profile: WorkloadProfile,
        *,
        threads: int = 4,
        max_dt: float = 5.0,
    ) -> SoloRunResult:
        if threads < 1 or threads > self.spec.n_slots:
            raise EngineError(f"threads must be in [1, {self.spec.n_slots}]")
        app = _LiveApp(
            profile=profile,
            threads=threads,
            looping=False,
            metrics=AppMetrics(name=profile.name, threads=threads),
        )
        timeline = self._simulate([app], stop_when=0, max_dt=max_dt)
        return SoloRunResult(metrics=app.metrics, timeline=timeline)

    def _check_way_masks(
        self,
        profiles: "tuple[WorkloadProfile, ...]",
        llc_ways: "tuple[int | None, ...] | None",
    ) -> "list[int | None]":
        """Validate per-app CAT bitmaps against the spec's way count."""
        if llc_ways is None:
            return [None] * len(profiles)
        if len(llc_ways) != len(profiles):
            raise EngineError(
                f"{len(profiles)} profiles but {len(llc_ways)} way masks"
            )
        limit = 1 << self.spec.llc_ways
        for prof, mask in zip(profiles, llc_ways):
            if mask is None:
                continue
            if not isinstance(mask, int) or mask <= 0:
                raise EngineError(
                    f"{prof.name}: way mask must be a positive bitmap, got {mask!r}"
                )
            if mask >= limit:
                raise EngineError(
                    f"{prof.name}: way mask {mask:#x} exceeds the LLC's "
                    f"{self.spec.llc_ways} ways (max {limit - 1:#x})"
                )
        return list(llc_ways)

    def _check_pinnings(
        self,
        profiles: "tuple[WorkloadProfile, ...]",
        threads: "tuple[int, ...]",
        pinnings: "tuple[tuple[int, ...] | None, ...] | None",
    ) -> "list[tuple[int, ...] | None]":
        """Validate per-app core pinnings: known cores, no duplicates,
        and enough hardware-thread slots on the pinned cores — both per
        app and per core once every placement's load lands."""
        if pinnings is None:
            return [None] * len(profiles)
        if len(pinnings) != len(profiles):
            raise EngineError(
                f"{len(profiles)} profiles but {len(pinnings)} pinnings"
            )
        spec = self.spec
        out: list[tuple[int, ...] | None] = []
        occ = [0.0] * spec.n_cores
        for prof, t, pin in zip(profiles, threads, pinnings):
            if pin is None:
                out.append(None)
                continue
            cores = tuple(pin)
            if not cores:
                raise EngineError(f"{prof.name}: empty pinning")
            if len(set(cores)) != len(cores):
                raise EngineError(f"{prof.name}: duplicate cores in pinning {cores}")
            for c in cores:
                if not isinstance(c, int) or not 0 <= c < spec.n_cores:
                    raise EngineError(
                        f"{prof.name}: core {c!r} outside [0, {spec.n_cores})"
                    )
            if t > len(cores) * spec.slots_per_core:
                raise EngineError(
                    f"{prof.name}: {t} threads exceed the "
                    f"{len(cores) * spec.slots_per_core} slot(s) of cores {cores}"
                )
            for c in cores:
                occ[c] += t / len(cores)
            out.append(cores)
        overloaded = [c for c, load in enumerate(occ) if load > spec.slots_per_core + 1e-9]
        if overloaded:
            raise EngineError(
                f"pinnings oversubscribe core(s) {overloaded}: more pinned "
                f"threads than {spec.slots_per_core} slot(s) per core"
            )
        return out

    def prepare_cell(self, cell: BatchCell) -> BatchCell:
        """Check a scenario against this engine's spec and fill in its
        missing solo references: the one copy of the scenario checks,
        behind both :meth:`scenario_run` and
        :func:`~repro.engine.batch.solve_batch`.

        The returned cell has every field set: solo references (from
        the scalar :meth:`solo_run` when absent) and one way mask and
        one pinning per app (``None`` = unrestricted).
        """
        profiles, threads = cell.profiles, cell.threads
        if not profiles:
            raise EngineError("a scenario needs at least one application")
        if len(threads) != len(profiles):
            raise EngineError(
                f"{len(profiles)} profiles but {len(threads)} thread counts"
            )
        if any(t < 1 for t in threads):
            raise EngineError("every app needs at least one thread")
        if sum(threads) > self.spec.n_slots:
            raise EngineError(
                f"{'+'.join(str(t) for t in threads)} threads exceed "
                f"{self.spec.n_slots} hardware threads"
            )
        llc_ways = self._check_way_masks(profiles, cell.llc_ways)
        pinnings = self._check_pinnings(profiles, threads, cell.pinnings)
        fg_solo = cell.fg_solo_runtime_s
        if fg_solo is None:
            fg_solo = self.solo_run(profiles[0], threads=threads[0]).runtime_s
        bg_rates = cell.bg_solo_rates
        if bg_rates is None:
            rates = []
            for prof, t in zip(profiles[1:], threads[1:]):
                solo = self.solo_run(prof, threads=t)
                rates.append(solo.metrics.total.instructions / solo.runtime_s)
            bg_rates = rates
        if len(bg_rates) != len(profiles) - 1:
            raise EngineError(
                f"{len(profiles) - 1} backgrounds but "
                f"{len(bg_rates)} solo rates"
            )
        return replace(
            cell,
            fg_solo_runtime_s=fg_solo,
            bg_solo_rates=tuple(bg_rates),
            llc_ways=tuple(llc_ways),
            pinnings=tuple(pinnings),
        )

    def scenario_run(
        self,
        profiles: "list[WorkloadProfile] | tuple[WorkloadProfile, ...]",
        threads: "list[int] | tuple[int, ...]",
        *,
        fg_solo_runtime_s: float | None = None,
        bg_solo_rates: "list[float] | tuple[float, ...] | None" = None,
        llc_ways: "list[int | None] | tuple[int | None, ...] | None" = None,
        pinnings: "list[tuple[int, ...] | None] | None" = None,
        max_dt: float = 5.0,
    ) -> ScenarioRunResult:
        """The N-way measurement primitive: consolidate ``profiles[0]``
        (the measured foreground) with any number of backgrounds.

        Every background loops for as long as the foreground runs (the
        paper's pair protocol generalized to N live applications).
        Solo references are computed on demand; pass them in when
        sweeping many scenarios to avoid recomputation.  ``co_run`` is
        a thin 2-app wrapper over this, so pair scenarios are
        bit-identical to the historical pair API.

        ``llc_ways`` gives each app a CAT way-mask bitmap (``None`` =
        all ways); ``pinnings`` pins each app's threads to explicit
        physical cores; pinned cores are *reserved*, and ``None``
        placements schedule onto the remaining ones.  Both lists
        align with ``profiles`` and are validated against the machine
        spec; omitting them keeps the unpartitioned model bit-identical.
        """
        cell = BatchCell(
            profiles=tuple(profiles),
            threads=tuple(threads),
            fg_solo_runtime_s=fg_solo_runtime_s,
            bg_solo_rates=None if bg_solo_rates is None else tuple(bg_solo_rates),
            llc_ways=None if llc_ways is None else tuple(llc_ways),
            pinnings=None if pinnings is None else tuple(pinnings),
            max_dt=max_dt,
        )
        tracer = get_tracer()
        if not tracer.enabled:
            return self._run_cell(self.prepare_cell(cell))
        with tracer.span(
            "engine.scenario_run",
            apps="+".join(f"{p.name}:{t}" for p, t in zip(cell.profiles, cell.threads)),
            n=len(cell.profiles),
        ):
            return self._run_cell(self.prepare_cell(cell))

    def _run_cell(self, cell: BatchCell) -> ScenarioRunResult:
        """The scalar solver on a cell :meth:`prepare_cell` returned."""
        apps = [
            _LiveApp(
                profile=prof,
                threads=t,
                looping=i > 0,
                metrics=AppMetrics(name=prof.name, threads=t),
                llc_ways=cell.llc_ways[i],
                pinning=cell.pinnings[i],
            )
            for i, (prof, t) in enumerate(zip(cell.profiles, cell.threads))
        ]
        timeline = self._simulate(apps, stop_when=0, max_dt=cell.max_dt)
        fg_runtime = apps[0].metrics.runtime_s
        relative_rates = []
        for app, solo_rate in zip(apps[1:], cell.bg_solo_rates):
            rate = app.total_instructions / fg_runtime if fg_runtime > 0 else 0.0
            relative_rates.append(rate / solo_rate if solo_rate > 0 else 0.0)
        return ScenarioRunResult(
            apps=[a.metrics for a in apps],
            fg_solo_runtime_s=cell.fg_solo_runtime_s,
            bg_relative_rates=relative_rates,
            timeline=timeline,
        )

    def co_run(
        self,
        fg: WorkloadProfile,
        bg: WorkloadProfile,
        *,
        threads: int = 4,
        bg_threads: int | None = None,
        fg_solo_runtime_s: float | None = None,
        bg_solo_rate: float | None = None,
        max_dt: float = 5.0,
    ) -> CoRunResult:
        """Consolidate fg and bg (the paper's protocol): bg loops for as
        long as fg runs; fg's time is measured.

        ``bg_threads`` defaults to ``threads`` (the paper's symmetric
        4+4 split); asymmetric splits model core-allocation policies.
        A thin 2-app wrapper over :meth:`scenario_run` — the one code
        path guarantees pair results equal 2-app scenario results.
        """
        bg_threads = bg_threads if bg_threads is not None else threads
        if threads < 1 or bg_threads < 1:
            raise EngineError("both apps need at least one thread")
        return self.scenario_run(
            [fg, bg],
            [threads, bg_threads],
            fg_solo_runtime_s=fg_solo_runtime_s,
            bg_solo_rates=None if bg_solo_rate is None else [bg_solo_rate],
            max_dt=max_dt,
        ).to_corun()

    def speedup_curve(
        self, profile: WorkloadProfile, *, max_threads: int = 8
    ) -> dict[int, float]:
        """Fig 2: speedup vs thread count, normalized to one thread."""
        t1 = self.solo_run(profile, threads=1).runtime_s
        return {
            t: t1 / self.solo_run(profile, threads=t).runtime_s
            for t in range(1, max_threads + 1)
        }
