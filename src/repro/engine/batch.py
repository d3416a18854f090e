"""Batched interval engine: one fixed point over many scenarios.

:func:`solve_batch` runs a whole set of consolidation scenarios
("cells") through the interval model at once.  Per-app region state —
CPI stacks, MLP, miss-ratio-curve lookups, LLC pressure allocation and
bus contention — is stacked into ``(slots, cells)`` numpy arrays and a
single fixed-point iteration advances *every* scenario simultaneously,
masking cells whose fixed point already converged and cells whose
foreground already finished.

The contract is **bit-identity** with the scalar engine: every floating
point operation of :meth:`IntervalEngine._solve` / ``_advance`` is
replicated in the same order on the same values, so a batched
:class:`~repro.engine.results.ScenarioRunResult` encodes to exactly the
same bytes as the scalar one and warm stores stay fingerprint-stable.
Two properties of the scalar path shape the implementation:

* python ``sum()`` and numpy's small-array sum reduce strictly
  left-to-right for fewer than eight elements, so every per-slot
  reduction is one ``np.add.accumulate`` along the slot axis (an
  accumulate is strictly sequential) and cells with eight or more
  applications fall back to the scalar engine;
* the fixed point *applies* the damped update and then tests
  convergence, so converged cells keep their final update and are
  simply dropped from the active mask.

Every cell is checked once, by :meth:`IntervalEngine.prepare_cell`
(the same checks :meth:`IntervalEngine.scenario_run` runs); cells the
batch layout cannot represent exactly then go through the scalar
solver one by one — the scalar path stays the correctness oracle,
never an approximation.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.engine.bandwidth import MIX_SENSITIVITY, ROW_HIT_BONUS
from repro.engine.config import BatchCell
from repro.engine.interval import (
    LLC_PRESSURE_EXP,
    PREFETCH_COVERAGE,
    PREFETCH_HIDE,
    PREFETCH_OVERFETCH,
    SMT_MARGINAL_THROUGHPUT,
    _DAMP,
    _MAX_ITER,
    _MAX_STEPS,
    _TOL,
)
from repro.engine.llc_sharing import MIN_SHARE_FRACTION, allocate_llc_groups, way_groups
from repro.engine.results import (
    AppMetrics,
    LazyTimeline,
    RegionMetrics,
    ScenarioRunResult,
)
from repro.errors import EngineError
from repro.telemetry.tracer import get_tracer
from repro.units import CACHE_LINE

#: Cells with more applications than this use the scalar fallback: numpy
#: switches from sequential to pairwise (8-accumulator) summation at
#: eight elements, which would change float ordering vs ``sum()``.
MAX_BATCH_SLOTS = 7


def _seq_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-cell sum over the masked slots in slot order, for
    ``(slots, cells)`` arrays: one vector add per slot, strictly left to
    right, which is how ``sum()`` (and numpy below 8 elements) reduces.
    ``sum()`` starts from 0.0; starting from the first term instead is
    bit-identical because every engine quantity summed this way is
    non-negative (only a -0.0 first term could differ from
    ``0.0 + term``), and a masked-out slot adds 0.0, which leaves a
    non-negative running total as it is."""
    terms = np.where(mask, values, 0.0)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _waterfill_batch(
    demands: np.ndarray,
    weights: np.ndarray,
    capacity: np.ndarray,
    alive: np.ndarray,
    run0: np.ndarray,
) -> np.ndarray:
    """Vectorized ``bandwidth._waterfill`` across cells (``run0`` marks
    the cells whose bus actually saturated)."""
    n_slots = demands.shape[0]
    out = np.zeros_like(demands)
    todo = alive & (demands > 0.0)
    remaining = capacity.astype(np.float64).copy()
    running = run0.copy()
    for _ in range(n_slots + 1):
        running = running & todo.any(axis=0) & (remaining > 0.0)
        if not running.any():
            break
        wsum = _seq_sum(weights, todo)
        wsafe = np.where(wsum > 0.0, wsum, 1.0)
        trial = (remaining * weights) / wsafe
        capped = todo & (trial >= demands - out)
        any_capped = capped.any(axis=0)
        finish = running & ~any_capped
        out = np.where(finish & todo, out + trial, out)
        cont = running & any_capped
        for j in range(n_slots):
            cm = cont & capped[j]
            if not cm.any():
                continue
            grant = demands[j] - out[j]
            out[j] = np.where(cm, demands[j], out[j])
            remaining = np.where(cm, remaining - grant, remaining)
        todo = todo & ~(capped & cont)
        running = cont
    return out


def _allocate_llc_batch(
    cap_bytes: float,
    p: np.ndarray,
    f: np.ndarray,
    alive: np.ndarray,
    n_apps: np.ndarray,
    cells: np.ndarray,
) -> np.ndarray:
    """Vectorized ``llc_sharing.allocate_llc`` across the ``cells``
    mask, for ``(slots, cells)`` arrays: proportional waterfill capped
    by footprints plus the LRU floor, with the zero-pressure even split.
    Cells never mix, so a cell's arithmetic is the same whichever cells
    share a round."""
    n_slots = p.shape[0]
    psum = _seq_sum(p, alive)
    has_p = psum > 0.0
    floor = MIN_SHARE_FRACTION * cap_bytes
    active = alive & (p > 0.0)
    run = cells & has_p
    every = bool(run.all())
    # Round one on the whole stack (every cell unmasked and with
    # pressure, the common case, needs no gathers): each running cell
    # splits the whole capacity over exactly its positive-pressure
    # slots, whose masked sum is ``psum`` term for term.
    if every:
        todo = active
        trial = (p / psum) * cap_bytes
    else:
        todo = active & run
        trial = (p / np.where(run, psum, 1.0)) * cap_bytes
    over = todo & (trial >= f)
    alloc = np.where(todo, trial, 0.0)
    again = over.any(axis=0)
    if again.any():
        # Cells where a slot hit its footprint: those slots keep the
        # footprint and the rest of the capacity is split again among
        # the others, on those cells only.
        alloc = np.where(again, np.where(over, f, 0.0), alloc)
        cols = np.flatnonzero(again)
        pr, fr, over = p[:, cols], f[:, cols], over[:, cols]
        remaining = cap_bytes - _seq_sum(fr, over)
        todo = todo[:, cols] & ~over
        pt = _seq_sum(pr, todo)
        for _ in range(n_slots):
            keep = todo.any(axis=0) & (remaining > 0.0)
            if not keep.all():
                cols, todo, remaining = cols[keep], todo[:, keep], remaining[keep]
                pt, pr, fr = pt[keep], pr[:, keep], fr[:, keep]
            if not cols.size:
                break
            # A running cell still has a positive-pressure slot to
            # split over, so ``pt`` is positive.
            trial = (pr / pt) * remaining
            over = todo & (trial >= fr)
            any_over = over.any(axis=0)
            if not any_over.any():
                alloc[:, cols] = np.where(todo, trial, alloc[:, cols])
                break
            done = ~any_over
            alloc[:, cols[done]] = np.where(
                todo[:, done], trial[:, done], alloc[:, cols[done]]
            )
            cols, todo, remaining = cols[any_over], todo[:, any_over], remaining[any_over]
            pr, fr, over = pr[:, any_over], fr[:, any_over], over[:, any_over]
            alloc[:, cols] = np.where(over, fr, alloc[:, cols])
            remaining = remaining - _seq_sum(fr, over)
            todo = todo & ~over
            pt = _seq_sum(pr, todo)
    # LRU floor: steal proportionally from shares above the floor, one
    # beneficiary slot at a time (the scalar loop order).  Nothing moves
    # in a cell until one of its slots is under the floor, so only cells
    # with an under-floor slot now ever change.
    minf = np.minimum(floor, f)
    cols = np.flatnonzero(run & (active & (alloc < minf)).any(axis=0))
    if cols.size:
        a, act, minf = alloc[:, cols], active[:, cols], minf[:, cols]
        for i in range(n_slots):
            needm = act[i] & (a[i] < minf[i])
            if not needm.any():
                continue
            need = minf[i] - a[i]
            donors = act & (a > floor)
            donors[i] = False
            pool = _seq_sum(a - floor, donors)
            ok = needm & (pool > 0.0)
            if not ok.any():
                continue
            take = np.minimum(need, pool)
            poolsafe = np.where(pool > 0.0, pool, 1.0)
            give = (take * (a - floor)) / poolsafe
            a = np.where(ok & donors, a - give, a)
            a[i] = np.where(ok, a[i] + take, a[i])
        alloc[:, cols] = a
    if every:
        return alloc
    even = np.where(alive, np.minimum(f, cap_bytes / n_apps), 0.0)
    return np.where(~has_p, even, alloc)


def batchable(cell: BatchCell) -> bool:
    """Whether a cell fits the batch layout exactly (else it takes the
    scalar fallback)."""
    return len(cell.profiles) <= MAX_BATCH_SLOTS


#: Planes of the region-constant table: one column per (block, region),
#: where a block is one distinct (profile, threads) of the batch.  The
#: planes a step's advance reads come first (``_N_STEP`` of them).
_PLANES = (
    "teff", "sync", "rinstr", "mpkiraw", "nreg",
    "ipc", "mpki", "bpia", "hide", "bfac", "mlp", "cap0", "foot", "reg",
    "ieff", "wbus", "mstatic", "tstatic", "teven", "gid", "synctgt",
)
(
    _TEFF, _SYNC, _RINSTR, _MPKIRAW, _NREG,
    _IPC, _MPKI, _BPIA, _HIDE, _BFAC, _MLP, _CAP0, _FOOT, _REG,
    _IEFF, _WBUS, _MSTATIC, _TSTATIC, _TEVEN, _GID, _SYNCTGT,
) = range(len(_PLANES))
_N_STEP = 5
#: The six :class:`RegionMetrics` sums, in field order.
_N_SUMS = 6
#: Planes of the per-cell integer state: current region, the flat
#: metric-sum index of that region and of its sync region, steps taken.
_REGION, _AIDX, _SIDX, _STEPS = range(4)


class _BatchRunner:
    """Stacked state + the masked step loop for one homogeneous batch
    (one engine: same spec and config for every cell).

    Every per-slot array is laid out ``(slots, cells)``: reductions over
    a cell's slots then run as a few whole-row operations, where numpy
    reduces a short last axis one cell at a time.
    """

    def __init__(self, engine, cells: "list[BatchCell]") -> None:
        self.engine = engine
        self.cells = cells
        self.spec = engine.spec
        self.cfg = engine.config
        self._setup()

    # -- constant tables ------------------------------------------------

    def _block(
        self, prof, thr: int, cap: float, mrc_gids: "dict[int, int]"
    ) -> "list[list[float]]":
        """One table block: the plane values of each of ``prof``'s
        regions at ``thr`` threads (``cap`` is the LLC reach the static
        policy's miss ratio is read at)."""
        spec, cfg = self.spec, self.cfg
        static = cfg.llc_policy == "static"
        work = prof.total_kinstr * 1000.0
        names = [r.region.name for r in prof.regions]
        sync_nm = prof.sync_region_name or None
        if sync_nm and sync_nm not in names:
            names.append(sync_nm)
        self.RN = max(self.RN, len(names))
        cols = []
        for r in prof.regions:
            mpki = r.l2_mpki / 1000.0
            cov = r.regularity * PREFETCH_COVERAGE if cfg.prefetchers_on else 0.0
            overfetch = PREFETCH_OVERFETCH * cov if cfg.prefetch_bandwidth_tax else 0.0
            gid = mrc_gids.get(id(r.mrc))
            if gid is None:
                gid = mrc_gids[id(r.mrc)] = len(self.mrcs)
                self.mrcs.append(r.mrc)
            values = {
                "teff": 1 if r.serial else thr,
                "sync": 0.0 if r.serial else prof.scaling.sync_cpi(thr),
                "rinstr": (work * prof.scaling.work_factor(thr)) * r.weight,
                "mpkiraw": r.l2_mpki,
                "nreg": len(prof.regions),
                "ipc": r.ipc_core,
                "mpki": mpki,
                "bpia": mpki * CACHE_LINE,
                "hide": 1.0 - PREFETCH_HIDE * cov,
                "bfac": 1.0 + r.write_fraction + overfetch,
                "mlp": r.mlp if cfg.use_mlp else 1.0,
                "cap0": r.bw_efficiency * spec.memory.peak_bandwidth_bytes,
                "foot": r.footprint_bytes,
                "reg": r.regularity,
                "ieff": 1.0 - r.bw_efficiency,
                "wbus": 1.0 + ROW_HIT_BONUS * r.regularity,
                "mstatic": (
                    r.mrc.miss_ratio(min(r.footprint_bytes, cap)) if static else 0.0
                ),
                "tstatic": min(r.footprint_bytes, self.llc_cap) if static else 0.0,
                # Depends on the cell's app count: filled in on refresh.
                "teven": 0.0,
                "gid": gid,
                "synctgt": names.index(sync_nm or r.region.name),
            }
            cols.append([values[name] for name in _PLANES])
        return cols

    def _setup(self) -> None:
        spec = self.spec
        cells = self.cells
        C = self.C = len(cells)
        self.llc_cap = float(spec.llc.size_bytes)
        self.n_apps = np.array([len(c.profiles) for c in cells], dtype=np.int64)
        S = self.S = int(self.n_apps.max())
        static = self.cfg.llc_policy == "static"
        full = (1 << spec.llc_ways) - 1
        # A sweep repeats a few dozen (profile, threads) slots over
        # thousands of cells: each distinct one is tabulated once, as a
        # block of the region-constant table, and a slot is its block's
        # number.  Block 0 pads dead slots and short profiles.
        block_of: dict[tuple, int] = {}
        cols: list[list[list[float]]] = [[]]
        #: block -> (profile, threads)
        self.block_slots: list = [(None, 0)]
        #: metric sums per (cell, slot): one per region name, plus the
        #: sync region when it is not one of them
        self.RN = 1
        mrc_gids: dict[int, int] = {}
        self.mrcs: list = []
        bid = np.zeros((S, C), dtype=np.int64)
        self.pinned = np.zeros(C, dtype=bool)
        self.has_masks = np.zeros(C, dtype=bool)
        #: cell -> its ways grouped by sharer signature (masked cells)
        self.way_groups: dict[int, list] = {}
        for c, cell in enumerate(cells):
            if cell.pinnings is not None and any(
                pin is not None for pin in cell.pinnings
            ):
                self.pinned[c] = True
            masks = cell.llc_ways
            masked = masks is not None and any(m is not None for m in masks)
            if masked:
                self.has_masks[c] = True
                self.way_groups[c] = way_groups(spec.llc_ways, list(masks))
            for s, (prof, thr) in enumerate(zip(cell.profiles, cell.threads)):
                cap = self.llc_cap
                if static and masked:
                    m = masks[s]
                    cap = float(
                        bin(m if m is not None else full).count("1")
                        * spec.llc_way_bytes
                    )
                key = (id(prof), thr, cap)
                u = block_of.get(key)
                if u is None:
                    u = block_of[key] = len(cols)
                    cols.append(self._block(prof, thr, cap, mrc_gids))
                    self.block_slots.append((prof, thr))
                bid[s, c] = u
        RT = self.RT = max(len(b) for b in cols)
        pad = {
            "teff": 1, "sync": 0.0, "rinstr": 1.0, "mpkiraw": 0.0, "nreg": 0,
            "ipc": 1.0, "mpki": 0.0, "bpia": 0.0, "hide": 1.0, "bfac": 1.0,
            "mlp": 1.0, "cap0": float(spec.memory.peak_bandwidth_bytes),
            "foot": 1.0, "reg": 0.0, "ieff": 0.0, "wbus": 1.0, "mstatic": 0.0,
            "tstatic": 0.0, "teven": 0.0, "gid": -1, "synctgt": 0,
        }
        pad_col = [pad[name] for name in _PLANES]
        table = np.array([b + [pad_col] * (RT - len(b)) for b in cols], dtype=np.float64)
        #: (plane, block * RT + region)
        self.table = np.ascontiguousarray(table.reshape(-1, len(_PLANES)).T)
        self.bid = bid
        self.alive = np.arange(S)[:, None] < self.n_apps

    # -- the masked step loop -------------------------------------------

    def run(self) -> "tuple[list[ScenarioRunResult], int, int]":
        spec = self.spec
        cfg = self.cfg
        C, RN = self.C, self.RN
        table = self.table
        llc_cap = self.llc_cap
        llc_lat = float(spec.llc.latency_cycles)
        idle_lat = float(spec.memory.idle_latency_cycles)
        freq = spec.freq_hz
        peak = spec.memory.peak_bandwidth_bytes
        qgain = spec.memory.queue_gain
        qmax = spec.memory.max_utilization
        policy = cfg.llc_policy
        peak_pos = peak > 0.0
        any_pinned = bool(self.pinned.any())
        miss_ratios = [mrc.miss_ratios_log2 for mrc in self.mrcs]

        # Results per (cell, slot, region name), flattened: the six
        # RegionMetrics sums and whether the region ran.
        acc = np.zeros((C * self.S * RN, _N_SUMS))
        visited = np.zeros(C * self.S * RN, dtype=bool)
        total_instr = np.zeros((self.S, C))
        now = np.zeros(C)
        max_dt = np.array([c.max_dt for c in self.cells])
        # Timeline rows, one entry per pass that advanced cells: the
        # cells, their step end times and their per-slot rates.
        tl_cells: list[np.ndarray] = []
        tl_times: list[np.ndarray] = []
        tl_rates: list[np.ndarray] = []
        total_iters = 0
        total_steps = 0
        passes = 0

        # Per-ACTIVE-cell working state, kept compacted: column i of
        # every array below belongs to global cell ``act[i]``.  Columns
        # are dropped when their cell finishes (and trailing slots no
        # remaining cell uses with them), and region constants
        # (``planes``, one (slots, cells) array per table plane) are
        # rewritten in place when a cell changes region — so the hot
        # loop never gathers or scatters against the full cell set.
        act = np.arange(C)
        S = self.S
        alive_s = self.alive
        napps_s = self.n_apps
        hm_s = self.has_masks
        tbase_s = self.bid * self.RT
        abase_s = (act * self.S + np.arange(S)[:, None]) * RN
        planes = np.empty((len(_PLANES), S, C))
        ints = np.zeros((4, S, C), dtype=np.int64)
        done_s = np.zeros((S, C))  # instructions done in the region
        core_s = np.empty((S, C))  # 1 / (ipc * smt scale)
        cs_s = np.empty((S, C))  # core_s + sync
        alloc_s = np.where(alive_s, llc_cap / napps_s, 0.0)
        rho_s = np.full(C, 0.2)
        its_s = np.zeros(C, dtype=np.int64)

        def refresh(local: np.ndarray) -> None:
            # Re-gather region constants and recompute the SMT scales
            # (and so the core CPI) for cells entering a new region
            # (bit-identical scalar replication: vectorized for the
            # unpinned case, per cell when pinned).  Every region a cell
            # enters runs at least one step, so it is marked run here.
            region = ints[_REGION][:, local]
            g = table[:, tbase_s[:, local] + region]
            planes[:, :, local] = g
            abase = abase_s[:, local]
            aidx = abase + region
            ints[_AIDX][:, local] = aidx
            ints[_SIDX][:, local] = abase + g[_SYNCTGT].astype(np.int64)
            alive_r = alive_s[:, local]
            visited[aidx[alive_r]] = True
            teff_r = g[_TEFF]
            smt_r = np.ones(teff_r.shape)
            if spec.hyperthreading:
                live_t = _seq_sum(teff_r, alive_r).astype(np.int64)
                over = live_t > spec.n_cores
                per_core = live_t / spec.n_cores
                scale = (
                    1.0 + (per_core - 1.0) * SMT_MARGINAL_THROUGHPUT
                ) / np.where(per_core > 0, per_core, 1.0)
                smt_r = np.where(over & alive_r, scale, smt_r)
            if any_pinned:
                for lr in np.flatnonzero(self.pinned[act[local]]).tolist():
                    self._pinned_smt(
                        self.cells[int(act[local[lr]])], teff_r[:, lr], smt_r[:, lr]
                    )
            core = 1.0 / (g[_IPC] * smt_r)
            core_s[:, local] = core
            cs_s[:, local] = core + g[_SYNC]
            if policy == "even":
                planes[_TEVEN][:, local] = np.where(
                    alive_r, np.minimum(g[_FOOT], llc_cap / napps_s[local]), 0.0
                )

        # Cells step asynchronously: every pass runs ONE fixed-point
        # iteration for every active cell; cells whose iteration just
        # converged (or hit the iteration cap) advance to their next
        # step boundary immediately and rejoin the next pass at
        # iteration zero of their next step, while the rest keep
        # iterating.  Per cell this replays exactly the scalar
        # step/iteration sequence — the passes only interleave
        # independent cells, they never mix their arithmetic.
        refresh(act)
        gid_groups: "list[tuple[int, np.ndarray]] | None" = None
        alive_flat = np.flatnonzero(alive_s)
        while act.size:
            B = int(act.size)
            total_iters += B
            passes += 1
            teff, sync = planes[_TEFF], planes[_SYNC]
            mpki, foot = planes[_MPKI], planes[_FOOT]

            if cfg.use_queueing:
                rho_c = np.minimum(rho_s, qmax)
                mem_lat = idle_lat * (1.0 + qgain * rho_c / (1.0 - rho_c))
            else:
                mem_lat = np.full(B, idle_lat)
            if policy == "static":
                m = planes[_MSTATIC]
            else:
                if gid_groups is None:
                    # Group slots by miss-ratio curve with one stable
                    # sort.  The grouping only changes on region
                    # refresh or compaction, so it is cached between
                    # passes.
                    gid_flat = planes[_GID].reshape(-1).astype(np.int64)
                    order = np.argsort(gid_flat, kind="stable")
                    sg = gid_flat[order]
                    splits = (
                        np.flatnonzero(sg[1:] != sg[:-1]) + 1
                    ).tolist()
                    gid_groups = [
                        (int(sg[a]), order[a:b])
                        for a, b in zip([0] + splits, splits + [sg.size])
                        if int(sg[a]) >= 0
                    ]
                # The curves' shared first steps (clamp, log2) run once
                # over every slot.
                lg = np.log2(np.maximum(alloc_s, 1.0)).reshape(-1)
                m_flat = np.zeros(lg.size)
                for g_i, sel in gid_groups:
                    m_flat[sel] = miss_ratios[g_i](lg[sel])
                m = m_flat.reshape(S, B)
            l_eff = llc_lat + (m * planes[_HIDE]) * mem_lat
            stall_lat = (mpki * l_eff) / planes[_MLP]
            bpi = (planes[_BPIA] * m) * planes[_BFAC]
            # core CPI + sync is a region constant (see refresh).
            cpi = cs_s + stall_lat
            rate = freq / cpi
            demands = (bpi * rate) * teff

            # resolve_bus, vectorized.
            dreg = demands * planes[_REG]
            total = _seq_sum(demands, alive_s)
            regular_total = _seq_sum(dreg, alive_s)
            tsafe = np.where(total > 0.0, total, 1.0)
            competing = np.maximum(0.0, regular_total - dreg) / tsafe
            term = ((demands * planes[_IEFF]) / tsafe) * np.minimum(
                1.0, MIX_SENSITIVITY * competing
            )
            penalty = _seq_sum(term, alive_s)
            eff_bus = np.where(
                total > 0.0, np.maximum(0.1, 1.0 - penalty), 1.0
            )
            eff_peak = peak * eff_bus
            unsat = total <= eff_peak
            unsat_all = bool(unsat.all())
            if unsat_all:
                # Common case: no cell saturates its bus this
                # iteration.  ``achieved`` would be ``demands``
                # everywhere and ``saturated`` all false — skip the
                # waterfill entirely (bit-identical: the skipped
                # reductions reuse the very sums already computed).
                achieved = demands
                saturated = None
                sat_any = False
            else:
                wf = _waterfill_batch(
                    demands, planes[_WBUS], eff_peak, alive_s, ~unsat
                )
                achieved = np.where(unsat, demands, wf)
                ach_total = _seq_sum(achieved, alive_s)
                saturated = total > ach_total * (1 + 1e-9)
                sat_any = bool(saturated.any())

            # Roofline correction of the rate (the scalar recomputes the
            # CPI and rate it just computed first: the same values).
            # Its CPI, stall and bus rate are only needed by the cells
            # that leave the fixed point, so they are computed there.
            cap = planes[_CAP0]
            if sat_any:
                cap = np.where(
                    saturated & (achieved > 0.0), np.minimum(cap, achieved), cap
                )
            has_bpi = bpi > 0.0
            rate_bw = cap / np.where(has_bpi, bpi * teff, 1.0)
            hit_bw = has_bpi & (rate_bw < rate)
            new_rate = np.where(hit_bw, rate_bw, rate)

            # LLC reallocation targets.  numpy's vectorized pow rounds
            # differently from libm in the last ulp, so the pressure
            # exponent is applied per element on python floats —
            # exactly the scalar engine's operation — and to live slots
            # only (dead slots have no pressure).
            any_masks = bool(hm_s.any())
            if any_masks or policy == "pressure":
                pbase = ((mpki * m) * new_rate) * teff
                pressures = np.zeros(S * B)
                pressures[alive_flat] = list(
                    map(
                        math.pow,
                        pbase.reshape(-1)[alive_flat].tolist(),
                        repeat(LLC_PRESSURE_EXP),
                    )
                )
                pressures = pressures.reshape(S, B)
            if policy == "pressure":
                target = _allocate_llc_batch(
                    llc_cap, pressures, foot, alive_s, napps_s, ~hm_s
                )
            elif policy == "even":
                # Copy before masked-cell writes: the plane is a view
                # into the persistent region-constant stack.
                target = planes[_TEVEN].copy() if any_masks else planes[_TEVEN]
            else:
                target = planes[_TSTATIC].copy() if any_masks else planes[_TSTATIC]
            if any_masks:
                for i in np.flatnonzero(hm_s).tolist():
                    n_c = int(napps_s[i])
                    target[:n_c, i] = allocate_llc_groups(
                        llc_cap,
                        spec.llc_ways,
                        self.way_groups[int(act[i])],
                        pressures[:n_c, i].tolist(),
                        foot[:n_c, i].tolist(),
                        policy,
                    )

            if unsat_all:
                # min(demands, demands) reduces to the sum already in
                # hand.
                total_achieved = total
            else:
                total_achieved = _seq_sum(
                    np.minimum(demands, achieved), alive_s
                )
            if peak_pos:
                # eff_bus is clamped to at least 0.1, so eff_peak > 0
                # exactly when the spec's peak bandwidth is.
                rho_new = np.minimum(total_achieved / eff_peak, 1.0)
            else:
                rho_new = np.zeros(B)

            # max() is exact whatever the reduction order, so the
            # scalar's per-slot running maximum collapses to one masked
            # reduction; dividing by the capacity after it is exact too
            # (rounding is monotone).  Dead slots always hold a zero
            # allocation, so ``alloc > 0`` alone masks them out.
            moved = np.where(alloc_s > 0.0, np.abs(target - alloc_s), -np.inf)
            delta = np.maximum(np.abs(rho_new - rho_s), moved.max(axis=0) / llc_cap)
            rho_s = (1 - _DAMP) * rho_s + _DAMP * rho_new
            alloc_s = (1 - _DAMP) * alloc_s + _DAMP * target
            its_s += 1
            leave = (delta < _TOL) | (its_s >= _MAX_ITER)
            conv = np.flatnonzero(leave)
            if not conv.size:
                continue
            its_s[conv] = 0

            # ---- advance the converged cells to their next boundary ----
            K = int(conv.size)
            total_steps += K
            if K == B:
                rows, kp, ki, alive_k, done_k = act, planes, ints, alive_s, done_s
                cpi_k, stall_k, m_k, bpi_k = cpi, stall_lat, m, bpi
                hit_k, rbw_k, rate_k, core_k = hit_bw, rate_bw, new_rate, core_s
            else:
                rows = act[conv]
                kp, ki = planes[:_N_STEP, :, conv], ints[:, :, conv]
                alive_k, done_k = alive_s[:, conv], done_s[:, conv]
                cpi_k, stall_k = cpi[:, conv], stall_lat[:, conv]
                m_k, bpi_k = m[:, conv], bpi[:, conv]
                hit_k, rbw_k = hit_bw[:, conv], rate_bw[:, conv]
                rate_k, core_k = new_rate[:, conv], core_s[:, conv]
            teff_k, sync_k, rinstr_k = kp[_TEFF], kp[_SYNC], kp[_RINSTR]
            cpi_k = np.where(hit_k, freq / rbw_k, cpi_k)
            stall_k = np.where(hit_k, (cpi_k - core_k) - sync_k, stall_k)
            bps_k = (bpi_k * rate_k) * teff_k
            speed = rate_k * teff_k
            if bool((alive_k & (speed <= 0.0)).any()):
                s_bad, k_bad = np.argwhere(alive_k & (speed <= 0.0))[0]
                prof = self.cells[int(rows[k_bad])].profiles[int(s_bad)]
                raise EngineError(f"{prof.name}: zero execution rate")
            step_j = np.maximum(
                (rinstr_k - done_k) / np.where(alive_k, speed, 1.0), 1e-9
            )
            dt = np.minimum(
                max_dt[rows], np.where(alive_k, step_j, np.inf).min(axis=0)
            )
            instr = speed * dt

            # The step's metric sums, one scatter for all six (each
            # live (cell, slot) names one region, so no index repeats),
            # then the sync cycles into the sync region.  Dead slots
            # compute values that are never stored.
            sums = np.empty(instr.shape + (_N_SUMS,))
            sums[..., 0] = instr
            np.multiply(instr, cpi_k - sync_k, out=sums[..., 1])
            np.multiply(instr, stall_k, out=sums[..., 2])
            l2 = (instr * kp[_MPKIRAW]) / 1000.0
            sums[..., 3] = l2
            np.multiply(l2, m_k, out=sums[..., 4])
            np.multiply(bps_k, dt, out=sums[..., 5])
            acc[ki[_AIDX][alive_k]] += sums[alive_k]
            has_sync = alive_k & (sync_k > 0.0)
            if bool(has_sync.any()):
                acc[ki[_SIDX][has_sync], 1] += instr[has_sync] * sync_k[has_sync]
            # Dead slots' totals are never read.
            total_instr[:S, rows] += instr
            done_k = done_k + instr

            # Timeline samples, kept as rows until assembly.
            t_next = now[rows] + dt
            tl_cells.append(rows)
            tl_times.append(t_next)
            tl_rates.append(bps_k)
            now[rows] = t_next

            # Region/phase transitions, then re-arm the continuing
            # cells: a cell ends when its foreground runs out of
            # regions; backgrounds wrap around.
            ended = alive_k & (done_k >= rinstr_k - 1e-6)
            region_k = ki[_REGION]
            nxt = region_k + 1
            wrap = nxt >= kp[_NREG]
            fin = ended[0] & wrap[0]
            ki[_REGION] = np.where(ended, np.where(wrap, 0, nxt), region_k)
            ki[_STEPS] += 1
            if passes >= _MAX_STEPS and bool(
                ((ki[_STEPS][0] >= _MAX_STEPS) & ~fin).any()
            ):
                raise EngineError("step budget exhausted; check profile scales")
            done_k = np.where(ended, 0.0, done_k)
            if K == B:
                done_s = done_k
            else:
                ints[:, :, conv] = ki
                done_s[:, conv] = done_k
            changed = conv[ended.any(axis=0) & ~fin]
            if changed.size:
                refresh(changed)
                gid_groups = None
            if fin.any():
                gid_groups = None
                keep = np.ones(B, dtype=bool)
                keep[conv[fin]] = False
                act = act[keep]
                napps_s = napps_s[keep]
                hm_s = hm_s[keep]
                rho_s = rho_s[keep]
                its_s = its_s[keep]
                # Slots past the widest remaining cell are dead in every
                # remaining cell: they go too.
                S = int(napps_s.max()) if act.size else 0
                planes = planes[:, :S, keep]
                ints = ints[:, :S, keep]
                done_s = done_s[:S, keep]
                core_s = core_s[:S, keep]
                cs_s = cs_s[:S, keep]
                alive_s = alive_s[:S, keep]
                tbase_s = tbase_s[:S, keep]
                abase_s = abase_s[:S, keep]
                alloc_s = alloc_s[:S, keep]
                alive_flat = np.flatnonzero(alive_s)

        return self._assemble(
            acc, visited, total_instr, now, (tl_cells, tl_times, tl_rates)
        ), total_steps, total_iters

    def _pinned_smt(self, cell: BatchCell, teff: np.ndarray, smt: np.ndarray) -> None:
        """SMT scales of one pinned cell, written into ``smt`` (the
        scalar :meth:`IntervalEngine._solve` rule: pinned cores are
        reserved, unpinned apps spread over the rest)."""
        spec = self.spec
        smt[:] = 1.0
        pins = cell.pinnings
        reserved = {core for pin in pins if pin is not None for core in pin}
        free = tuple(core for core in range(spec.n_cores) if core not in reserved)
        if not free:
            free = tuple(range(spec.n_cores))
        occ = [0.0] * spec.n_cores
        spans = []
        for s in range(len(cell.profiles)):
            cores = pins[s] if pins[s] is not None else free
            spans.append(cores)
            load = int(teff[s]) / len(cores)
            for core in cores:
                occ[core] += load
        for s, cores in enumerate(spans):
            per_core = sum(occ[core] for core in cores) / len(cores)
            if per_core > 1.0:
                if spec.hyperthreading:
                    smt[s] = (
                        1.0 + (per_core - 1.0) * SMT_MARGINAL_THROUGHPUT
                    ) / per_core
                else:
                    smt[s] = 1.0 / per_core

    # -- result assembly ------------------------------------------------

    def _assemble(
        self,
        acc: np.ndarray,
        visited: np.ndarray,
        total_instr: np.ndarray,
        now: np.ndarray,
        timeline_rows: "tuple[list, list, list]",
    ) -> "list[ScenarioRunResult]":
        C, S, RN = self.C, self.S, self.RN
        # Each cell's timeline: its rows in pass order (a stable sort by
        # cell keeps each cell's steps in order), as a lazy timeline.
        # A pass's rates cover the slots still in use then; the rest
        # are dead slots, never read.
        tl_cells, tl_times, tl_rates = timeline_rows
        tl_cells, tl_times = np.concatenate(tl_cells), np.concatenate(tl_times)
        rates = np.zeros((tl_cells.size, S))
        lo = 0
        for chunk in tl_rates:
            hi = lo + chunk.shape[1]
            rates[lo:hi, : chunk.shape[0]] = chunk.T
            lo = hi
        order = np.argsort(tl_cells, kind="stable")
        tl_times, tl_rates = tl_times[order], rates[order]
        ends = np.cumsum(np.bincount(tl_cells, minlength=C)).tolist()
        sums = acc.reshape(C, S, RN, _N_SUMS).tolist()
        # The regions each slot ran, as a bitmask.
        ran = (visited.reshape(C, S, RN) @ (1 << np.arange(RN))).tolist()
        til = total_instr.T.tolist()
        nowl = now.tolist()
        bidl = self.bid.T.tolist()
        # A slot's regions appear in its metrics in the order the
        # scalar solver first touches them: each region it ran, then
        # that region's sync region.  The order depends on the block and
        # on which regions ran, and is worked out once per such pair.
        orders: dict[tuple[int, int], list[tuple[str, int]]] = {}
        results: list[ScenarioRunResult] = []
        for c, cell in enumerate(self.cells):
            n_c = len(cell.profiles)
            runtime = nowl[c]
            apps: list[AppMetrics] = []
            for s in range(n_c):
                key = (bidl[c][s], ran[c][s])
                names = orders.get(key)
                if names is None:
                    names = orders[key] = self._region_order(*key)
                sums_cs = sums[c][s]
                apps.append(
                    AppMetrics(
                        name=cell.profiles[s].name,
                        threads=cell.threads[s],
                        runtime_s=runtime,
                        by_region={
                            nm: RegionMetrics(*sums_cs[k]) for nm, k in names
                        },
                    )
                )
            relative_rates = []
            for s in range(1, n_c):
                solo_rate = cell.bg_solo_rates[s - 1]
                rate = til[c][s] / runtime if runtime > 0 else 0.0
                relative_rates.append(
                    rate / solo_rate if solo_rate > 0 else 0.0
                )
            lo, hi = ends[c - 1] if c else 0, ends[c]
            timeline = LazyTimeline(
                (tl_times[lo:hi], tl_rates[lo:hi, :n_c]),
                [p.name for p in cell.profiles],
            )
            results.append(
                ScenarioRunResult(
                    apps=apps,
                    fg_solo_runtime_s=cell.fg_solo_runtime_s,
                    bg_relative_rates=relative_rates,
                    timeline=timeline,
                )
            )
        return results

    def _region_order(self, block: int, ran: int) -> "list[tuple[str, int]]":
        """``(region name, metric slot)`` of a slot of ``block`` that ran
        the regions set in the bitmask ``ran``, in first-touch order."""
        prof, thr = self.block_slots[block]
        base = block * self.RT
        order: list[tuple[str, int]] = []
        seen: set[str] = set()
        for k, r in enumerate(prof.regions):
            if not ran >> k & 1:
                continue
            names = [r.region.name]
            if self.table[_SYNC, base + k] > 0.0:
                names.append(prof.sync_region_name or r.region.name)
            for nm in names:
                if nm not in seen:
                    seen.add(nm)
                    slot = k if nm == r.region.name else int(self.table[_SYNCTGT, base + k])
                    order.append((nm, slot))
        return order


def solve_batch(engine, cells: "Sequence[BatchCell]") -> "list[ScenarioRunResult]":
    """Solve many scenarios at once on one engine (same spec/config).

    Every cell is checked by :meth:`IntervalEngine.prepare_cell`.
    Cells the array layout cannot represent exactly (more than
    :data:`MAX_BATCH_SLOTS` applications) then run through the scalar
    solver on that prepared cell; everything else goes through one
    stacked fixed point.  Results are bit-identical to the scalar
    path, in input order.
    """
    cells = list(cells)
    if not cells:
        return []
    prepared = [engine.prepare_cell(cell) for cell in cells]
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("engine.solve_batch", cells=len(prepared)) as span:
            return _solve_batch_impl(engine, prepared, tracer, span)
    return _solve_batch_impl(engine, prepared, tracer, None)


def _solve_batch_impl(
    engine, prepared: "list[BatchCell]", tracer, span
) -> "list[ScenarioRunResult]":
    eligible = [i for i, cell in enumerate(prepared) if batchable(cell)]
    results: list[ScenarioRunResult | None] = [None] * len(prepared)
    if eligible:
        runner = _BatchRunner(engine, [prepared[i] for i in eligible])
        batch_results, n_steps, n_iters = runner.run()
        for i, res in zip(eligible, batch_results):
            results[i] = res
        if span is not None:
            span.tag("batched", len(eligible))
            span.tag("steps", n_steps)
            span.tag("iterations", n_iters)
        tracer.merge_counters(
            "engine",
            {"batch_cells": len(eligible), "batch_count": 1},
        )
    for i, cell in enumerate(prepared):
        if results[i] is None:
            results[i] = engine._run_cell(cell)
    return results  # type: ignore[return-value]
