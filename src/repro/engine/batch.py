"""Batched interval engine: one fixed point over many scenarios.

:func:`solve_batch` runs a whole set of consolidation scenarios
("cells") through the interval model at once.  Per-app region state —
CPI stacks, MLP, miss-ratio-curve lookups, LLC pressure allocation and
bus contention — is stacked into ``(cells, slots)`` numpy arrays and a
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
    """Per-cell sum over the masked slots in slot order, as one
    ``np.add.accumulate`` along the slot axis: an accumulate adds
    strictly left to right, which is how ``sum()`` (and numpy below 8
    elements) reduces.  ``sum()`` starts from 0.0; starting from the
    first term instead is bit-identical because every engine quantity
    summed this way is non-negative (only a -0.0 first term could differ
    from ``0.0 + term``), and a masked-out slot adds 0.0, which leaves a
    non-negative running total as it is."""
    return np.add.accumulate(np.where(mask, values, 0.0), axis=1)[:, -1]


def _waterfill_batch(
    demands: np.ndarray,
    weights: np.ndarray,
    capacity: np.ndarray,
    alive: np.ndarray,
    run0: np.ndarray,
) -> np.ndarray:
    """Vectorized ``bandwidth._waterfill`` across cells (``run0`` marks
    the cells whose bus actually saturated)."""
    n_slots = demands.shape[1]
    out = np.zeros_like(demands)
    todo = alive & (demands > 0.0)
    remaining = capacity.astype(np.float64).copy()
    running = run0.copy()
    for _ in range(n_slots + 1):
        running = running & todo.any(axis=1) & (remaining > 0.0)
        if not running.any():
            break
        wsum = _seq_sum(weights, todo)
        wsafe = np.where(wsum > 0.0, wsum, 1.0)
        trial = (remaining[:, None] * weights) / wsafe[:, None]
        capped = todo & (trial >= demands - out)
        any_capped = capped.any(axis=1)
        finish = running & ~any_capped
        out = np.where(finish[:, None] & todo, out + trial, out)
        cont = running & any_capped
        for j in range(n_slots):
            cm = cont & capped[:, j]
            if not cm.any():
                continue
            grant = demands[:, j] - out[:, j]
            out[:, j] = np.where(cm, demands[:, j], out[:, j])
            remaining = np.where(cm, remaining - grant, remaining)
        todo = todo & ~(capped & cont[:, None])
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
    mask: proportional waterfill capped by footprints plus the LRU
    floor, with the zero-pressure even split.  Each waterfill round and
    the LRU floor run on the rows still in them only; rows never mix,
    so a row's arithmetic is the same whichever rows share a round."""
    n_slots = p.shape[1]
    psum = _seq_sum(p, alive)
    has_p = psum > 0.0
    floor = MIN_SHARE_FRACTION * cap_bytes
    alloc = np.zeros_like(p)
    active = alive & (p > 0.0)
    # The waterfill's rows, and their state beside them, shrink to the
    # rows still running.  In round one ``todo`` masks exactly the
    # positive-pressure slots, so the masked sum equals ``psum`` term for
    # term (zeros either way); later rounds recompute it after slots cap
    # out.
    rows = np.flatnonzero(cells & has_p)
    todo = active[rows]
    remaining = np.full(rows.size, cap_bytes)
    pt = psum[rows]
    pr, fr = p[rows], f[rows]
    for _ in range(n_slots + 1):
        keep = todo.any(axis=1) & (remaining > 0.0)
        if not keep.all():
            rows, todo, remaining = rows[keep], todo[keep], remaining[keep]
            pt, pr, fr = pt[keep], pr[keep], fr[keep]
        if not rows.size:
            break
        ptsafe = np.where(pt > 0.0, pt, 1.0)
        trial = (pr / ptsafe[:, None]) * remaining[:, None]
        over = todo & (trial >= fr)
        any_over = over.any(axis=1)
        if not any_over.any():
            # Every running row finishes this round (the common case:
            # no footprint cap was hit anywhere).
            alloc[rows] = np.where(todo, trial, alloc[rows])
            break
        done = ~any_over
        alloc[rows[done]] = np.where(todo[done], trial[done], alloc[rows[done]])
        rows, todo, remaining = rows[any_over], todo[any_over], remaining[any_over]
        pr, fr, over = pr[any_over], fr[any_over], over[any_over]
        alloc[rows] = np.where(over, fr, alloc[rows])
        remaining = remaining - _seq_sum(fr, over)
        todo = todo & ~over
        pt = _seq_sum(pr, todo)
    # LRU floor: steal proportionally from shares above the floor, one
    # beneficiary slot at a time (the scalar loop order).  Donors never
    # drop below the floor, so only rows with an under-floor slot now
    # ever change.
    minf = np.minimum(floor, f)
    rows = np.flatnonzero(cells & has_p & (active & (alloc < minf)).any(axis=1))
    if rows.size:
        a, act, minf = alloc[rows], active[rows], minf[rows]
        for i in range(n_slots):
            needm = act[:, i] & (a[:, i] < minf[:, i])
            if not needm.any():
                continue
            need = minf[:, i] - a[:, i]
            donors = act & (a > floor)
            donors[:, i] = False
            pool = _seq_sum(a - floor, donors)
            ok = needm & (pool > 0.0)
            if not ok.any():
                continue
            take = np.minimum(need, pool)
            poolsafe = np.where(pool > 0.0, pool, 1.0)
            give = (take[:, None] * (a - floor)) / poolsafe[:, None]
            a = np.where(ok[:, None] & donors, a - give, a)
            a[:, i] = np.where(ok, a[:, i] + take, a[:, i])
        alloc[rows] = a
    if bool(has_p.all()):
        return alloc
    even = np.where(alive, np.minimum(f, (cap_bytes / n_apps)[:, None]), 0.0)
    return np.where(~has_p[:, None], even, alloc)


def batchable(cell: BatchCell) -> bool:
    """Whether a cell fits the batch layout exactly (else it takes the
    scalar fallback)."""
    return len(cell.profiles) <= MAX_BATCH_SLOTS


class _BatchRunner:
    """Stacked state + the masked step loop for one homogeneous batch
    (one engine: same spec and config for every cell)."""

    def __init__(self, engine, cells: "list[BatchCell]") -> None:
        self.engine = engine
        self.cells = cells
        self.spec = engine.spec
        self.cfg = engine.config
        self._setup()

    # -- constant tables ------------------------------------------------

    def _setup(self) -> None:
        spec = self.spec
        cfg = self.cfg
        cells = self.cells
        C = len(cells)
        self.C = C
        self.llc_cap = float(spec.llc.size_bytes)
        self.n_apps = np.array([len(c.profiles) for c in cells], dtype=np.int64)
        S = int(self.n_apps.max())
        self.S = S
        n_regions = [
            [len(p.regions) for p in c.profiles] for c in cells
        ]
        RT = max(max(row) for row in n_regions)
        self.n_regions = n_regions

        full = (1 << spec.llc_ways) - 1
        # Per-slot python bookkeeping.
        self.prof_names: list[list[str]] = []
        self.acc_names: list[list[list[str]]] = []  # [c][s] -> unique names
        self.sync_names: list[list[str | None]] = []
        self.pin_cells: list[int] = []
        #: cell -> its ways grouped by sharer signature (masked cells)
        self.way_groups: dict[int, list] = {}
        mask_caps = np.zeros((C, S))
        has_masks = np.zeros(C, dtype=bool)
        RN = 1

        def table(fill: float = 0.0) -> np.ndarray:
            return np.full((C, S, RT), fill)

        t_ipc = table(1.0)
        t_mpki = table()          # l2_mpki/1000
        t_mpkiraw = table()       # l2_mpki as-is (metric accumulation)
        t_bpia = table()          # (l2_mpki/1000)*CACHE_LINE
        t_hide = table(1.0)       # 1 - PREFETCH_HIDE*cov
        t_bfac = table(1.0)       # 1 + write_fraction + overfetch
        t_mlp = table(1.0)
        t_sync = table()
        t_teff = np.ones((C, S, RT), dtype=np.int64)
        t_rinstr = table(1.0)
        t_cap0 = table(float(spec.memory.peak_bandwidth_bytes))
        t_foot = table(1.0)
        t_reg = table()
        t_eff = table(1.0)        # bw_efficiency
        t_wbus = table(1.0)       # 1 + ROW_HIT_BONUS*regularity
        t_mstatic = table()
        t_teven = table()
        t_tstatic = table()
        t_serial = np.zeros((C, S, RT), dtype=bool)
        t_gid = np.full((C, S, RT), -1, dtype=np.int64)
        t_nameidx = np.zeros((C, S, RT), dtype=np.int64)
        t_synctgt = np.zeros((C, S, RT), dtype=np.int64)

        mrc_gids: dict[int, int] = {}
        self.mrcs: list = []

        for c, cell in enumerate(cells):
            names_row: list[str] = []
            accs_row: list[list[str]] = []
            syncs_row: list[str | None] = []
            if cell.pinnings is not None and any(
                pin is not None for pin in cell.pinnings
            ):
                self.pin_cells.append(c)
            cell_masks = cell.llc_ways
            if cell_masks is not None and any(m is not None for m in cell_masks):
                has_masks[c] = True
                self.way_groups[c] = way_groups(spec.llc_ways, list(cell_masks))
                for s in range(len(cell.profiles)):
                    m = cell_masks[s]
                    mask_caps[c, s] = (
                        bin(m if m is not None else full).count("1")
                        * spec.llc_way_bytes
                    )
            n_c = len(cell.profiles)
            for s, (prof, thr) in enumerate(zip(cell.profiles, cell.threads)):
                names_row.append(prof.name)
                uniq: list[str] = []
                idx_of: dict[str, int] = {}
                for r in prof.regions:
                    nm = r.region.name
                    if nm not in idx_of:
                        idx_of[nm] = len(uniq)
                        uniq.append(nm)
                sync_nm = prof.sync_region_name or None
                if sync_nm and sync_nm not in idx_of:
                    idx_of[sync_nm] = len(uniq)
                    uniq.append(sync_nm)
                accs_row.append(uniq)
                syncs_row.append(sync_nm)
                RN = max(RN, len(uniq))
                work = prof.total_kinstr * 1000.0
                for k, r in enumerate(prof.regions):
                    t_ipc[c, s, k] = r.ipc_core
                    mpki_k = r.l2_mpki / 1000.0
                    t_mpki[c, s, k] = mpki_k
                    t_mpkiraw[c, s, k] = r.l2_mpki
                    t_bpia[c, s, k] = mpki_k * CACHE_LINE
                    cov = (
                        r.regularity * PREFETCH_COVERAGE
                        if cfg.prefetchers_on
                        else 0.0
                    )
                    t_hide[c, s, k] = 1.0 - PREFETCH_HIDE * cov
                    overfetch = (
                        PREFETCH_OVERFETCH * cov
                        if cfg.prefetch_bandwidth_tax
                        else 0.0
                    )
                    t_bfac[c, s, k] = 1.0 + r.write_fraction + overfetch
                    t_mlp[c, s, k] = r.mlp if cfg.use_mlp else 1.0
                    sync = 0.0 if r.serial else prof.scaling.sync_cpi(thr)
                    t_sync[c, s, k] = sync
                    teff = 1 if r.serial else thr
                    t_teff[c, s, k] = teff
                    t_rinstr[c, s, k] = (
                        work * prof.scaling.work_factor(thr)
                    ) * r.weight
                    t_cap0[c, s, k] = (
                        r.bw_efficiency * spec.memory.peak_bandwidth_bytes
                    )
                    t_foot[c, s, k] = r.footprint_bytes
                    t_reg[c, s, k] = r.regularity
                    t_eff[c, s, k] = r.bw_efficiency
                    t_wbus[c, s, k] = 1.0 + ROW_HIT_BONUS * r.regularity
                    t_serial[c, s, k] = r.serial
                    if cfg.llc_policy == "static":
                        cap_i = mask_caps[c, s] if has_masks[c] else self.llc_cap
                        t_mstatic[c, s, k] = r.mrc.miss_ratio(
                            min(r.footprint_bytes, float(cap_i))
                        )
                        t_tstatic[c, s, k] = min(r.footprint_bytes, self.llc_cap)
                    elif cfg.llc_policy == "even":
                        t_teven[c, s, k] = min(
                            r.footprint_bytes, self.llc_cap / n_c
                        )
                    gid = mrc_gids.get(id(r.mrc))
                    if gid is None:
                        gid = mrc_gids[id(r.mrc)] = len(self.mrcs)
                        self.mrcs.append(r.mrc)
                    t_gid[c, s, k] = gid
                    t_nameidx[c, s, k] = idx_of[r.region.name]
                    t_synctgt[c, s, k] = idx_of[sync_nm or r.region.name]
            self.prof_names.append(names_row)
            self.acc_names.append(accs_row)
            self.sync_names.append(syncs_row)

        self.RT = RT
        self.RN = RN
        self.has_masks = has_masks
        self.mask_caps = mask_caps
        self.alive = (
            np.arange(S)[None, :] < self.n_apps[:, None]
        )
        flat = lambda t: np.ascontiguousarray(t).reshape(C * S * RT)
        self.t = {
            "ipc": flat(t_ipc),
            "mpki": flat(t_mpki),
            "mpkiraw": flat(t_mpkiraw),
            "bpia": flat(t_bpia),
            "hide": flat(t_hide),
            "bfac": flat(t_bfac),
            "mlp": flat(t_mlp),
            "sync": flat(t_sync),
            "teff": flat(t_teff),
            "rinstr": flat(t_rinstr),
            "cap0": flat(t_cap0),
            "foot": flat(t_foot),
            "reg": flat(t_reg),
            "eff": flat(t_eff),
            "wbus": flat(t_wbus),
            "mstatic": flat(t_mstatic),
            "teven": flat(t_teven),
            "tstatic": flat(t_tstatic),
            "serial": flat(t_serial),
            "gid": flat(t_gid),
            "nameidx": flat(t_nameidx),
            "synctgt": flat(t_synctgt),
        }
        self._base = (
            np.arange(C)[:, None] * S + np.arange(S)[None, :]
        ) * RT

    # -- the masked step loop -------------------------------------------

    def run(self) -> "tuple[list[ScenarioRunResult], int, int]":
        spec = self.spec
        cfg = self.cfg
        C, S = self.C, self.S
        llc_cap = self.llc_cap
        llc_lat = float(spec.llc.latency_cycles)
        idle_lat = float(spec.memory.idle_latency_cycles)
        freq = spec.freq_hz
        peak = spec.memory.peak_bandwidth_bytes
        qgain = spec.memory.queue_gain
        qmax = spec.memory.max_utilization
        alive = self.alive
        t = self.t
        base = self._base
        policy = cfg.llc_policy
        # Constants needed inside the fixed point (gathered per
        # iteration for the rows still iterating).
        iter_keys = [
            "ipc", "mpki", "bpia", "hide", "bfac", "mlp", "sync",
            "cap0", "foot", "reg", "eff", "wbus",
        ]
        if policy == "static":
            iter_keys += ["mstatic", "tstatic"]
        else:
            iter_keys.append("gid")
            if policy == "even":
                iter_keys.append("teven")

        KI = {k: i for i, k in enumerate(iter_keys)}
        NK = len(iter_keys)

        region_i = np.zeros((C, S), dtype=np.int64)
        instr_done = np.zeros((C, S))
        total_instr = np.zeros((C, S))
        visited = np.zeros((C, S, self.RT), dtype=bool)
        acc = {
            k: np.zeros((C, S, self.RN))
            for k in (
                "instructions",
                "cycles",
                "pending_cycles",
                "l2_misses",
                "llc_misses",
                "bus_bytes",
            )
        }
        now = np.zeros(C)
        steps = np.zeros(C, dtype=np.int64)
        active = np.ones(C, dtype=bool)
        max_dt_full = np.array([c.max_dt for c in self.cells])
        # Timeline rows, one entry per pass that advanced cells: the
        # cells, their step end times and their per-slot rates.
        tl_cells: list[np.ndarray] = []
        tl_times: list[np.ndarray] = []
        tl_rates: list[np.ndarray] = []
        total_iters = 0
        total_steps = 0
        peak_pos = peak > 0.0

        # Per-ACTIVE-cell working state, kept compacted: row i of every
        # array below belongs to global cell ``act[i]``.  Rows are
        # dropped when their cell finishes, and region constants are
        # rewritten in place when a cell changes region — so the hot
        # loop never gathers or scatters against the full cell set.
        act = np.flatnonzero(active)
        alive_s = alive[act]
        napps_s = self.n_apps[act]
        hm_s = self.has_masks[act]
        gss = np.zeros((C, S, NK))
        teff_s = np.ones((C, S))
        smt_s = np.ones((C, S))
        alloc_s = np.where(alive_s, llc_cap / napps_s[:, None], 0.0)
        rho_s = np.full(C, 0.2)
        its_s = np.zeros(C, dtype=np.int64)

        def begin_step(rows: np.ndarray) -> None:
            nonlocal total_steps
            if bool((steps[rows] >= _MAX_STEPS).any()):
                raise EngineError("step budget exhausted; check profile scales")
            steps[rows] += 1
            total_steps += int(rows.size)

        def refresh(local_rows: np.ndarray, global_rows: np.ndarray) -> None:
            # Re-gather region constants and recompute the SMT scales
            # for cells entering a new region (bit-identical scalar
            # replication: vectorized for the unpinned case, per cell
            # when pinned).  ``local_rows`` index the compacted arrays,
            # ``global_rows`` the full tables.
            idxr = base[global_rows] + region_i[global_rows]
            for k, ki in KI.items():
                gss[local_rows, :, ki] = np.take(t[k], idxr)
            teff_r = np.take(t["teff"], idxr).astype(np.float64)
            teff_s[local_rows] = teff_r
            alive_r = alive[global_rows]
            smt_r = np.ones((global_rows.size, S))
            if spec.hyperthreading:
                live_t = _seq_sum(teff_r, alive_r).astype(np.int64)
                over = live_t > spec.n_cores
                per_core = live_t / spec.n_cores
                scale = (
                    1.0 + (per_core - 1.0) * SMT_MARGINAL_THROUGHPUT
                ) / np.where(per_core > 0, per_core, 1.0)
                smt_r = np.where(
                    (over[:, None]) & alive_r, scale[:, None], smt_r
                )
            smt_s[local_rows] = smt_r
            if self.pin_cells:
                loc_of = {
                    int(cg): int(lr)
                    for lr, cg in zip(local_rows, global_rows)
                }
                for c in self.pin_cells:
                    lr = loc_of.get(c)
                    if lr is None:
                        continue
                    smt_s[lr, :] = 1.0
                    cell = self.cells[c]
                    n_c = len(cell.profiles)
                    pins = cell.pinnings
                    reserved = {
                        core for pin in pins if pin is not None for core in pin
                    }
                    free = tuple(
                        core
                        for core in range(spec.n_cores)
                        if core not in reserved
                    )
                    if not free:
                        free = tuple(range(spec.n_cores))
                    occ = [0.0] * spec.n_cores
                    spans = []
                    for s in range(n_c):
                        cores = pins[s] if pins[s] is not None else free
                        spans.append(cores)
                        load = int(teff_s[lr, s]) / len(cores)
                        for core in cores:
                            occ[core] += load
                    for s in range(n_c):
                        per_core_s = sum(occ[core] for core in spans[s]) / len(
                            spans[s]
                        )
                        if per_core_s > 1.0:
                            if spec.hyperthreading:
                                smt_s[lr, s] = (
                                    1.0
                                    + (per_core_s - 1.0)
                                    * SMT_MARGINAL_THROUGHPUT
                                ) / per_core_s
                            else:
                                smt_s[lr, s] = 1.0 / per_core_s

        # Cells step asynchronously: every pass runs ONE fixed-point
        # iteration for every active cell; cells whose iteration just
        # converged (or hit the iteration cap) advance to their next
        # step boundary immediately and rejoin the next pass at
        # iteration zero of their next step, while the rest keep
        # iterating.  Per cell this replays exactly the scalar
        # step/iteration sequence — the passes only interleave
        # independent cells, they never mix their arithmetic.
        begin_step(act)
        refresh(np.arange(C), act)
        gid_groups: "list[tuple[int, np.ndarray]] | None" = None
        while act.size:
            B = int(act.size)
            total_iters += B
            gv = {k: gss[:, :, ki] for k, ki in KI.items()}

            if cfg.use_queueing:
                rho_c = np.minimum(rho_s, qmax)
                qmult = 1.0 + qgain * rho_c / (1.0 - rho_c)
            else:
                qmult = np.ones(B)
            if policy == "static":
                m = gv["mstatic"]
            else:
                if gid_groups is None:
                    # Group slots by miss-ratio curve with one stable
                    # sort (within a group the stable order keeps slots
                    # ascending, exactly like a flatnonzero scan).  The
                    # grouping only changes on region refresh or row
                    # compaction, so it is cached between passes.
                    gid_flat = gv["gid"].reshape(-1)
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
                alloc_flat = alloc_s.reshape(-1)
                m_flat = np.zeros(alloc_flat.size)
                for gid, sel in gid_groups:
                    m_flat[sel] = self.mrcs[gid].miss_ratios(
                        alloc_flat[sel]
                    )
                m = m_flat.reshape(B, S)
            mem_lat = idle_lat * qmult
            l_eff = llc_lat + (m * gv["hide"]) * mem_lat[:, None]
            stall_lat = (gv["mpki"] * l_eff) / gv["mlp"]
            bpi = (gv["bpia"] * m) * gv["bfac"]
            core_cpi = 1.0 / (gv["ipc"] * smt_s)
            cpi = core_cpi + gv["sync"] + stall_lat
            rate = freq / cpi
            demands = (bpi * rate) * teff_s

            # resolve_bus, vectorized.
            total = _seq_sum(demands, alive_s)
            regular_total = _seq_sum(demands * gv["reg"], alive_s)
            tsafe = np.where(total > 0.0, total, 1.0)
            competing = (
                np.maximum(0.0, regular_total[:, None] - demands * gv["reg"])
                / tsafe[:, None]
            )
            term = (
                (demands * (1.0 - gv["eff"])) / tsafe[:, None]
            ) * np.minimum(1.0, MIX_SENSITIVITY * competing)
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
                    demands, gv["wbus"], eff_peak, alive_s, ~unsat
                )
                achieved = np.where(unsat[:, None], demands, wf)
                ach_total = _seq_sum(achieved, alive_s)
                saturated = total > ach_total * (1 + 1e-9)
                sat_any = bool(saturated.any())

            # Roofline correction.
            new_cpi = core_cpi + gv["sync"] + stall_lat
            new_rate = freq / new_cpi
            cap = gv["cap0"]
            if sat_any:
                cap = np.where(
                    saturated[:, None] & (achieved > 0.0),
                    np.minimum(cap, achieved),
                    cap,
                )
            has_bpi = bpi > 0.0
            den = np.where(has_bpi, bpi * teff_s, 1.0)
            rate_bw = cap / den
            hit_bw = has_bpi & (rate_bw < new_rate)
            new_rate = np.where(hit_bw, rate_bw, new_rate)
            new_cpi = np.where(hit_bw, freq / rate_bw, new_cpi)
            new_stall = np.where(
                hit_bw, (new_cpi - core_cpi) - gv["sync"], stall_lat
            )
            new_bps = (bpi * new_rate) * teff_s

            # LLC reallocation targets.  numpy's vectorized pow rounds
            # differently from libm in the last ulp, so the pressure
            # exponent is applied per element on python floats —
            # exactly the scalar engine's operation — and to live slots
            # only (dead slots have no pressure).
            any_masks = bool(hm_s.any())
            if any_masks or policy == "pressure":
                pbase = ((gv["mpki"] * m) * new_rate) * teff_s
                pressures = np.zeros((B, S))
                pressures[alive_s] = [
                    v**LLC_PRESSURE_EXP for v in pbase[alive_s].tolist()
                ]
            if policy == "pressure":
                target = _allocate_llc_batch(
                    llc_cap,
                    pressures,
                    gv["foot"],
                    alive_s,
                    napps_s,
                    ~hm_s,
                )
            elif policy == "even":
                # Copy before masked-cell writes: the plane is a view
                # into the persistent region-constant stack.
                target = gv["teven"].copy() if any_masks else gv["teven"]
            else:
                target = gv["tstatic"].copy() if any_masks else gv["tstatic"]
            if any_masks:
                for i in np.flatnonzero(hm_s):
                    i = int(i)
                    c = int(act[i])
                    n_c = int(napps_s[i])
                    part = allocate_llc_groups(
                        llc_cap,
                        spec.llc_ways,
                        self.way_groups[c],
                        pressures[i, :n_c].tolist(),
                        gv["foot"][i, :n_c].tolist(),
                        policy,
                    )
                    target[i, :n_c] = part

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
            # scalar's per-slot running maximum collapses to one
            # masked row reduction.
            cand = np.abs(target - alloc_s) / llc_cap
            masked = np.where(
                alive_s & (alloc_s > 0.0), cand, -np.inf
            )
            delta = np.maximum(
                np.abs(rho_new - rho_s), masked.max(axis=1)
            )
            rho_s = (1 - _DAMP) * rho_s + _DAMP * rho_new
            alloc_s = (1 - _DAMP) * alloc_s + _DAMP * target
            its_s += 1
            leave = (delta < _TOL) | (its_s >= _MAX_ITER)
            conv_l = np.flatnonzero(leave)
            if not conv_l.size:
                continue
            its_s[conv_l] = 0

            # ---- advance the converged cells to their next boundary ----
            rows = act[conv_l]
            K = int(rows.size)
            alive_k = alive_s[conv_l]
            teff_k = teff_s[conv_l]
            rate_k = new_rate[conv_l]
            cpi_k = new_cpi[conv_l]
            stall_k = new_stall[conv_l]
            bps_k = new_bps[conv_l]
            m_k = m[conv_l]
            sync_k = gv["sync"][conv_l]
            speed = rate_k * teff_k
            if bool((alive_k & (speed <= 0.0)).any()):
                bad = np.argwhere(alive_k & (speed <= 0.0))[0]
                name = self.prof_names[int(rows[int(bad[0])])][int(bad[1])]
                raise EngineError(f"{name}: zero execution rate")
            region_k = region_i[rows]
            idxk = base[rows] + region_k
            rinstr_k = np.take(t["rinstr"], idxk)
            mpkiraw_k = np.take(t["mpkiraw"], idxk)
            nameidx_k = np.take(t["nameidx"], idxk)
            synctgt_k = np.take(t["synctgt"], idxk)
            instr_done_k = instr_done[rows]
            remaining = rinstr_k - instr_done_k
            spd_safe = np.where(alive_k, speed, 1.0)
            step_j = np.maximum(remaining / spd_safe, 1e-9)
            dt = np.minimum(
                max_dt_full[rows],
                np.where(alive_k, step_j, np.inf).min(axis=1),
            )
            instr = (rate_k * teff_k) * dt[:, None]

            ci_l, si = np.nonzero(alive_k)
            ci = rows[ci_l]
            ri = region_k[ci_l, si]
            tgt = nameidx_k[ci_l, si]
            inst_v = instr[ci_l, si]
            visited[ci, si, ri] = True
            acc["instructions"][ci, si, tgt] += inst_v
            acc["cycles"][ci, si, tgt] += inst_v * (
                cpi_k[ci_l, si] - sync_k[ci_l, si]
            )
            acc["pending_cycles"][ci, si, tgt] += inst_v * stall_k[ci_l, si]
            acc["l2_misses"][ci, si, tgt] += (
                inst_v * mpkiraw_k[ci_l, si]
            ) / 1000.0
            acc["llc_misses"][ci, si, tgt] += (
                (inst_v * mpkiraw_k[ci_l, si]) / 1000.0
            ) * m_k[ci_l, si]
            acc["bus_bytes"][ci, si, tgt] += bps_k[ci_l, si] * dt[ci_l]
            has_sync = sync_k[ci_l, si] > 0.0
            if bool(has_sync.any()):
                cs_l, ss = ci_l[has_sync], si[has_sync]
                cs = rows[cs_l]
                stgt = synctgt_k[cs_l, ss]
                acc["cycles"][cs, ss, stgt] += (
                    instr[cs_l, ss] * sync_k[cs_l, ss]
                )
                acc["instructions"][cs, ss, stgt] += 0.0
            total_instr[ci, si] += inst_v
            instr_done_k[ci_l, si] += inst_v
            instr_done[rows] = instr_done_k

            # Timeline samples, kept as rows until assembly.
            t_next = now[rows] + dt
            tl_cells.append(rows)
            tl_times.append(t_next)
            tl_rates.append(bps_k)
            now[rows] = t_next

            # Region/phase transitions (few per pass: python
            # bookkeeping), then re-arm the continuing cells.
            done = alive_k & (instr_done_k >= rinstr_k - 1e-6)
            changed: list[int] = []
            finished = False
            for lc, s in np.argwhere(done):
                lc, s = int(lc), int(s)
                c = int(rows[lc])
                instr_done[c, s] = 0.0
                nxt = int(region_i[c, s]) + 1
                if nxt >= self.n_regions[c][s]:
                    nxt = 0
                    if s == 0:
                        active[c] = False
                        finished = True
                region_i[c, s] = nxt
                la = int(conv_l[lc])
                if active[c] and (not changed or changed[-1] != la):
                    changed.append(la)
            cont = rows[active[rows]]
            if cont.size:
                begin_step(cont)
            if changed:
                locs = np.unique(np.array(changed, dtype=np.int64))
                refresh(locs, act[locs])
                gid_groups = None
            if finished:
                gid_groups = None
                keep = active[act]
                act = act[keep]
                gss = gss[keep]
                teff_s = teff_s[keep]
                smt_s = smt_s[keep]
                alive_s = alive_s[keep]
                napps_s = napps_s[keep]
                hm_s = hm_s[keep]
                alloc_s = alloc_s[keep]
                rho_s = rho_s[keep]
                its_s = its_s[keep]

        return self._assemble(
            acc, visited, total_instr, now, (tl_cells, tl_times, tl_rates)
        ), total_steps, total_iters

    # -- result assembly ------------------------------------------------

    def _assemble(
        self,
        acc: dict,
        visited: np.ndarray,
        total_instr: np.ndarray,
        now: np.ndarray,
        timeline_rows: "tuple[list, list, list]",
    ) -> "list[ScenarioRunResult]":
        # Each cell's timeline: its rows in pass order (a stable sort by
        # cell keeps each cell's steps in order), as a lazy timeline.
        tl_cells, tl_times, tl_rates = (np.concatenate(a) for a in timeline_rows)
        order = np.argsort(tl_cells, kind="stable")
        tl_times, tl_rates = tl_times[order], tl_rates[order]
        ends = np.cumsum(np.bincount(tl_cells, minlength=self.C)).tolist()
        accl = {k: v.tolist() for k, v in acc.items()}
        visl = visited.tolist()
        til = total_instr.tolist()
        nowl = now.tolist()
        syncl = self.t["sync"].tolist()
        basel = self._base.tolist()
        results: list[ScenarioRunResult] = []
        for c, cell in enumerate(self.cells):
            n_c = len(cell.profiles)
            runtime = nowl[c]
            apps: list[AppMetrics] = []
            for s in range(n_c):
                uniq = self.acc_names[c][s]
                sync_nm = self.sync_names[c][s]
                vis_cs = visl[c][s]
                base_cs = basel[c][s]
                order: list[str] = []
                for k, r in enumerate(cell.profiles[s].regions):
                    if not vis_cs[k]:
                        continue
                    nm = r.region.name
                    if nm not in order:
                        order.append(nm)
                    if syncl[base_cs + k] > 0.0:
                        snm = sync_nm or nm
                        if snm not in order:
                            order.append(snm)
                by_region: dict[str, RegionMetrics] = {}
                for nm in order:
                    k = uniq.index(nm)
                    by_region[nm] = RegionMetrics(
                        instructions=accl["instructions"][c][s][k],
                        cycles=accl["cycles"][c][s][k],
                        pending_cycles=accl["pending_cycles"][c][s][k],
                        l2_misses=accl["l2_misses"][c][s][k],
                        llc_misses=accl["llc_misses"][c][s][k],
                        bus_bytes=accl["bus_bytes"][c][s][k],
                    )
                apps.append(
                    AppMetrics(
                        name=cell.profiles[s].name,
                        threads=cell.threads[s],
                        runtime_s=runtime,
                        by_region=by_region,
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
                (tl_times[lo:hi], tl_rates[lo:hi, :n_c]), self.prof_names[c]
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
