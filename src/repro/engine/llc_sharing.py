"""Shared-LLC capacity allocation model.

Under unmanaged sharing, an application's LLC occupancy tracks its
*insertion pressure* — the rate at which it brings new lines in — but
can never exceed its footprint (it cannot keep lines it never touches).
This is the standard fluid approximation of LRU sharing (cf. Chandra et
al., HPCA'05) and captures both paper phenomena:

* STREAM inserts at enormous rate with an unbounded footprint, so it
  squeezes co-runners' shares and inflates their LLC MPKI (Fig 7c);
* Bandit inserts at a high rate but into a footprint of a single cache
  set, so co-runners keep their capacity (Fig 6a's mild slowdowns).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EngineError

#: No application's share drops below this fraction of the LLC: even
#: under heavy thrash, recently-inserted lines of the victim survive
#: briefly (LRU gives every active inserter *some* residency).
MIN_SHARE_FRACTION = 0.02


def way_groups(n_ways: int, masks: "list[int | None]") -> list[tuple[tuple[int, ...], int]]:
    """The LLC's ways grouped by sharer signature: ``(sharers, ways)``
    pairs, in the order of each group's lowest way.

    Way ``w`` is shared by the apps whose mask includes its bit (an
    unset mask means the full bitmap, CAT's default CLOS behaviour).
    The grouping depends on the masks alone, so a solver computes it
    once per scenario and hands it to :func:`allocate_llc_groups` on
    every iteration of the fixed point.
    """
    full = (1 << n_ways) - 1
    eff = [full if m is None else m for m in masks]
    groups: dict[tuple[int, ...], int] = {}
    for w in range(n_ways):
        sharers = tuple(i for i, m in enumerate(eff) if m >> w & 1)
        if sharers:
            groups[sharers] = groups.get(sharers, 0) + 1
    return list(groups.items())


def allocate_llc_ways(
    capacity_bytes: float,
    n_ways: int,
    masks: "list[int | None]",
    pressures: list[float],
    footprints: list[float],
    policy: str = "pressure",
) -> list[float]:
    """Split LLC capacity under per-app CAT way-mask bitmaps: the ways
    grouped by sharer signature (:func:`way_groups`), then split group
    by group (:func:`allocate_llc_groups`)."""
    if len(pressures) != len(masks) or len(footprints) != len(masks):
        raise EngineError("masks, pressures and footprints must align")
    return allocate_llc_groups(
        capacity_bytes, n_ways, way_groups(n_ways, masks), pressures, footprints, policy
    )


def allocate_llc_groups(
    capacity_bytes: float,
    n_ways: int,
    groups: "list[tuple[tuple[int, ...], int]]",
    pressures: list[float],
    footprints: list[float],
    policy: str = "pressure",
) -> list[float]:
    """Split LLC capacity over way groups (:func:`way_groups`).

    Within one group capacity splits by the active ``policy``:

    * ``pressure`` — exclusive ways belong to their owner outright;
      overlapping ways share by insertion pressure, exactly like the
      unpartitioned fluid model (:func:`allocate_llc`) restricted to
      that group's capacity and sharers;
    * ``even`` — every sharer gets an equal slice of each group;
    * ``static`` — no dynamic contention at all: every sharer sees its
      whole masked capacity (the private-cache idealization).

    An all-ways mask for every app therefore degenerates to the global
    policy semantics.  Per-app totals are capped at the footprint — an
    app cannot keep lines it never touches, however many ways CAT
    grants it.
    """
    way_bytes = capacity_bytes / n_ways
    alloc = [0.0] * len(pressures)
    for sharers, ways in groups:
        cap_g = ways * way_bytes
        if policy == "static":
            for i in sharers:
                alloc[i] += cap_g
        elif policy == "even":
            for i in sharers:
                alloc[i] += cap_g / len(sharers)
        elif len(sharers) == 1:
            alloc[sharers[0]] += cap_g
        else:
            part = allocate_llc(
                cap_g,
                [pressures[i] for i in sharers],
                [footprints[i] for i in sharers],
            )
            for i, a in zip(sharers, part):
                alloc[i] += a
    return [min(a, f) for a, f in zip(alloc, footprints)]


def allocate_llc(
    capacity_bytes: float,
    pressures: list[float],
    footprints: list[float],
) -> list[float]:
    """Split LLC capacity by insertion pressure, capped by footprint.

    Args:
        capacity_bytes: Total shared-LLC capacity.
        pressures: Per-app insertion rates (lines/s or any common unit).
        footprints: Per-app maximum useful/occupiable bytes.

    Returns:
        Per-app allocated bytes; allocations sum to <= capacity and each
        lies in [MIN_SHARE_FRACTION * capacity (if pressure > 0), footprint].
    """
    n = len(pressures)
    if n == 0:
        return []
    if len(footprints) != n:
        raise EngineError("pressures and footprints must align")
    if capacity_bytes <= 0:
        raise EngineError("LLC capacity must be positive")
    p = np.asarray(pressures, dtype=np.float64)
    f = np.asarray(footprints, dtype=np.float64)
    if np.any(p < 0) or np.any(f <= 0):
        raise EngineError("pressures must be >= 0, footprints > 0")

    if p.sum() == 0:
        # Nobody inserts: split evenly up to footprints.
        alloc = np.minimum(f, capacity_bytes / n)
        return alloc.tolist()

    floor = MIN_SHARE_FRACTION * capacity_bytes
    alloc = np.zeros(n)
    active = p > 0
    # Waterfill: give proportional shares, cap at footprints, and
    # redistribute the freed capacity among uncapped apps.
    remaining = capacity_bytes
    todo = np.flatnonzero(active)
    capped = np.zeros(n, dtype=bool)
    for _ in range(n + 1):
        if not len(todo) or remaining <= 0:
            break
        weights = p[todo] / p[todo].sum()
        trial = weights * remaining
        caps = f[todo]
        over = trial >= caps
        if not over.any():
            alloc[todo] = trial
            break
        hit = todo[over]
        alloc[hit] = f[hit]
        capped[hit] = True
        remaining -= float(f[hit].sum())
        todo = todo[~over]
    # Enforce the LRU floor for active inserters (steal proportionally
    # from the largest shares).
    for i in np.flatnonzero(active):
        if alloc[i] < min(floor, f[i]):
            need = min(floor, f[i]) - alloc[i]
            donors = [j for j in np.flatnonzero(active) if j != i and alloc[j] > floor]
            pool = sum(alloc[j] - floor for j in donors)
            if pool > 0:
                take = min(need, pool)
                for j in donors:
                    alloc[j] -= take * (alloc[j] - floor) / pool
                alloc[i] += take
    return alloc.tolist()
