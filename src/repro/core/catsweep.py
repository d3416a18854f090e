"""CAT way-mask allocation sweep: the ``cat-sweep`` artifact.

Intel's Cache Allocation Technology partitions the shared LLC with
per-CLOS way bitmaps; the interesting question for a consolidation
scheduler is *where to draw the line*: every way handed to the
foreground protects its working set, every way handed back to the
background buys aggregate throughput.  This runner sweeps contiguous
two-way partitions of the machine's LLC (foreground takes the top
``k`` ways, background the remaining ``W - k``) alongside the three
global sharing policies as reference points, then reports the **Pareto
frontier** of foreground slowdown (lower is better) vs. background
throughput (higher is better).

Every point is an ordinary cacheable :class:`Scenario`, so the sweep
fans out over the session executor, lands in the store's scenario
tier under the session's *base* engine fingerprint (way masks live in
the scenario payload, not the engine config — ``store gc`` can never
orphan them), and re-renders from a warm store with zero simulations.

Beyond the classic contiguous pair sweep, the runner supports
**interleaved** (non-contiguous, way-striped) splits and **N >= 3**
layouts (one foreground vs several backgrounds sharing the remaining
ways) — the same :func:`way_partition` / :func:`equal_way_shares`
helpers the scheduler's departure re-planner uses to re-fence the
residents of a vacated machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import ascii_table
from repro.errors import ScenarioError
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import AppPlacement, Scenario


def contiguous_split(n_ways: int, fg_ways: int) -> tuple[int, int]:
    """The (fg, bg) bitmaps of a contiguous two-way partition: the
    foreground owns the top ``fg_ways`` ways, the background the rest
    (``contiguous_split(8, 4) == (0xF0, 0x0F)``)."""
    if not 1 <= fg_ways < n_ways:
        raise ScenarioError(
            f"fg_ways must lie in [1, {n_ways - 1}], got {fg_ways}"
        )
    bg_ways = n_ways - fg_ways
    return ((1 << fg_ways) - 1) << bg_ways, (1 << bg_ways) - 1


def interleaved_split(n_ways: int, fg_ways: int) -> tuple[int, int]:
    """The (fg, bg) bitmaps of a *non-contiguous* two-way partition:
    the foreground's ways are striped evenly across the cache index
    range (``interleaved_split(8, 4) == (0x55, 0xAA)``), which spreads
    both partitions over all set-index regions instead of fencing each
    into one contiguous block."""
    if not 1 <= fg_ways < n_ways:
        raise ScenarioError(
            f"fg_ways must lie in [1, {n_ways - 1}], got {fg_ways}"
        )
    fg_mask = 0
    for i in range(fg_ways):
        fg_mask |= 1 << (i * n_ways) // fg_ways
    return fg_mask, ((1 << n_ways) - 1) ^ fg_mask


def equal_way_shares(n_ways: int, parts: int) -> tuple[int, ...]:
    """``parts`` way counts as equal as integers allow (larger shares
    first), summing to ``n_ways`` — the share vector an N-way equal
    re-partition hands to :func:`way_partition`."""
    if parts < 1:
        raise ScenarioError(f"parts must be >= 1, got {parts}")
    if parts > n_ways:
        raise ScenarioError(
            f"cannot split {n_ways} way(s) into {parts} non-empty share(s)"
        )
    base, extra = divmod(n_ways, parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))


def way_partition(n_ways: int, shares: "tuple[int, ...] | list[int]") -> tuple[int, ...]:
    """Disjoint contiguous way bitmaps covering the whole LLC, one per
    share, first share on top (``way_partition(8, (4, 4)) ==
    contiguous_split(8, 4)``).  Generalizes the two-way split to the
    N-way layouts a multi-tenant re-partition needs."""
    shares = tuple(shares)
    if not shares or any(s < 1 for s in shares):
        raise ScenarioError(f"every share needs >= 1 way, got {shares}")
    if sum(shares) != n_ways:
        raise ScenarioError(
            f"shares {shares} must sum to the {n_ways} LLC ways"
        )
    masks: list[int] = []
    top = n_ways
    for s in shares:
        masks.append(((1 << s) - 1) << (top - s))
        top -= s
    return tuple(masks)


def _chunk_positions(mask: int, parts: int) -> tuple[int, ...]:
    """Split one bitmap's set positions into ``parts`` disjoint masks of
    near-equal population, highest ways first — how a (possibly
    non-contiguous) background region is shared among N backgrounds."""
    positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
    positions.reverse()
    shares = equal_way_shares(len(positions), parts)
    masks: list[int] = []
    taken = 0
    for s in shares:
        masks.append(sum(1 << p for p in positions[taken:taken + s]))
        taken += s
    return tuple(masks)


@dataclass(frozen=True)
class CatSweepPoint:
    """One swept allocation: a mask pair or a global-policy reference."""

    label: str
    #: Foreground / background way bitmaps (``None`` for policy points).
    #: With several backgrounds ``bg_mask`` is their union.
    fg_mask: int | None
    bg_mask: int | None
    #: Global LLC policy of a reference point (``None`` for mask points).
    llc_policy: str | None
    #: Foreground co-run time / foreground solo time.
    fg_slowdown: float
    #: Background progress relative to its solo rate (mean over
    #: backgrounds when there are several).
    bg_throughput: float
    #: Full per-app mask tuple (fg first) for N-way / non-contiguous
    #: layouts; ``None`` for classic pair points and policy references.
    masks: tuple[int, ...] | None = None

    @property
    def masked(self) -> bool:
        return self.fg_mask is not None


@dataclass
class CatSweepResult:
    """The full sweep plus its Pareto frontier."""

    fg: str
    bg: str
    threads: int
    #: Total LLC ways of the machine the sweep partitioned.
    n_ways: int
    points: list[CatSweepPoint] = field(default_factory=list)
    #: All backgrounds of an N-way sweep (``(bg,)`` for the classic pair).
    bgs: tuple[str, ...] = ()
    #: Mask layout swept: ``"contiguous"`` or ``"interleaved"``.
    layout: str = "contiguous"

    def point(self, label: str) -> CatSweepPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise KeyError(label)

    def pareto(self) -> list[CatSweepPoint]:
        """Non-dominated points: no other point is at least as good on
        both axes and strictly better on one."""
        out = []
        for p in self.points:
            dominated = any(
                q.fg_slowdown <= p.fg_slowdown
                and q.bg_throughput >= p.bg_throughput
                and (
                    q.fg_slowdown < p.fg_slowdown
                    or q.bg_throughput > p.bg_throughput
                )
                for q in self.points
            )
            if not dominated:
                out.append(p)
        return out

    def best_masked_vs_policy(self, policy: str = "pressure") -> float:
        """Foreground-slowdown headroom of the best mask split over a
        global policy (positive = partitioning protects the fg)."""
        ref = self.point(policy)
        best = min(
            (p for p in self.points if p.masked),
            key=lambda p: p.fg_slowdown,
        )
        return ref.fg_slowdown - best.fg_slowdown

    def render(self) -> str:
        frontier = {id(p) for p in self.pareto()}
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.label,
                    f"{p.fg_mask:#x}" if p.fg_mask is not None else "-",
                    f"{p.bg_mask:#x}" if p.bg_mask is not None else "-",
                    f"{p.fg_slowdown:.3f}",
                    f"{p.bg_throughput:.3f}",
                    "*" if id(p) in frontier else "",
                ]
            )
        table = ascii_table(
            ["allocation", "fg mask", "bg mask", "fg slowdown", "bg rate", "pareto"],
            rows,
            title=(
                f"CAT way-mask sweep: {self.fg}:{self.threads} vs "
                f"{self.bg}:{self.threads} over {self.n_ways} LLC ways"
            ),
        )
        headroom = self.best_masked_vs_policy("pressure")
        table += (
            f"best mask split beats 'pressure' by {headroom:+.3f}x fg slowdown; "
            f"{len(frontier)} Pareto point(s)\n"
        )
        return table


@register_runner(
    "cat-sweep",
    title="CAT way-mask allocation sweep with Pareto frontier (extension)",
    artifact=False,
    order=149,
)
class CatSweepRunner(Runner):
    """Sweep contiguous CAT partitions of the LLC for one fg/bg pair
    (plus the three global policies as reference points) and report the
    Pareto of fg slowdown vs. bg throughput."""

    def execute(
        self,
        session,
        *,
        fg: str | None = None,
        bg: str | None = None,
        threads: int | None = None,
        bgs: "tuple[str, ...] | list[str] | None" = None,
        layout: str = "contiguous",
    ) -> CatSweepResult:
        config = session.config
        fg = fg if fg is not None else config.workloads[0]
        if layout not in ("contiguous", "interleaved"):
            raise ScenarioError(
                f"unknown layout {layout!r}; use 'contiguous' or 'interleaved'"
            )
        bg_list = tuple(bgs) if bgs else (bg if bg is not None else "Stream",)
        bg = bg_list[0] if len(bg_list) == 1 else "+".join(bg_list)
        if threads is None:
            threads = max(
                1, min(config.threads, config.spec.n_slots // (1 + len(bg_list)))
            )
        if (1 + len(bg_list)) * threads > config.spec.n_slots:
            raise ScenarioError(
                f"{1 + len(bg_list)} apps x {threads} threads exceed "
                f"{config.spec.n_slots} slots"
            )
        n_ways = config.spec.llc_ways
        if n_ways < 1 + len(bg_list):
            raise ScenarioError(
                f"{1 + len(bg_list)} apps need at least that many of the "
                f"{n_ways} LLC ways"
            )
        split = contiguous_split if layout == "contiguous" else interleaved_split
        base = Scenario(
            (AppPlacement(fg, threads),)
            + tuple(AppPlacement(b, threads) for b in bg_list)
        )
        scenarios = [base.with_policy(p) for p in ("pressure", "even", "static")]
        labels = ["pressure", "even", "static"]
        mask_sets: list[tuple[int, ...] | None] = [None, None, None]
        prefix = "" if layout == "contiguous" else "i:"
        for k in range(1, n_ways - len(bg_list) + 1):
            fg_mask, bg_region = split(n_ways, k)
            masks = (fg_mask,) + _chunk_positions(bg_region, len(bg_list))
            scenarios.append(base.with_ways(list(masks)))
            labels.append(f"{prefix}{k}/{n_ways - k}")
            mask_sets.append(masks)
        result = CatSweepResult(
            fg=fg, bg=bg, threads=threads, n_ways=n_ways,
            bgs=bg_list, layout=layout,
        )
        plain_pair = len(bg_list) == 1 and layout == "contiguous"
        for label, s, masks, sres in zip(
            labels, scenarios, mask_sets, session.run_scenarios(scenarios)
        ):
            fg_place = s.placements[0]
            bg_places = s.placements[1:]
            bg_masks = [p.llc_ways for p in bg_places]
            bg_union = (
                None
                if bg_masks[0] is None
                else sum(m for m in bg_masks if m is not None)
            )
            rates = sres.bg_relative_rates[: len(bg_places)]
            result.points.append(
                CatSweepPoint(
                    label=label,
                    fg_mask=fg_place.llc_ways,
                    bg_mask=bg_union,
                    llc_policy=s.llc_policy,
                    fg_slowdown=sres.normalized_time,
                    bg_throughput=sum(rates) / len(rates),
                    # Pair points on the classic contiguous sweep keep the
                    # 6-element encoding (and the old payload identity).
                    masks=None if plain_pair else masks,
                )
            )
        return result

    def render(self, result: CatSweepResult, **_) -> str:
        return result.render()

    def encode(self, result: CatSweepResult) -> dict:
        # The 7th element (the full mask tuple) joins a point's row only
        # when set, so classic pair sweeps keep the legacy 6-element shape
        # and previously persisted records decode unchanged.
        out = {
            "fg": result.fg,
            "bg": result.bg,
            "threads": result.threads,
            "n_ways": result.n_ways,
            "points": [
                [p.label, p.fg_mask, p.bg_mask, p.llc_policy,
                 p.fg_slowdown, p.bg_throughput]
                + ([list(p.masks)] if p.masks is not None else [])
                for p in result.points
            ],
        }
        if result.bgs and (len(result.bgs) > 1 or result.layout != "contiguous"):
            out["bgs"] = list(result.bgs)
            out["layout"] = result.layout
        return out

    def decode(self, payload: dict) -> CatSweepResult:
        return CatSweepResult(
            fg=payload["fg"],
            bg=payload["bg"],
            threads=payload["threads"],
            n_ways=payload["n_ways"],
            bgs=tuple(payload.get("bgs", ())),
            layout=payload.get("layout", "contiguous"),
            points=[
                CatSweepPoint(
                    label=row[0],
                    fg_mask=row[1],
                    bg_mask=row[2],
                    llc_policy=row[3],
                    fg_slowdown=row[4],
                    bg_throughput=row[5],
                    masks=tuple(row[6]) if len(row) > 6 else None,
                )
                for row in payload["points"]
            ],
        )
