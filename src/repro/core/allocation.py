"""Experiment: asymmetric core-allocation sweep (extension).

The paper fixes 4+4 cores per pair ("fair sharing setup", Section V)
and notes that its solo analysis "can help choose the right
configuration" — this experiment closes that loop.  For one pair it
sweeps every split of the 8 cores (1+7 ... 7+1) and reports, per split:

* the foreground slowdown vs its *same-thread-count* solo run (so the
  interference effect is isolated from the parallelism change);
* the background's relative progress rate;
* a weighted-speedup throughput metric (sum of each side's progress
  relative to its own 4-thread solo).

For a victim/offender pair the sweep shows the policy lever: shrinking
the offender's core share buys the victim back far more than
proportionally, because cores are only one of the three contended
resources (the offender's bandwidth pressure scales with its threads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import Scenario
from repro.tables import ascii_table


@dataclass(frozen=True)
class AllocationPoint:
    """Outcome of one core split."""

    fg_threads: int
    bg_threads: int
    #: fg co-run time / fg solo time at the same thread count.
    fg_slowdown: float
    #: bg instruction rate / bg solo rate at the same thread count.
    bg_relative_rate: float
    #: fg progress rate / fg 4T-solo rate + bg progress / bg 4T-solo rate.
    weighted_speedup: float


@dataclass
class AllocationSweep:
    """All splits for one (fg, bg) pair."""

    fg: str
    bg: str
    points: list[AllocationPoint] = field(default_factory=list)

    def point(self, fg_threads: int) -> AllocationPoint:
        for p in self.points:
            if p.fg_threads == fg_threads:
                return p
        raise ExperimentError(f"no split with fg_threads={fg_threads}")

    def best_split(self) -> AllocationPoint:
        """The split maximizing weighted speedup."""
        return max(self.points, key=lambda p: p.weighted_speedup)

    def render(self) -> str:
        headers = ["split (fg+bg)", "fg slowdown", "bg rel. rate", "weighted speedup"]
        rows = [
            [f"{p.fg_threads}+{p.bg_threads}", p.fg_slowdown,
             p.bg_relative_rate, p.weighted_speedup]
            for p in self.points
        ]
        return ascii_table(
            headers, rows,
            title=f"Core-allocation sweep: {self.fg} (fg) vs {self.bg} (bg)",
        )


@register_runner("allocation")
class AllocationSweepRunner(Runner):
    """Core-split sweep through the session substrate: every split is a
    2-app :class:`~repro.session.scenario.Scenario` with asymmetric
    thread counts; the per-split solo references land in the shared
    cache and the independent splits (7 on the paper's 8-core socket)
    fan out over the session executor."""

    def execute(self, session, *, fg: str | None = None, bg: str | None = None) -> AllocationSweep:
        config = session.config
        if fg is None or bg is None:
            if len(config.workloads) < 2:
                raise ExperimentError("need exactly two workloads (--workloads fg,bg)")
            fg = fg if fg is not None else config.workloads[0]
            bg = bg if bg is not None else config.workloads[1]
        n_cores = config.spec.n_cores
        sweep = AllocationSweep(fg=fg, bg=bg)
        fg_ref_rate = session.solo_rate(fg, threads=4)
        bg_ref_rate = session.solo_rate(bg, threads=4)
        splits = [(fg_t, n_cores - fg_t) for fg_t in range(1, n_cores)]
        scenarios = [
            Scenario.pair(fg, bg, threads=fg_t, bg_threads=bg_t)
            for fg_t, bg_t in splits
        ]
        for (fg_t, bg_t), sres in zip(splits, session.run_scenarios(scenarios)):
            res = sres.result
            fg_app, bg_app = res.apps
            fg_rate = fg_app.total.instructions / fg_app.runtime_s
            bg_rate = bg_app.total.instructions / fg_app.runtime_s
            sweep.points.append(
                AllocationPoint(
                    fg_threads=fg_t,
                    bg_threads=bg_t,
                    fg_slowdown=res.normalized_time,
                    bg_relative_rate=res.bg_relative_rates[0],
                    weighted_speedup=fg_rate / fg_ref_rate + bg_rate / bg_ref_rate,
                )
            )
        return sweep

    def render(self, result: AllocationSweep, **_) -> str:
        best = result.best_split()
        return (
            result.render()
            + f"best split: {best.fg_threads}+{best.bg_threads} "
            f"(weighted speedup {best.weighted_speedup:.2f})"
        )
