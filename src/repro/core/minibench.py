"""Experiment: co-running with the mini-benchmarks (Fig 6a / Fig 6b).

Each of the 25 applications runs in the foreground with Bandit or
STREAM looping in the background on the other 4 cores.  Fig 6 plots the
normalized *speedup* (solo time / co-run time, <= 1.0); the paper's
headline numbers: Bandit leaves apps at 0.77-1.0 (Gemini average 0.82,
PowerGraph 0.93) while STREAM drags the overall average to 0.61 and
Gemini+PowerGraph to ~208% runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.errors import ExperimentError
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.tables import ascii_table
from repro.workloads.calibration import SUITES
from repro.workloads.registry import suite_of

MINI_BENCH_BACKGROUNDS: tuple[str, ...] = ("Bandit", "Stream")


@dataclass
class MiniBenchResult:
    """Normalized speedups (solo/co-run) per app per mini-benchmark."""

    #: background name -> app -> speedup (<= ~1.0).
    speedups: dict[str, dict[str, float]] = field(default_factory=dict)

    def speedup(self, app: str, background: str) -> float:
        return self.speedups[background][app]

    def suite_mean(self, suite: str, background: str) -> float:
        """Mean normalized speedup of one suite under one background."""
        vals = [
            v for app, v in self.speedups[background].items()
            if suite_of(app) == suite
        ]
        if not vals:
            raise ExperimentError(f"no apps from suite {suite!r}")
        return mean(vals)

    def overall_mean(self, background: str) -> float:
        return mean(self.speedups[background].values())

    def render_fig6(self) -> str:
        apps = list(self.speedups[MINI_BENCH_BACKGROUNDS[0]])
        headers = ["suite", "app"] + [f"vs {b}" for b in MINI_BENCH_BACKGROUNDS]
        rows = []
        for suite, members in SUITES.items():
            for app in members:
                if app in apps:
                    rows.append(
                        [suite, app]
                        + [self.speedups[b][app] for b in MINI_BENCH_BACKGROUNDS]
                    )
        return ascii_table(
            headers, rows,
            title="Fig 6: normalized speedup co-running with mini-benchmarks",
        )


@register_runner("fig6")
class MiniBenchRunner(Runner):
    """Fig 6: a consolidation sweep against the two mini-benchmarks.

    Delegates to the Fig 5 runner through the session, so solo
    references are shared and the cells fan out over the executor.
    """

    def execute(self, session) -> MiniBenchResult:
        config = session.config
        matrix = session.run(
            "fig5",
            foregrounds=config.workloads,
            backgrounds=MINI_BENCH_BACKGROUNDS,
        ).result
        result = MiniBenchResult()
        for bg in MINI_BENCH_BACKGROUNDS:
            result.speedups[bg] = {
                fg: 1.0 / matrix.value(fg, bg) for fg in config.workloads
            }
        return result

    def render(self, result: MiniBenchResult, **_) -> str:
        out = [result.render_fig6()]
        for bg in MINI_BENCH_BACKGROUNDS:
            out.append(
                f"mean normalized speedup vs {bg}: {result.overall_mean(bg):.2f} "
                f"(Gemini {result.suite_mean('GeminiGraph', bg):.2f}, "
                f"PowerGraph {result.suite_mean('PowerGraph', bg):.2f})"
            )
        return "\n".join(out)
