"""Experiment: thread scalability (Fig 2 and Table II).

Runs every application solo at 1..8 threads and reports the speedup
curve (execution-phase time only — the paper excludes the one-time
preprocessing, which the calibrated profiles likewise exclude) and the
Low/Medium/High classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.report import ascii_table
from repro.errors import ExperimentError
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.workloads.calibration import SUITES
from repro.workloads.registry import suite_of

#: Table II thresholds on the 8-thread speedup.
LOW_THRESHOLD = 2.5
HIGH_THRESHOLD = 5.5


class ScalabilityClass(Enum):
    """Table II's three categories."""

    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


def classify_speedup(speedup_at_max: float) -> ScalabilityClass:
    """Classify an 8-thread speedup into Table II's bands."""
    if speedup_at_max < 0:
        raise ExperimentError("speedup cannot be negative")
    if speedup_at_max < LOW_THRESHOLD:
        return ScalabilityClass.LOW
    if speedup_at_max < HIGH_THRESHOLD:
        return ScalabilityClass.MEDIUM
    return ScalabilityClass.HIGH


@dataclass
class ScalabilityResult:
    """Speedup curves plus classification for all apps."""

    max_threads: int
    curves: dict[str, dict[int, float]] = field(default_factory=dict)

    def speedup(self, app: str, threads: int) -> float:
        return self.curves[app][threads]

    def classification(self, app: str) -> ScalabilityClass:
        return classify_speedup(self.curves[app][self.max_threads])

    def table2(self) -> dict[str, dict[ScalabilityClass, list[str]]]:
        """Table II: suite -> class -> applications."""
        out: dict[str, dict[ScalabilityClass, list[str]]] = {}
        for app in self.curves:
            suite = suite_of(app)
            out.setdefault(suite, {c: [] for c in ScalabilityClass})
            out[suite][self.classification(app)].append(app)
        return out

    def render_fig2(self) -> str:
        """Fig 2 as one table: speedup per thread count per app."""
        threads = list(range(1, self.max_threads + 1))
        headers = ["suite", "app"] + [f"{t}T" for t in threads]
        rows = []
        for suite, members in SUITES.items():
            for app in members:
                if app in self.curves:
                    rows.append(
                        [suite, app] + [self.curves[app][t] for t in threads]
                    )
        return ascii_table(headers, rows, title="Fig 2: speedup vs thread count")

    def render_table2(self) -> str:
        """Table II rendering."""
        rows = []
        for suite, classes in self.table2().items():
            rows.append(
                [
                    suite,
                    ", ".join(sorted(classes[ScalabilityClass.LOW])) or "-",
                    ", ".join(sorted(classes[ScalabilityClass.MEDIUM])) or "-",
                    ", ".join(sorted(classes[ScalabilityClass.HIGH])) or "-",
                ]
            )
        return ascii_table(
            ["suite", "Low", "Medium", "High"],
            rows,
            title="Table II: thread scalability characterization",
        )


@register_runner("fig2", title="thread scalability curves", order=20)
class ScalabilityRunner(Runner):
    """Fig 2 through the session substrate (solo runs shared)."""

    def execute(self, session, *, max_threads: int = 8) -> ScalabilityResult:
        result = ScalabilityResult(max_threads=max_threads)
        for app in session.config.workloads:
            t1 = session.jitter("fig2", app, 1).measure(
                session.solo_runtime(app, threads=1)
            )
            curve: dict[int, float] = {}
            for t in range(1, max_threads + 1):
                rt = (
                    session.jitter("fig2", app, t).measure(
                        session.solo_runtime(app, threads=t)
                    )
                    if t > 1
                    else t1
                )
                curve[t] = t1 / rt
            result.curves[app] = curve
        return result

    def render(self, result: ScalabilityResult, **_) -> str:
        return result.render_fig2()


@register_runner("table2", title="Low/Medium/High scalability classes", order=21)
class ScalabilityClassRunner(Runner):
    """Table II: same measurement as Fig 2, rendered as classes."""

    def execute(self, session, *, max_threads: int = 8) -> ScalabilityResult:
        return session.run("fig2", max_threads=max_threads).result

    def render(self, result: ScalabilityResult, **_) -> str:
        return result.render_table2()
