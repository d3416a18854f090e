"""Automated findings extraction from a consolidation matrix.

Turns a Fig 5 matrix into the paper's Section V narrative: who the
offenders and victims are, which suites coexist, which pairings to
avoid — as data, so schedulers and reports can consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.core.consolidation import ConsolidationMatrix
from repro.sched.classify import PairClass
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.tables import ascii_table
from repro.workloads.registry import suite_of


@dataclass(frozen=True)
class AppRoleScores:
    """How one application behaves in consolidation."""

    app: str
    #: Mean slowdown this app suffers across all backgrounds (row mean).
    victim_score: float
    #: Mean slowdown this app inflicts across all foregrounds (col mean).
    offender_score: float
    #: Worst slowdown suffered and who caused it.
    worst_case: float
    worst_neighbour: str


@dataclass
class MatrixInsights:
    """Derived findings over a consolidation matrix."""

    matrix: ConsolidationMatrix
    roles: dict[str, AppRoleScores] = field(default_factory=dict)

    @staticmethod
    def derive(matrix: ConsolidationMatrix) -> "MatrixInsights":
        """Compute all role scores."""
        out = MatrixInsights(matrix=matrix)
        apps = matrix.workloads
        for app in apps:
            row = {bg: matrix.value(app, bg) for bg in apps if bg != app}
            col = [matrix.value(fg, app) for fg in apps if fg != app]
            worst_bg = max(row, key=row.get)
            out.roles[app] = AppRoleScores(
                app=app,
                victim_score=mean(row.values()),
                offender_score=mean(col),
                worst_case=row[worst_bg],
                worst_neighbour=worst_bg,
            )
        return out

    # -- rankings -------------------------------------------------------------

    def top_offenders(self, n: int = 5) -> list[str]:
        """Applications that hurt their co-runners the most."""
        return sorted(
            self.roles, key=lambda a: self.roles[a].offender_score, reverse=True
        )[:n]

    def top_victims(self, n: int = 5) -> list[str]:
        """Applications hurt the most by their co-runners."""
        return sorted(
            self.roles, key=lambda a: self.roles[a].victim_score, reverse=True
        )[:n]

    def harmless(self, *, limit: float = 1.05) -> list[str]:
        """Applications whose mean inflicted slowdown is below ``limit``."""
        return sorted(
            a for a, r in self.roles.items() if r.offender_score < limit
        )

    def suite_victimhood(self) -> dict[str, float]:
        """Mean victim score per suite (the paper: graph suites lead)."""
        by_suite: dict[str, list[float]] = {}
        for app, r in self.roles.items():
            by_suite.setdefault(suite_of(app), []).append(r.victim_score)
        return {s: mean(v) for s, v in by_suite.items()}

    def avoid_list(self) -> list[tuple[str, str]]:
        """Unordered Both-Victim pairs ("should definitely be avoided")."""
        apps = self.matrix.workloads
        out = []
        for i, a in enumerate(apps):
            for b in apps[i + 1 :]:
                if self.matrix.classify(a, b).relationship is PairClass.BOTH_VICTIM:
                    out.append((a, b))
        return out

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        rows = [
            [
                r.app,
                r.victim_score,
                r.offender_score,
                f"{r.worst_case:.2f}x by {r.worst_neighbour}",
            ]
            for r in sorted(
                self.roles.values(), key=lambda r: r.victim_score, reverse=True
            )
        ]
        table = ascii_table(
            ["app", "victim score", "offender score", "worst case"],
            rows,
            title="Consolidation roles (mean normalized time suffered / inflicted)",
        )
        lines = [
            table,
            "top offenders : " + ", ".join(self.top_offenders()),
            "top victims   : " + ", ".join(self.top_victims()),
            "harmless      : " + ", ".join(self.harmless()),
            "avoid pairs   : "
            + (", ".join(f"{a}+{b}" for a, b in self.avoid_list()) or "(none)"),
        ]
        return "\n".join(lines)


@register_runner("insights")
class InsightsRunner(Runner):
    """Matrix insights: reuses the session's Fig 5 record."""

    def execute(self, session) -> MatrixInsights:
        return MatrixInsights.derive(session.run("fig5").result)

    def render(self, result: MatrixInsights, **_) -> str:
        return result.render()
