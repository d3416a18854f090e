"""Experiment: provenance of interference (Section VI; Figs 7-8, Table IV).

Deep-dives into *why* victims slow down: the VTune-analogue attributes
CPI, L2_PCP, LLC MPKI and LL to each application's hot region, solo vs
co-running with chosen aggressors.

* Fig 7 — the five GeminiGraph apps against STREAM;
* Fig 8 — the same apps against the three real offenders (IRSmk,
  fotonik3d, CIFAR);
* Table IV — region-level profiles of P-PR's ``gather`` and fotonik3d's
  ``UUS`` under each other's offenders (and the harmless G-SSSP).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import ascii_table
from repro.engine.results import RegionMetrics
from repro.errors import ExperimentError
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import Scenario
from repro.tools.vtune import VtuneProfiler
from repro.workloads.registry import get_profile

#: Fig 7/8 foreground set.
GEMINI_APPS: tuple[str, ...] = ("G-SSSP", "G-PR", "G-CC", "G-BC", "G-BFS")
#: Fig 8's offender backgrounds.
OFFENDERS: tuple[str, ...] = ("IRSmk", "fotonik3d", "CIFAR")
#: Table IV's subjects: (fg app, region, backgrounds).
TABLE4_SUBJECTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("P-PR", "gather", ("IRSmk", "CIFAR", "fotonik3d")),
    ("fotonik3d", "UUS", ("IRSmk", "CIFAR", "G-SSSP")),
)


@dataclass(frozen=True)
class MetricQuad:
    """The four metrics the paper profiles (Section VI-A)."""

    cpi: float
    l2_pcp: float
    llc_mpki: float
    ll: float

    @staticmethod
    def from_region(rm: RegionMetrics) -> "MetricQuad":
        return MetricQuad(cpi=rm.cpi, l2_pcp=rm.l2_pcp, llc_mpki=rm.llc_mpki, ll=rm.ll)


@dataclass
class ProvenanceResult:
    """Metric quads per (fg app, background) cell; 'solo' = no neighbour."""

    #: (app, background-or-'solo') -> hot-region metrics.
    cells: dict[tuple[str, str], MetricQuad] = field(default_factory=dict)
    #: app -> profiled region name.
    regions: dict[str, str] = field(default_factory=dict)

    def quad(self, app: str, background: str = "solo") -> MetricQuad:
        try:
            return self.cells[(app, background)]
        except KeyError:
            raise ExperimentError(f"no cell ({app}, {background})") from None

    def inflation(self, app: str, background: str) -> MetricQuad:
        """Co-run / solo ratios for the four metrics."""
        s, c = self.quad(app), self.quad(app, background)
        return MetricQuad(
            cpi=c.cpi / s.cpi if s.cpi else float("inf"),
            l2_pcp=c.l2_pcp / s.l2_pcp if s.l2_pcp else float("inf"),
            llc_mpki=c.llc_mpki / s.llc_mpki if s.llc_mpki else float("inf"),
            ll=c.ll / s.ll if s.ll else float("inf"),
        )

    def render(self, title: str) -> str:
        headers = ["app (region)", "neighbour", "CPI", "L2_PCP", "LLC MPKI", "LL"]
        rows = []
        for (app, bg), q in sorted(self.cells.items()):
            rows.append(
                [f"{app} ({self.regions[app]})", bg, q.cpi,
                 round(100 * q.l2_pcp, 1), q.llc_mpki, q.ll]
            )
        return ascii_table(headers, rows, title=title)


def _profile_cells(
    session,
    subjects: tuple[tuple[str, str, tuple[str, ...]], ...],
) -> ProvenanceResult:
    """Profile hot regions solo and under each background, through the
    session's shared solo/scenario caches (Fig 8's offender co-runs are
    free once the Fig 5 sweep ran)."""
    threads = session.config.threads
    vtune = VtuneProfiler()
    result = ProvenanceResult()
    for app, region, backgrounds in subjects:
        solo = session.solo(app, threads=threads)
        if region not in solo.metrics.by_region:
            raise ExperimentError(f"{app} has no region {region!r}")
        result.regions[app] = region
        result.cells[(app, "solo")] = MetricQuad.from_region(
            solo.metrics.by_region[region]
        )
        for bg in backgrounds:
            co = session.run_scenario(Scenario.pair(app, bg, threads=threads))
            result.cells[(app, bg)] = MetricQuad.from_region(
                co.result.fg.by_region[region]
            )
        # Sanity: the profiled region must be the app's hotspot.
        top = vtune.top_hotspot(solo.metrics)
        if top.region != region and top.cycles_share > 0.6:
            raise ExperimentError(
                f"{app}: hotspot is {top.region!r}, expected {region!r}"
            )
    return result


def _gemini_subjects(backgrounds: tuple[str, ...]) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
    return tuple(
        (app, get_profile(app).dominant_region.region.name, backgrounds)
        for app in GEMINI_APPS
    )


@register_runner("fig7", title="Gemini metrics under STREAM", order=80)
class GeminiVsStreamRunner(Runner):
    """Fig 7: GeminiGraph applications co-running with STREAM."""

    def execute(self, session) -> ProvenanceResult:
        return _profile_cells(session, _gemini_subjects(("Stream",)))

    def render(self, result: ProvenanceResult, **_) -> str:
        return result.render("Fig 7: Gemini applications co-running with Stream")


@register_runner("fig8", title="Gemini metrics under real offenders", order=81)
class GeminiVsOffendersRunner(Runner):
    """Fig 8: GeminiGraph applications vs IRSmk / fotonik3d / CIFAR."""

    def execute(self, session) -> ProvenanceResult:
        return _profile_cells(session, _gemini_subjects(OFFENDERS))

    def render(self, result: ProvenanceResult, **_) -> str:
        return result.render("Fig 8: Gemini applications co-running with offenders")


@register_runner("table4", title="region-level profiles (gather / UUS)", order=90)
class Table4Runner(Runner):
    """Table IV: P-PR (gather) and fotonik3d (UUS) region profiles."""

    def execute(self, session) -> ProvenanceResult:
        return _profile_cells(session, TABLE4_SUBJECTS)

    def render(self, result: ProvenanceResult, **_) -> str:
        return result.render("Table IV: profiling results of P-PR and fotonik3d")
