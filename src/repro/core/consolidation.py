"""Experiment: the 625-pair consolidation sweep (Fig 5).

Every application is paired with every application (including itself),
foreground x background, 4+4 exclusive cores.  The background loops
for as long as the foreground runs; the cell value is the foreground's
execution time normalized to its solo run — exactly Fig 5's heat map.
The symmetric classification of Section V derives from the matrix:
pair (A, B)'s two slowdowns are cell (A, B) and cell (B, A).

The sweep runs through the :class:`~repro.session.session.Session`
substrate: solo references and co-runs are shared with every other
artifact, measurement jitter is keyed per cell, and the independent
matrix rows fan out over the session's executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import csv_table, text_heatmap
from repro.errors import ExperimentError
from repro.sched.classify import NWayVerdict, PairClass, classify_nway
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import ScenarioSet
from repro.session.session import ExperimentConfig, Jitter


@dataclass
class ConsolidationMatrix:
    """Fig 5: normalized foreground times for all fg x bg pairs."""

    workloads: tuple[str, ...]
    #: (foreground, background) -> normalized execution time.
    cells: dict[tuple[str, str], float] = field(default_factory=dict)

    def value(self, fg: str, bg: str) -> float:
        try:
            return self.cells[(fg, bg)]
        except KeyError:
            raise ExperimentError(f"no cell for fg={fg!r} bg={bg!r}") from None

    def classify(self, app_a: str, app_b: str) -> NWayVerdict:
        """Section V relationship of the unordered pair (A, B)."""
        return classify_nway(
            (app_a, app_b), (self.value(app_a, app_b), self.value(app_b, app_a))
        )

    def classification_counts(self) -> dict[PairClass, int]:
        """How many unordered pairs fall in each relationship."""
        counts = {c: 0 for c in PairClass}
        apps = self.workloads
        for i, a in enumerate(apps):
            for b in apps[i + 1 :]:
                counts[self.classify(a, b).relationship] += 1
        return counts

    def victims_of(self, offender: str, *, threshold: float = 1.5) -> list[str]:
        """Foreground apps slowed >= threshold by this background app."""
        return sorted(
            fg for fg in self.workloads
            if fg != offender and self.value(fg, offender) >= threshold
        )

    def friendly_backgrounds(self, *, limit: float = 1.1) -> list[str]:
        """Backgrounds that never slow any foreground beyond ``limit``
        (the paper's swaptions/nab/deepsjeng/blackscholes set)."""
        return sorted(
            bg for bg in self.workloads
            if all(self.value(fg, bg) <= limit for fg in self.workloads)
        )

    def render_fig5(self) -> str:
        return text_heatmap(
            self.cells, list(self.workloads), list(self.workloads)
        )

    def to_csv(self) -> str:
        headers = ["fg\\bg"] + list(self.workloads)
        rows = [
            [fg] + [self.cells[(fg, bg)] for bg in self.workloads]
            for fg in self.workloads
        ]
        return csv_table(headers, rows)


def cell_value(
    config: ExperimentConfig,
    fg: str,
    bg: str,
    *,
    fg_runtime_s: float,
    fg_solo_runtime_s: float,
    threads: int,
    bg_threads: int,
) -> float:
    """One Fig 5 cell: jittered co-run time normalized to the solo run.

    The jitter stream is keyed by the cell coordinates, so the value is
    identical whether the cell is computed in a serial loop, a worker
    process, or as part of a different foreground subset.
    """
    measured = Jitter.for_key(config, "cell", fg, bg, threads, bg_threads).measure(
        fg_runtime_s
    )
    return measured / fg_solo_runtime_s


@register_runner("fig5")
class ConsolidationRunner(Runner):
    """Fig 5 through the session substrate (subsets allowed).

    The matrix is one :class:`~repro.session.scenario.ScenarioSet`
    pairwise product; uncached cells fan out over the session executor
    through the generic scenario machinery and land in the shared
    scenario cache, so later artifacts (Table III, Figs 7-8) reuse them
    like any serial measurement.
    """

    def execute(
        self,
        session,
        *,
        foregrounds: tuple[str, ...] | None = None,
        backgrounds: tuple[str, ...] | None = None,
    ) -> ConsolidationMatrix:
        config = session.config
        fgs = tuple(foregrounds) if foregrounds is not None else config.workloads
        bgs = tuple(backgrounds) if backgrounds is not None else config.workloads
        matrix = ConsolidationMatrix(workloads=tuple(dict.fromkeys(fgs + bgs)))
        threads = config.threads
        # Foreground solo references resolve through the shared cache
        # (cell_value normalizes against them); background rates are
        # resolved on demand by the scenario planner, and only for
        # cells the caches do not already hold.
        fg_solos = {fg: session.solo_runtime(fg, threads=threads) for fg in fgs}
        sweep = ScenarioSet.pairwise(fgs, bgs, threads=threads)
        for scenario, sres in zip(sweep, session.run_scenarios(sweep)):
            fg, bg = (p.workload for p in scenario.placements)
            matrix.cells[(fg, bg)] = cell_value(
                config,
                fg,
                bg,
                fg_runtime_s=sres.result.fg.runtime_s,
                fg_solo_runtime_s=fg_solos[fg],
                threads=threads,
                bg_threads=threads,
            )
        return matrix

    def render(self, result: ConsolidationMatrix, *, csv: bool = False, **_) -> str:
        if csv:
            return result.to_csv()
        counts = result.classification_counts()
        return "\n".join(
            [
                result.render_fig5(),
                "pair relationships: "
                + ", ".join(f"{k.value}={v}" for k, v in counts.items()),
                "friendly backgrounds (<=1.1x to all): "
                + ", ".join(result.friendly_backgrounds()),
            ]
        )

    def encode(self, result: ConsolidationMatrix) -> dict:
        return {
            "workloads": list(result.workloads),
            "cells": [[fg, bg, v] for (fg, bg), v in result.cells.items()],
        }

    def decode(self, payload: dict) -> ConsolidationMatrix:
        matrix = ConsolidationMatrix(workloads=tuple(payload["workloads"]))
        matrix.cells = {(fg, bg): v for fg, bg, v in payload["cells"]}
        return matrix
