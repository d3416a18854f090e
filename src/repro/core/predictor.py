"""Bubble-Up-style interference prediction (extension).

The paper's related work (Mars et al., Bubble-Up, MICRO'11) predicts a
pair's slowdown *without co-running the pair*: each application is
characterized once against a tunable synthetic memory "bubble", giving

* a **sensitivity curve** — the app's slowdown as a function of bubble
  pressure, and
* a **pressure score** — the bubble level that reproduces the app's
  impact on a fixed reporter.

The predicted slowdown of (fg, bg) is ``sensitivity_fg(pressure_bg)``.
With N applications this costs O(N) characterizations instead of O(N^2)
co-runs.  ``evaluate`` scores the prediction against the engine's full
Fig 5 matrix — reproducing the methodology the paper positions itself
against, on top of this repo's substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.consolidation import ConsolidationMatrix
from repro.core.experiment import ExperimentConfig, SoloCache
from repro.errors import ExperimentError
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import AppPlacement, Scenario
from repro.trace.mrc import MissRatioCurve
from repro.units import KiB, MiB
from repro.workloads.base import CodeRegion, RegionProfile, WorkloadProfile
from repro.workloads.registry import get_profile

#: Default bubble pressure grid (0 = idle neighbour, 1 = STREAM-class).
DEFAULT_LEVELS: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def bubble_profile(level: float, *, kinstr: float = 2.0e8) -> WorkloadProfile:
    """The tunable memory balloon at ``level`` in [0, 1].

    Scales both bandwidth appetite (L2 MPKI) and LLC footprint, the two
    pressure dimensions the paper's interference analysis identifies.
    """
    if not (0.0 <= level <= 1.0):
        raise ExperimentError(f"bubble level must be in [0, 1], got {level}")
    mpki = 0.05 + 40.0 * level
    footprint = 64 * KiB + level * 40 * MiB
    return WorkloadProfile(
        name=f"bubble[{level:.2f}]",
        suite="synthetic",
        total_kinstr=kinstr,
        regions=(
            RegionProfile(
                region=CodeRegion("balloon", "bubble.c", 10, 40),
                weight=1.0,
                ipc_core=2.0,
                l2_mpki=mpki,
                mrc=MissRatioCurve.constant(0.9),
                regularity=0.8,
                mlp=8.0,
                write_fraction=0.3,
                footprint_bytes=footprint,
            ),
        ),
    )


@dataclass
class SensitivityCurve:
    """An application's slowdown vs bubble pressure."""

    app: str
    levels: tuple[float, ...]
    slowdowns: tuple[float, ...]

    def slowdown_at(self, level: float) -> float:
        """Interpolated slowdown at a pressure level."""
        return float(np.interp(level, self.levels, self.slowdowns))

    def pressure_for(self, slowdown: float) -> float:
        """Inverse lookup: the *smallest* level producing a slowdown.

        Sensitivity curves saturate once the bubble fills the bus, so
        the inverse of the flat tail is taken at its left edge.
        """
        s = np.asarray(self.slowdowns)
        if slowdown <= s[0]:
            return self.levels[0]
        if slowdown > s[-1]:
            return self.levels[-1]
        idx = int(np.searchsorted(s, slowdown, side="left"))
        s0, s1 = s[idx - 1], s[idx]
        l0, l1 = self.levels[idx - 1], self.levels[idx]
        if s1 == s0:
            return float(l0)
        return float(l0 + (slowdown - s0) / (s1 - s0) * (l1 - l0))


#: Solo-rate sentinel for the balloon background: its own progress is
#: meaningless, so the rate reference is an arbitrary large constant
#: (it never influences the foreground's measured time).
_BUBBLE_RATE = 1e9


def _sensitivity_scenario(
    app_placement: AppPlacement, level: float, threads: int
) -> Scenario:
    """(app vs balloon-at-level) — in-band profile, hence uncacheable,
    exactly the pre-redesign behaviour of the predictor's co-runs."""
    balloon = bubble_profile(level)
    return Scenario(
        (
            app_placement,
            AppPlacement(
                balloon.name, threads, profile=balloon,
                solo_rate_override=_BUBBLE_RATE,
            ),
        )
    )


@dataclass
class BubbleUpPredictor:
    """O(N) characterization, O(1) per-pair prediction."""

    config: ExperimentConfig
    levels: tuple[float, ...] = DEFAULT_LEVELS
    #: The reporter used to score pressure: a mid-sensitivity bubble
    #: consumer (level 0.5 bubble is its own reporter by default).
    reporter: WorkloadProfile | None = None
    sensitivity: dict[str, SensitivityCurve] = field(default_factory=dict)
    pressure: dict[str, float] = field(default_factory=dict)
    _reporter_curve: SensitivityCurve | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.levels) < 2 or sorted(self.levels) != list(self.levels):
            raise ExperimentError("levels must be ascending, >= 2 entries")
        if self.reporter is None:
            self.reporter = get_profile("G-BFS")

    # -- characterization ---------------------------------------------------

    def fit(
        self,
        apps: tuple[str, ...] | None = None,
        *,
        session=None,
    ) -> "BubbleUpPredictor":
        """Characterize sensitivity and pressure for all apps.

        Pass a :class:`~repro.session.session.Session` to measure
        through the declarative scenario machinery: every balloon
        co-run becomes an (uncacheable, in-band-profile) 2-app
        :class:`~repro.session.scenario.Scenario`, the solo baselines
        resolve through the session's shared cache, and the
        fine-grained cells are solved in one batch fan-out over the
        session executor.  Without a session a private engine + cache is
        built, as before.
        """
        apps = apps if apps is not None else self.config.workloads
        threads = self.config.threads
        if session is not None:
            return self._fit_scenarios(apps, session)
        engine = self.config.make_engine()
        cache = SoloCache(engine)

        def curve_for(profile: WorkloadProfile, name: str) -> SensitivityCurve:
            solo = cache.get(profile.name, threads=threads, profile=profile)
            slows = []
            for level in self.levels:
                if level == 0.0:
                    slows.append(1.0)
                    continue
                res = engine.co_run(
                    profile, bubble_profile(level), threads=threads,
                    fg_solo_runtime_s=solo.runtime_s, bg_solo_rate=_BUBBLE_RATE,
                )
                slows.append(res.normalized_time)
            # Enforce monotonicity (tiny fixed-point wiggles).
            mono = np.maximum.accumulate(slows)
            return SensitivityCurve(app=name, levels=self.levels, slowdowns=tuple(mono))

        self._reporter_curve = curve_for(self.reporter, self.reporter.name)
        rep_solo = cache.get(self.reporter.name, threads=threads, profile=self.reporter)
        for app in apps:
            profile = get_profile(app)
            self.sensitivity[app] = curve_for(profile, app)
            # Pressure: how hard does `app` squeeze the reporter?
            res = engine.co_run(
                self.reporter, profile, threads=threads,
                fg_solo_runtime_s=rep_solo.runtime_s,
                bg_solo_rate=cache.instruction_rate(app, threads=threads),
            )
            self.pressure[app] = self._reporter_curve.pressure_for(res.normalized_time)
        return self

    def _fit_scenarios(self, apps: tuple[str, ...], session) -> "BubbleUpPredictor":
        """Session path: one flat scenario sweep."""
        threads = self.config.threads
        reporter_seat = AppPlacement(self.reporter.name, threads, profile=self.reporter)
        nz_levels = [lv for lv in self.levels if lv != 0.0]
        scenarios: list[Scenario] = [
            _sensitivity_scenario(reporter_seat, lv, threads) for lv in nz_levels
        ]
        for app in apps:
            seat = AppPlacement(app, threads)
            scenarios.extend(
                _sensitivity_scenario(seat, lv, threads) for lv in nz_levels
            )
            # Pressure probe: how hard does `app` squeeze the reporter?
            scenarios.append(Scenario((reporter_seat, seat)))
        results = session.run_scenarios(scenarios)

        def curve(name: str, head: list) -> SensitivityCurve:
            slows, i = [], 0
            for level in self.levels:
                if level == 0.0:
                    slows.append(1.0)
                else:
                    slows.append(head[i].normalized_time)
                    i += 1
            # Enforce monotonicity (tiny fixed-point wiggles).
            mono = np.maximum.accumulate(slows)
            return SensitivityCurve(app=name, levels=self.levels, slowdowns=tuple(mono))

        k = len(nz_levels)
        self._reporter_curve = curve(self.reporter.name, results[:k])
        pos = k
        for app in apps:
            self.sensitivity[app] = curve(app, results[pos:pos + k])
            pos += k
            self.pressure[app] = self._reporter_curve.pressure_for(
                results[pos].normalized_time
            )
            pos += 1
        return self

    # -- prediction -----------------------------------------------------------

    def predict(self, fg: str, bg: str) -> float:
        """Predicted normalized execution time of fg with bg looping."""
        try:
            curve = self.sensitivity[fg]
            level = self.pressure[bg]
        except KeyError as missing:
            raise ExperimentError(f"{missing} was not fitted") from None
        return curve.slowdown_at(level)

    def predict_matrix(self, apps: tuple[str, ...] | None = None) -> dict[tuple[str, str], float]:
        """Predicted Fig 5 matrix over fitted apps."""
        apps = apps if apps is not None else tuple(self.sensitivity)
        return {(fg, bg): self.predict(fg, bg) for fg in apps for bg in apps}

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, truth: ConsolidationMatrix) -> dict[str, float]:
        """Score predictions against a ground-truth matrix.

        Returns mean absolute error, the fraction of cells within 10%,
        and the Spearman rank correlation over all cells.
        """
        from scipy.stats import spearmanr

        pred, real = [], []
        for fg in truth.workloads:
            for bg in truth.workloads:
                if fg in self.sensitivity and bg in self.pressure:
                    pred.append(self.predict(fg, bg))
                    real.append(truth.value(fg, bg))
        if not pred:
            raise ExperimentError("no overlapping cells to evaluate")
        pred_a, real_a = np.asarray(pred), np.asarray(real)
        err = np.abs(pred_a - real_a)
        rho = float(spearmanr(pred_a, real_a).statistic)
        return {
            "cells": float(len(pred)),
            "mae": float(err.mean()),
            "within_10pct": float((err <= 0.1 * real_a).mean()),
            "rank_correlation": rho,
        }


@dataclass
class PredictionReport:
    """Bubble-Up evaluation: accuracy scores + per-app pressure."""

    scores: dict[str, float]
    pressure: dict[str, float]

    def render(self) -> str:
        lines = ["Bubble-Up predictor vs engine ground truth:"]
        lines += [f"  {k}: {v:.3f}" for k, v in self.scores.items()]
        lines.append(
            "pressure scores: "
            + ", ".join(
                f"{a}={p:.2f}"
                for a, p in sorted(self.pressure.items(), key=lambda kv: -kv[1])
            )
        )
        return "\n".join(lines)


@register_runner(
    "predict",
    title="Bubble-Up prediction vs engine ground truth (extension)",
    artifact=False,
    order=120,
)
class PredictorRunner(Runner):
    """Fit the O(N) predictor and score it against the session's Fig 5."""

    def execute(self, session) -> PredictionReport:
        predictor = BubbleUpPredictor(config=session.config).fit(session=session)
        truth = session.run("fig5").result
        return PredictionReport(
            scores=predictor.evaluate(truth),
            pressure=dict(predictor.pressure),
        )

    def render(self, result: PredictionReport, **_) -> str:
        return result.render()
