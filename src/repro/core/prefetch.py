"""Experiment: prefetcher sensitivity (Fig 4).

Runs each application at the fixed 4-thread configuration with all four
hardware prefetchers enabled vs disabled (the MSR 0x1A4 experiment) and
reports T_on / T_off — the paper's normalization, where values below
1.0 mean the application is slowed down when prefetchers are off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.report import ascii_table
from repro.errors import ExperimentError
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.workloads.calibration import SUITES
from repro.workloads.registry import suite_of

#: Apps at or below this ratio count as prefetcher-sensitive (the paper
#: calls out a 1.18x slowdown, i.e. ratio ~0.85).
SENSITIVE_THRESHOLD = 0.88


@dataclass
class PrefetchResult:
    """T_on / T_off per application (Fig 4's bars)."""

    ratios: dict[str, float] = field(default_factory=dict)

    def sensitive_apps(self) -> list[str]:
        """Applications meaningfully hurt by disabling prefetchers."""
        return sorted(a for a, r in self.ratios.items() if r <= SENSITIVE_THRESHOLD)

    def render_fig4(self) -> str:
        headers = ["suite", "app", "T_on/T_off", "sensitive"]
        rows = []
        for suite, members in SUITES.items():
            for app in members:
                if app in self.ratios:
                    r = self.ratios[app]
                    rows.append([suite, app, r, "yes" if r <= SENSITIVE_THRESHOLD else ""])
        for app, r in self.ratios.items():
            if suite_of(app) == "mini-benchmarks":
                rows.append(["mini-benchmarks", app, r, "yes" if r <= SENSITIVE_THRESHOLD else ""])
        return ascii_table(
            headers, rows,
            title="Fig 4: slowdown if prefetchers are turned off (T_on/T_off)",
        )


@register_runner("fig4", title="prefetcher sensitivity (MSR 0x1A4)", order=40)
class PrefetchSensitivityRunner(Runner):
    """Fig 4 through the session substrate: the prefetcher-off engine is
    a second engine configuration with its own fingerprinted solo cache."""

    def execute(self, session) -> PrefetchResult:
        config = session.config
        if not config.engine_config.prefetchers_on:
            raise ExperimentError("baseline config must have prefetchers enabled")
        off_config = replace(config.engine_config, prefetchers_on=False)
        result = PrefetchResult()
        for app in config.workloads:
            t_on = session.jitter("fig4", app, "on").measure(
                session.solo_runtime(app, threads=config.threads)
            )
            t_off = session.jitter("fig4", app, "off").measure(
                session.solo_runtime(
                    app, threads=config.threads, engine_config=off_config
                )
            )
            result.ratios[app] = t_on / t_off if t_off > 0 else 1.0
        return result

    def render(self, result: PrefetchResult, **_) -> str:
        return result.render_fig4()
