"""Experiment: solo memory-bandwidth consumption (Fig 3).

Measures each application's bus bandwidth with the PCM monitor at 1, 4
and 8 threads, exactly the three configurations Fig 3 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.tables import ascii_table
from repro.tools.pcm import PcmMemoryMonitor
from repro.units import MB
from repro.workloads.calibration import SUITES
from repro.workloads.registry import suite_of

#: Thread counts Fig 3 plots.
FIG3_THREADS: tuple[int, ...] = (1, 4, 8)


@dataclass
class BandwidthResult:
    """Per-app average bandwidth (bytes/s) per thread count."""

    bandwidth: dict[str, dict[int, float]] = field(default_factory=dict)

    def mb_s(self, app: str, threads: int) -> float:
        """Fig 3's unit: MB/s."""
        return self.bandwidth[app][threads] / MB

    def render_fig3(self) -> str:
        headers = ["suite", "app"] + [f"{t}-thread MB/s" for t in FIG3_THREADS]
        rows = []
        for suite, members in SUITES.items():
            for app in members:
                if app in self.bandwidth:
                    rows.append(
                        [suite, app] + [round(self.mb_s(app, t)) for t in FIG3_THREADS]
                    )
        for app in self.bandwidth:
            if suite_of(app) == "mini-benchmarks":
                rows.append(
                    ["mini-benchmarks", app]
                    + [round(self.mb_s(app, t)) for t in FIG3_THREADS]
                )
        return ascii_table(
            headers, rows, title="Fig 3: memory bandwidth of each application"
        )


@register_runner("fig3")
class BandwidthSweepRunner(Runner):
    """Fig 3 through the session substrate (solo runs shared)."""

    def execute(
        self,
        session,
        *,
        threads: tuple[int, ...] = FIG3_THREADS,
        pcm_granularity_s: float = 10.0,
    ) -> BandwidthResult:
        monitor = PcmMemoryMonitor(granularity_s=pcm_granularity_s)
        result = BandwidthResult()
        for app in session.config.workloads:
            per_threads: dict[int, float] = {}
            for t in threads:
                solo = session.solo(app, threads=t)
                report = monitor.observe(solo.timeline)
                bw = report.average_bytes_per_s(app)
                if bw == 0.0:  # run shorter than one PCM window: use exact
                    bw = solo.metrics.avg_bandwidth_bytes
                per_threads[t] = bw
            result.bandwidth[app] = per_threads
        return result

    def render(self, result: BandwidthResult, **_) -> str:
        return result.render_fig3()
