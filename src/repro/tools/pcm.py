"""``pcm-memory`` analogue: fixed-granularity bandwidth sampling.

The paper measures bandwidth with Intel PCM 2.8's ``pcm-memory`` at
10-second granularity (Section III-C).  :class:`PcmMemoryMonitor`
reproduces that observable: it resamples an engine timeline (or any
stream of :class:`~repro.engine.results.BandwidthSample`) onto a fixed
grid and reports per-application and total bus bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.results import BandwidthSample
from repro.errors import ExperimentError
from repro.units import GB, MB


@dataclass(frozen=True)
class PcmSample:
    """One resampled observation."""

    time_s: float
    bytes_per_s: dict[str, float]

    @property
    def total_bytes_per_s(self) -> float:
        return sum(self.bytes_per_s.values())


@dataclass
class PcmReport:
    """Resampled bandwidth observations over one run."""

    granularity_s: float
    samples: list[PcmSample] = field(default_factory=list)

    @property
    def apps(self) -> list[str]:
        names: list[str] = []
        for s in self.samples:
            for n in s.bytes_per_s:
                if n not in names:
                    names.append(n)
        return names

    def series(self, app: str) -> np.ndarray:
        """Bandwidth series (bytes/s) for one app."""
        return np.array([s.bytes_per_s.get(app, 0.0) for s in self.samples])

    def average_bytes_per_s(self, app: str | None = None) -> float:
        """Time-averaged bandwidth for one app (None = machine total)."""
        if not self.samples:
            return 0.0
        if app is None:
            return float(np.mean([s.total_bytes_per_s for s in self.samples]))
        return float(self.series(app).mean())

    def average_gb_s(self, app: str | None = None) -> float:
        """Average bandwidth in PCM's GB/s units (Table III)."""
        return self.average_bytes_per_s(app) / GB

    def table(self) -> str:
        """pcm-memory-style text table (MB/s columns per app + system)."""
        apps = self.apps
        header = f"{'time(s)':>8} " + " ".join(f"{a[:12]:>12}" for a in apps) + f" {'System':>12}"
        lines = [header, "-" * len(header)]
        for s in self.samples:
            cols = " ".join(f"{s.bytes_per_s.get(a, 0.0) / MB:>12.0f}" for a in apps)
            lines.append(f"{s.time_s:>8.1f} {cols} {s.total_bytes_per_s / MB:>12.0f}")
        return "\n".join(lines)


class PcmMemoryMonitor:
    """Resampler from engine timelines to fixed-granularity reports."""

    def __init__(self, granularity_s: float = 10.0) -> None:
        if granularity_s <= 0:
            raise ExperimentError("granularity must be positive")
        self.granularity_s = granularity_s

    def observe(self, timeline: list[BandwidthSample]) -> PcmReport:
        """Resample a timeline onto the fixed grid.

        Engine timeline samples carry the bandwidth of the *interval
        ending* at their timestamp; resampling takes the time-weighted
        mean inside each grid cell.
        """
        report = PcmReport(granularity_s=self.granularity_s)
        if not timeline:
            return report
        apps: list[str] = []
        for s in timeline:
            for n in s.bytes_per_s:
                if n not in apps:
                    apps.append(n)
        end = timeline[-1].time_s
        grid = np.arange(self.granularity_s, end + self.granularity_s, self.granularity_s)
        prev_t = 0.0
        idx = 0
        for cell_end in grid:
            cell_start = cell_end - self.granularity_s
            acc = {a: 0.0 for a in apps}
            weight = 0.0
            while idx < len(timeline) and timeline[idx].time_s <= cell_end + 1e-12:
                s = timeline[idx]
                dt = s.time_s - prev_t
                if dt > 0 and s.time_s > cell_start:
                    for a in apps:
                        acc[a] += s.bytes_per_s.get(a, 0.0) * dt
                    weight += dt
                prev_t = s.time_s
                idx += 1
            if weight > 0:
                report.samples.append(
                    PcmSample(
                        time_s=float(min(cell_end, end)),
                        bytes_per_s={a: acc[a] / weight for a in apps},
                    )
                )
        return report
