"""Experiment: bandwidth of problematic co-running pairs (Table III).

The paper picks five Victim-Offender / Both-Victim pairs and compares
the pair's combined PCM bandwidth with each member's solo bandwidth;
the finding is that every pair consumes *less* than the sum of its
members' solo bandwidths (the bus is the shared bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import CoRunResult
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import Scenario
from repro.tables import ascii_table
from repro.tools.pcm import PcmMemoryMonitor
from repro.units import GB

#: Table III's five pairs (A, B); B is the background member.
TABLE3_PAIRS: tuple[tuple[str, str], ...] = (
    ("CIFAR", "fotonik3d"),
    ("IRSmk", "fotonik3d"),
    ("G-CC", "fotonik3d"),
    ("G-CC", "IRSmk"),
    ("G-CC", "CIFAR"),
)


@dataclass(frozen=True)
class PairBandwidthRow:
    """One Table III row (all values GB/s)."""

    app_a: str
    app_b: str
    pair_bandwidth: float
    solo_a: float
    solo_b: float

    @property
    def below_sum(self) -> bool:
        """The paper's invariant: pair < solo_a + solo_b."""
        return self.pair_bandwidth < self.solo_a + self.solo_b


@dataclass
class PairBandwidthResult:
    """Table III."""

    rows: list[PairBandwidthRow] = field(default_factory=list)

    def row(self, app_a: str, app_b: str) -> PairBandwidthRow:
        for r in self.rows:
            if (r.app_a, r.app_b) == (app_a, app_b):
                return r
        raise KeyError((app_a, app_b))

    def render_table3(self) -> str:
        headers = ["pair", "pair GB/s", "A solo GB/s", "B solo GB/s", "< sum"]
        rows = [
            [
                f"{r.app_a}(A) with {r.app_b}(B)",
                r.pair_bandwidth,
                r.solo_a,
                r.solo_b,
                "yes" if r.below_sum else "NO",
            ]
            for r in self.rows
        ]
        return ascii_table(
            headers, rows,
            title="Table III: bandwidth consumption of specific co-running pairs",
        )


def _pair_row(
    co: CoRunResult,
    *,
    app_a: str,
    app_b: str,
    solo_a_bw: float,
    solo_b_bw: float,
    pcm_granularity_s: float,
) -> PairBandwidthRow:
    """Reduce one co-run to a Table III row (identical in worker/parent)."""
    report = PcmMemoryMonitor(granularity_s=pcm_granularity_s).observe(co.timeline)
    pair_bw = report.average_bytes_per_s(None)
    if pair_bw == 0.0:  # run shorter than one PCM window
        pair_bw = co.fg.avg_bandwidth_bytes + co.bg.avg_bandwidth_bytes
    return PairBandwidthRow(
        app_a=app_a,
        app_b=app_b,
        pair_bandwidth=pair_bw / GB,
        solo_a=solo_a_bw / GB,
        solo_b=solo_b_bw / GB,
    )


@register_runner("table3")
class PairBandwidthRunner(Runner):
    """Table III through the session substrate.

    Each pair is a 2-app :class:`~repro.session.scenario.Scenario`:
    the co-runs hit the session's co-run cache when Fig 5 already swept
    them, otherwise the uncached pairs fan out over the executor via
    the generic scenario machinery.
    """

    def execute(
        self,
        session,
        *,
        pairs: tuple[tuple[str, str], ...] = TABLE3_PAIRS,
        pcm_granularity_s: float = 10.0,
    ) -> PairBandwidthResult:
        config = session.config
        threads = config.threads
        result = PairBandwidthResult()
        solos = {
            app: session.solo(app, threads=threads)
            for pair in pairs
            for app in pair
        }
        scenarios = [Scenario.pair(a, b, threads=threads) for a, b in pairs]
        for (a, b), sres in zip(pairs, session.run_scenarios(scenarios)):
            result.rows.append(
                _pair_row(
                    sres.result.to_corun(),
                    app_a=a,
                    app_b=b,
                    solo_a_bw=solos[a].metrics.avg_bandwidth_bytes,
                    solo_b_bw=solos[b].metrics.avg_bandwidth_bytes,
                    pcm_granularity_s=pcm_granularity_s,
                )
            )
        return result

    def render(self, result: PairBandwidthResult, **_) -> str:
        return result.render_table3()
