"""Experiment: the consolidation energy/throughput trade-off.

The paper's Section I motivation, quantified: for a pair (A, B),
compare

* **time-shared** execution — A then B, each alone on the machine
  (the other half of the machine idle but powered);
* **consolidated** execution — A and B co-run 4+4 cores until both
  work amounts finish.

and report the energy saved and the slowdown paid.  Harmony pairs save
nearly the whole static-power overlap; Both-Victim pairs burn the
savings in stretched runtimes — the quantitative version of "Harmony
is the most preferable relationship" (Section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.machine.energy import EnergySpec, energy_of_window
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.session.scenario import Scenario
from repro.tables import ascii_table


@dataclass(frozen=True)
class EfficiencyRow:
    """One pair's time-shared vs consolidated comparison."""

    app_a: str
    app_b: str
    timeshared_seconds: float
    consolidated_seconds: float
    timeshared_joules: float
    consolidated_joules: float

    @property
    def energy_saving(self) -> float:
        """Fractional energy saved by consolidating (can be negative)."""
        if self.timeshared_joules == 0:
            return 0.0
        return 1.0 - self.consolidated_joules / self.timeshared_joules

    @property
    def makespan_change(self) -> float:
        """Consolidated / time-shared wall-clock (lower is better)."""
        if self.timeshared_seconds == 0:
            return 0.0
        return self.consolidated_seconds / self.timeshared_seconds


@dataclass
class EfficiencyResult:
    """Energy/throughput outcomes per evaluated pair."""

    rows: list[EfficiencyRow] = field(default_factory=list)

    def row(self, app_a: str, app_b: str) -> EfficiencyRow:
        for r in self.rows:
            if (r.app_a, r.app_b) == (app_a, app_b):
                return r
        raise KeyError((app_a, app_b))

    def render(self) -> str:
        headers = ["pair", "time-shared s", "consolidated s",
                   "makespan", "energy saving"]
        rows = [
            [f"{r.app_a}+{r.app_b}", r.timeshared_seconds, r.consolidated_seconds,
             f"{r.makespan_change:.2f}x", f"{100 * r.energy_saving:.1f}%"]
            for r in self.rows
        ]
        return ascii_table(
            headers, rows,
            title="Consolidation efficiency: time-shared vs co-run",
        )


@register_runner("efficiency")
class EfficiencyRunner(Runner):
    """Time-shared vs consolidated comparison through the session."""

    def execute(
        self,
        session,
        *,
        pairs: tuple[tuple[str, str], ...] | None = None,
        energy: EnergySpec | None = None,
    ) -> EfficiencyResult:
        config = session.config
        if pairs is None:
            apps = config.workloads
            pairs = tuple(
                (apps[i], apps[i + 1]) for i in range(0, len(apps) - 1, 2)
            )
        if not pairs:
            raise ExperimentError("need at least two workloads (--workloads a,b)")
        energy = energy if energy is not None else EnergySpec()
        result = EfficiencyResult()
        threads = config.threads
        for a, b in pairs:
            solo_a = session.solo(a, threads=threads)
            solo_b = session.solo(b, threads=threads)
            # Time-shared: A then B, each alone.
            ts_seconds = solo_a.runtime_s + solo_b.runtime_s
            ts_energy = energy_of_window(
                energy,
                duration_s=ts_seconds,
                busy_core_seconds=(solo_a.runtime_s + solo_b.runtime_s) * threads,
                bus_bytes=solo_a.metrics.total.bus_bytes + solo_b.metrics.total.bus_bytes,
            ).total_j

            # Consolidated: co-run; B's remainder finishes alone after A.
            fg, bg = session.run_scenario(Scenario.pair(a, b, threads=threads)).result.apps
            overlap = fg.runtime_s
            b_total_instr = solo_b.metrics.total.instructions
            b_done = min(bg.total.instructions, b_total_instr)
            b_rate_solo = session.solo_rate(b, threads=threads)
            tail = max(0.0, (b_total_instr - b_done) / b_rate_solo)
            co_seconds = overlap + tail
            co_bus_bytes = (
                fg.total.bus_bytes
                + bg.total.bus_bytes * (b_done / max(bg.total.instructions, 1.0))
                + solo_b.metrics.total.bus_bytes * (tail / max(solo_b.runtime_s, 1e-12))
            )
            co_energy = energy_of_window(
                energy,
                duration_s=co_seconds,
                busy_core_seconds=overlap * 2 * threads + tail * threads,
                bus_bytes=co_bus_bytes,
            ).total_j

            result.rows.append(
                EfficiencyRow(
                    app_a=a, app_b=b,
                    timeshared_seconds=ts_seconds,
                    consolidated_seconds=co_seconds,
                    timeshared_joules=ts_energy,
                    consolidated_joules=co_energy,
                )
            )
        return result

    def render(self, result: EfficiencyResult, **_) -> str:
        return result.render()
