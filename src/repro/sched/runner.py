"""The ``sched-replay`` campaign artifact: policies replayed head to head.

One registered runner replays a deterministic arrival trace through
each requested policy over identical fresh clusters, sharing one
:class:`~repro.sched.score.PlacementEvaluator` — so both policies score
(and are judged by) the very same cached measurements, and a campaign
that already ran the pairwise sweeps pays mostly cache hits.  The
result round-trips through the store like any figure: the trace
payload is part of the record, so a stored comparison replays
identically.

CLI: ``repro sched replay [--trace seed:S:N | FILE] [--policy P ...]``;
``repro run-all`` / ``repro campaign`` execute the argument-free
default (a 10-arrival seeded trace from the session's roster over two
machines) like every other extension artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SchedError
from repro.sched.classify import VICTIM_THRESHOLD
from repro.sched.scheduler import ReplayReport, replay_trace
from repro.sched.score import PlacementEvaluator
from repro.sched.trace import ArrivalTrace, parse_trace
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.tables import ascii_table

#: Default policies of a comparison, in presentation order.
DEFAULT_POLICIES = ("baseline", "interference")


@dataclass
class ReplayComparison:
    """The same trace replayed under several policies."""

    trace: ArrivalTrace
    machines: int
    slo: float
    reports: list[ReplayReport]

    def report(self, policy: str) -> ReplayReport:
        for r in self.reports:
            if r.policy == policy:
                return r
        raise SchedError(
            f"no replay for policy {policy!r}; have "
            f"{', '.join(r.policy for r in self.reports)}"
        )

    def render(self) -> str:
        rows = [
            [
                r.policy,
                len(r.admitted),
                r.rejections,
                r.violations,
                f"{r.p50_slowdown:.3f}",
                f"{r.p95_slowdown:.3f}",
                f"{r.mean_slowdown:.3f}",
                f"{r.utilization * 100:.1f}%",
                f"{r.sim_time_s:.1f}s",
            ]
            for r in self.reports
        ]
        table = ascii_table(
            [
                "policy", "admitted", "rejected", "SLO viol.",
                "p50", "p95", "mean", "util", "sim time",
            ],
            rows,
            title=(
                f"sched replay: {len(self.trace.arrivals)} arrival(s) over "
                f"{self.machines} machine(s), SLO {self.slo:.2f}x "
                f"(trace {self.trace.fingerprint})"
            ),
        )
        return table + "".join(r.render() for r in self.reports)


@register_runner("sched-replay")
class SchedReplayRunner(Runner):
    """Replay one arrival trace under each policy; the store doubles as
    the scheduler's warm cache, so repeated candidate scenarios are
    never re-simulated."""

    def execute(
        self,
        session,
        *,
        trace: "ArrivalTrace | str | None" = None,
        machines: int = 2,
        slo: float = VICTIM_THRESHOLD,
        policies: tuple[str, ...] = DEFAULT_POLICIES,
        arrivals: int = 10,
        threads: int = 2,
        departures: float = 0.0,
        replan: bool = False,
    ) -> ReplayComparison:
        if machines < 1:
            raise SchedError("machines must be >= 1")
        if not policies:
            raise SchedError("need at least one policy to replay")
        if isinstance(trace, str):
            trace = parse_trace(trace, session.config.workloads)
        if trace is None:
            trace = ArrivalTrace.synthetic(
                session.config.workloads,
                seed=session.config.seed,
                arrivals=arrivals,
                threads=threads,
            )
        if departures > 0:
            trace = trace.with_departures(
                fraction=departures, seed=session.config.seed
            )
        evaluator = PlacementEvaluator(session)
        reports = [
            replay_trace(
                trace, evaluator, machines=machines, policy=p, slo=slo,
                replan=replan,
            )
            for p in policies
        ]
        return ReplayComparison(
            trace=trace, machines=machines, slo=slo, reports=reports
        )

    def render(self, result: ReplayComparison, **_) -> str:
        return result.render()

    def encode(self, result: ReplayComparison) -> dict[str, Any]:
        return {
            "trace": result.trace.payload(),
            "machines": result.machines,
            "slo": result.slo,
            "reports": [r.payload() for r in result.reports],
        }

    def decode(self, payload: dict[str, Any]) -> ReplayComparison:
        return ReplayComparison(
            trace=ArrivalTrace.from_payload(payload["trace"]),
            machines=payload["machines"],
            slo=payload["slo"],
            reports=[ReplayReport.from_payload(r) for r in payload["reports"]],
        )
