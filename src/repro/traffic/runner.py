"""The ``traffic-replay`` campaign artifact: a diurnal day per policy.

Where ``sched-replay`` answers "which policy wins on a memoryless
stream", ``traffic-replay`` answers the question the diurnal generator
exists for: *how does each policy hold up across the day* — peak-hour
pressure versus trough slack, bucketed per simulated trace hour.  One
seeded :class:`~repro.traffic.model.TrafficModel` day is generated
once, replayed through each policy over identical fresh clusters with
one shared :class:`~repro.sched.score.PlacementEvaluator` (the store is
the warm cache, so a warm campaign replays the whole day with zero
engine runs), and every report is sliced with
:meth:`~repro.sched.scheduler.ReplayReport.hourly` at the curve's
``sim_s_per_hour``.

CLI: ``repro traffic-replay [--traffic FILE | --seed S] [--hours H]
[--scale T] [--rate R] [--policy P ...]``; ``repro run-all`` / ``repro
campaign`` execute the argument-free default (a 24-hour business-hours
day over the session roster, two machines) like every other extension
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import TrafficError
from repro.sched.classify import VICTIM_THRESHOLD
from repro.sched.runner import DEFAULT_POLICIES
from repro.sched.scheduler import HourBucket, ReplayReport, replay_trace
from repro.sched.score import PlacementEvaluator
from repro.sched.trace import ArrivalTrace
from repro.session.base import Runner
from repro.session.registry import register_runner
from repro.tables import ascii_table
from repro.traffic.diurnal import DiurnalCurve
from repro.traffic.mix import WorkloadMix
from repro.traffic.model import DEFAULT_RATE_PER_HOUR, TrafficModel, load_model


@dataclass
class TrafficReplay:
    """One generated day replayed under several policies, by the hour."""

    model: TrafficModel
    seed: int
    hours: float
    trace: ArrivalTrace
    machines: int
    slo: float
    reports: list[ReplayReport]
    hourly: dict[str, list[HourBucket]]

    @property
    def bucket_s(self) -> float:
        return self.model.curve.sim_s_per_hour

    def report(self, policy: str) -> ReplayReport:
        for r in self.reports:
            if r.policy == policy:
                return r
        raise TrafficError(
            f"no replay for policy {policy!r}; have "
            f"{', '.join(r.policy for r in self.reports)}"
        )

    def buckets(self, policy: str) -> "list[HourBucket]":
        if policy not in self.hourly:
            raise TrafficError(
                f"no hourly buckets for policy {policy!r}; have "
                f"{', '.join(sorted(self.hourly))}"
            )
        return self.hourly[policy]

    def peak_trough(self, policy: str) -> "tuple[HourBucket, HourBucket]":
        """The busiest and quietest hour of a policy's day, by arrivals
        (earliest wins ties — deterministic across runs)."""
        buckets = self.buckets(policy)
        peak = max(buckets, key=lambda b: (b.arrivals, -b.index))
        trough = min(buckets, key=lambda b: (b.arrivals, b.index))
        return peak, trough

    def render(self) -> str:
        head_rows = []
        for r in self.reports:
            peak, trough = self.peak_trough(r.policy)
            head_rows.append(
                [
                    r.policy,
                    len(r.admitted),
                    r.rejections,
                    r.violations,
                    f"{r.p95_slowdown:.3f}",
                    f"{r.utilization * 100:.1f}%",
                    f"h{peak.index:02d}: {peak.arrivals} arr, "
                    f"p95 {peak.p95_slowdown:.3f}",
                    f"h{trough.index:02d}: {trough.arrivals} arr, "
                    f"p95 {trough.p95_slowdown:.3f}",
                ]
            )
        out = ascii_table(
            [
                "policy", "admitted", "rejected", "SLO viol.",
                "p95", "util", "peak hour", "trough hour",
            ],
            head_rows,
            title=(
                f"traffic replay: {len(self.trace.arrivals)} arrival(s) over "
                f"{self.hours:g} trace hour(s), {self.machines} machine(s), "
                f"SLO {self.slo:.2f}x, seed {self.seed} "
                f"(trace {self.trace.fingerprint})"
            ),
        )
        for r in self.reports:
            rows = [
                [
                    f"{b.index:02d}",
                    b.arrivals,
                    b.admitted,
                    b.rejected,
                    b.violations,
                    f"{b.p50_slowdown:.3f}" if b.admitted else "-",
                    f"{b.p95_slowdown:.3f}" if b.admitted else "-",
                    f"{b.utilization * 100:.1f}%",
                ]
                for b in self.buckets(r.policy)
            ]
            out += ascii_table(
                [
                    "hour", "arrivals", "admitted", "rejected",
                    "SLO viol.", "p50", "p95", "util",
                ],
                rows,
                title=f"by hour [{r.policy}] ({self.bucket_s:g} sim-s buckets)",
            )
        return out

    # -- round-trip ---------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        return {
            "model": self.model.payload(),
            "seed": self.seed,
            "hours": self.hours,
            "trace": self.trace.payload(),
            "machines": self.machines,
            "slo": self.slo,
            "reports": [r.payload() for r in self.reports],
            "hourly": {
                policy: [b.payload() for b in buckets]
                for policy, buckets in self.hourly.items()
            },
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "TrafficReplay":
        return TrafficReplay(
            model=TrafficModel.from_payload(payload["model"]),
            seed=payload["seed"],
            hours=payload["hours"],
            trace=ArrivalTrace.from_payload(payload["trace"]),
            machines=payload["machines"],
            slo=payload["slo"],
            reports=[ReplayReport.from_payload(r) for r in payload["reports"]],
            hourly={
                policy: [HourBucket.from_payload(b) for b in buckets]
                for policy, buckets in payload["hourly"].items()
            },
        )


@register_runner("traffic-replay")
class TrafficReplayRunner(Runner):
    """Generate one seeded diurnal day and replay it under each policy;
    the per-hour buckets expose the peak-vs-trough story a whole-day
    aggregate hides."""

    def execute(
        self,
        session,
        *,
        traffic: "str | None" = None,
        model: "TrafficModel | None" = None,
        seed: "int | None" = None,
        hours: "float | None" = None,
        scale: float = 60.0,
        rate: float = DEFAULT_RATE_PER_HOUR,
        departures: float = 0.0,
        machines: int = 2,
        slo: float = VICTIM_THRESHOLD,
        policies: tuple[str, ...] = DEFAULT_POLICIES,
        replan: bool = False,
    ) -> TrafficReplay:
        if machines < 1:
            raise TrafficError("machines must be >= 1")
        if not policies:
            raise TrafficError("need at least one policy to replay")
        if traffic is not None and model is not None:
            raise TrafficError("pass either a traffic file or a model, not both")
        if traffic is not None:
            model, seed, hours = load_model(traffic, seed=seed, hours=hours)
        if model is None:
            model = TrafficModel(
                mix=WorkloadMix.uniform(session.config.workloads),
                curve=DiurnalCurve.business_hours(scale),
                rate_per_hour=rate,
                departures=departures,
            )
        if seed is None:
            seed = session.config.seed
        if hours is None:
            hours = 24.0
        trace = model.generate(seed=seed, hours=hours)
        evaluator = PlacementEvaluator(session)
        reports = [
            replay_trace(
                trace, evaluator, machines=machines, policy=p, slo=slo,
                replan=replan,
            )
            for p in policies
        ]
        bucket_s = model.curve.sim_s_per_hour
        return TrafficReplay(
            model=model,
            seed=seed,
            hours=hours,
            trace=trace,
            machines=machines,
            slo=slo,
            reports=reports,
            hourly={r.policy: r.hourly(bucket_s) for r in reports},
        )

    def render(self, result: TrafficReplay, **_) -> str:
        return result.render()

    def encode(self, result: TrafficReplay) -> dict[str, Any]:
        return result.payload()

    def decode(self, payload: dict[str, Any]) -> TrafficReplay:
        return TrafficReplay.from_payload(payload)
