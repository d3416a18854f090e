"""The event-driven scheduler and its deterministic replay harness.

:class:`Scheduler` is the online decision loop: per arrival it asks
its :class:`~repro.sched.policy.PlacementPolicy` for a candidate
layout (scored through the :class:`~repro.sched.score.PlacementEvaluator`)
and applies the admitted layout to the cluster; departures evict and —
when a machine drops to one resident — deterministically clear its
partitions.  Every decision is appended to a serializable log.

:func:`replay_trace` runs an :class:`~repro.sched.trace.ArrivalTrace`
through one policy over a fresh cluster and *simulates time*: an
admitted tenant brings ``solo_s`` seconds of solo work, and under its
current layout that work drains at ``1 / slowdown`` of wall-time — so
a bad placement stretches residency, which holds slots longer, which
degrades later arrivals.  The loop advances to the next arrival,
explicit departure or projected completion (re-scoring layouts
whenever membership changes; the evaluator memo and the shared caches
make the steady intervals free) and accounts:

* per-tenant **achieved slowdown** (residency / solo work) and peak
  interval slowdown,
* **SLO violations** — a tenant whose interval slowdown ever reaches
  the threshold,
* **rejections**, and time-weighted machine **utilization**.

Everything derives from the trace and the session config; no clocks,
no ambient randomness.  The resulting :class:`ReplayReport` payload is
byte-identical across runs, processes and warm/cold stores — which is
what lets the ``sched-replay`` artifact live in the campaign manifest
like any figure.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import SchedError
from repro.sched.classify import VICTIM_THRESHOLD
from repro.sched.cluster import Cluster, Tenant
from repro.sched.policy import (
    Decision,
    PlacementPolicy,
    ReplanDecision,
    decision_from_payload,
    enumerate_candidates,
    enumerate_layouts,
    get_policy,
)
from repro.sched.score import PlacementEvaluator
from repro.sched.trace import ArrivalTrace
from repro.tables import ascii_table
from repro.telemetry.tracer import get_tracer
from repro.workloads.registry import list_workloads

logger = logging.getLogger(__name__)

#: Work-remaining epsilon: below this many solo-seconds a tenant is done.
_EPS = 1e-9


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) — a pure-python
    match of the usual definition, 0.0 on an empty sample."""
    vs = sorted(values)
    if not vs:
        return 0.0
    pos = (len(vs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vs) - 1)
    frac = pos - lo
    return vs[lo] * (1.0 - frac) + vs[hi] * frac


class Scheduler:
    """Online decision loop over one cluster, one policy."""

    def __init__(
        self,
        cluster: Cluster,
        policy: PlacementPolicy,
        evaluator: PlacementEvaluator,
        *,
        slo: float = VICTIM_THRESHOLD,
        replan: bool = False,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.evaluator = evaluator
        self.slo = slo
        #: Re-plan the vacated machine on every departure (see
        #: :meth:`departure`); off by default so pre-existing replays
        #: keep their byte-identical decision logs.
        self.replan = replan
        #: Every decision made, in event order (admissions interleaved
        #: with any departure-triggered re-plans).
        self.decisions: list[Decision | ReplanDecision] = []

    def arrival(self, tenant: Tenant, *, time_s: float = 0.0) -> Decision:
        """Decide one arrival; admitted layouts are applied (residents
        re-partitioned, the tenant seated with its assigned mask/pins).

        Telemetry: one ``sched.decide`` span per arrival, tagged with
        the tenant, its workload and the admit/reject outcome.  The
        span only observes — the decision log stays byte-identical with
        tracing on or off.

        A tenant whose workload has no calibrated profile raises
        :class:`~repro.errors.SchedError` before anything is decided:
        the log and the cluster stay as they were.
        """
        if tenant.workload not in list_workloads():
            raise SchedError(f"unknown workload {tenant.workload!r}")
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "sched.decide",
                tenant=tenant.tenant,
                workload=tenant.workload,
                threads=tenant.threads,
            ) as sp:
                decision, candidate = self.policy.decide(
                    self.cluster, tenant, self.evaluator, slo=self.slo, time_s=time_s
                )
                sp.tag("admitted", decision.admitted)
                if decision.machine is not None:
                    sp.tag("machine", decision.machine)
        else:
            decision, candidate = self.policy.decide(
                self.cluster, tenant, self.evaluator, slo=self.slo, time_s=time_s
            )
        logger.debug(
            "decide %s (%s:%d): %s",
            tenant.tenant,
            tenant.workload,
            tenant.threads,
            "admit on %s" % decision.machine if decision.admitted else "reject",
        )
        if decision.admitted and candidate is not None:
            machine = self.cluster.machine(candidate.machine)
            machine.apply_layout(candidate.assignments())
            seat = candidate.arrival_placement
            machine.admit(
                replace(
                    tenant,
                    arrival_s=time_s,
                    llc_ways=seat.llc_ways,
                    pinning=seat.pinning,
                )
            )
        self.decisions.append(decision)
        return decision

    def departure(self, tenant_id: str, *, time_s: float = 0.0) -> Tenant:
        """Evict a resident tenant (explicit departure or completion).

        With :attr:`replan` on, the vacated machine is then re-planned
        incrementally: its residents are re-partitioned when a strictly
        cleaner layout exists, and the worst-off resident migrates to
        another machine when it is at/over the SLO there and a clean
        seat exists elsewhere.  Every action is logged as a
        :class:`ReplanDecision`; everything is scored through the same
        evaluator (and therefore the same warm store) as admissions.
        """
        machine = self.cluster.find(tenant_id)
        if machine is None:
            raise SchedError(f"departure of unknown tenant {tenant_id!r}")
        gone = machine.evict(tenant_id)
        if self.replan:
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span(
                    "sched.replan", machine=machine.name, trigger=tenant_id
                ) as sp:
                    n = len(self.decisions)
                    self._replan(machine, tenant_id, time_s=time_s)
                    sp.tag("actions", len(self.decisions) - n)
            else:
                self._replan(machine, tenant_id, time_s=time_s)
        return gone

    # -- departure re-planning ----------------------------------------------

    def _score(self, machine) -> tuple[float, ...]:
        return self.evaluator.slowdowns(machine.spec, machine.placements())

    @staticmethod
    def _rank(slowdowns: "tuple[float, ...]") -> tuple[float, float]:
        """Layout quality, smaller is better: (worst, mean) slowdown."""
        return (max(slowdowns), sum(slowdowns) / len(slowdowns))

    def _replan(self, machine, trigger: str, *, time_s: float) -> None:
        self._repartition(machine, trigger, time_s=time_s)
        if self._migrate(machine, trigger, time_s=time_s):
            # The source lost a resident: its partitions may now be
            # stale too (e.g. the migrant's fenced-off ways go unused).
            self._repartition(machine, trigger, time_s=time_s)

    def _repartition(self, machine, trigger: str, *, time_s: float) -> bool:
        """Redraw the vacated machine's masks/pins when a strictly
        cleaner resident-only layout exists.  Strictness is what keeps
        this idempotent: the current layout (or its equal) never wins,
        so a no-op departure logs nothing and replays stay canonical."""
        layouts = enumerate_layouts(machine)
        if not layouts:
            return False
        before = self._score(machine)
        current = self._rank(before)
        layout_slowdowns = self.evaluator.slowdowns_many(
            [(machine.spec, lay.placements) for lay in layouts]
        )
        scored = [
            (self._rank(sd), i, lay)
            for i, (lay, sd) in enumerate(zip(layouts, layout_slowdowns))
        ]
        best_rank, _, best = min(scored, key=lambda row: (row[0], row[1]))
        if best_rank >= current:
            return False
        machine.apply_layout(best.assignments())
        after = self._score(machine)
        self.decisions.append(
            ReplanDecision(
                time_s=time_s,
                policy=self.policy.name,
                trigger=trigger,
                action="repartition",
                machine=machine.name,
                target=None,
                tenant=None,
                variant=best.variant,
                tenants=best.tenants,
                before=before,
                after=after,
                reason="cleaner-layout",
            )
        )
        return True

    def _migrate(self, machine, trigger: str, *, time_s: float) -> bool:
        """Move the worst-off resident to a clean seat on another
        machine — only when it is at/over the SLO where it sits (the
        situation arrival-time admission can no longer fix) and the
        move is strictly better for it with nobody pushed to the SLO
        at the destination."""
        before = self._score(machine)
        if not before or max(before) < self.slo:
            return False
        residents = machine.residents()
        worst_i = max(range(len(before)), key=lambda i: before[i])
        mover = residents[worst_i]
        scored = []
        away = [
            cand
            for cand in enumerate_candidates(self.cluster, mover.unpartitioned())
            if cand.machine != machine.name
        ]
        away_slowdowns = self.evaluator.slowdowns_many(
            [(self.cluster.machine(cand.machine).spec, cand.placements) for cand in away]
        )
        for i, (cand, slowdowns) in enumerate(zip(away, away_slowdowns)):
            if any(s >= self.slo for s in slowdowns):
                continue
            if slowdowns[-1] >= before[worst_i]:
                continue
            scored.append((self._rank(slowdowns), i, cand, slowdowns))
        if not scored:
            return False
        _, _, best, predicted = min(scored, key=lambda row: (row[0], row[1]))
        machine.evict(mover.tenant)
        target = self.cluster.machine(best.machine)
        target.apply_layout(best.assignments())
        seat = best.arrival_placement
        target.admit(
            replace(mover, llc_ways=seat.llc_ways, pinning=seat.pinning)
        )
        self.decisions.append(
            ReplanDecision(
                time_s=time_s,
                policy=self.policy.name,
                trigger=trigger,
                action="migrate",
                machine=machine.name,
                target=best.machine,
                tenant=mover.tenant,
                variant=best.variant,
                tenants=best.tenants,
                before=before,
                after=predicted,
                reason="slo-relief",
            )
        )
        return True


@dataclass(frozen=True)
class TenantOutcome:
    """What one trace arrival experienced end to end."""

    tenant: str
    workload: str
    threads: int
    #: ``"completed"``, ``"evicted"`` (explicit departure with work
    #: left) or ``"rejected"``.
    status: str
    machine: str | None
    arrival_s: float
    end_s: float
    solo_s: float
    #: Residency / solo work for completions; work-weighted mean
    #: interval slowdown for evictions; 0.0 for rejections.
    achieved_slowdown: float
    peak_slowdown: float
    violated: bool

    @property
    def admitted(self) -> bool:
        return self.status != "rejected"

    def payload(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "workload": self.workload,
            "threads": self.threads,
            "status": self.status,
            "machine": self.machine,
            "arrival_s": self.arrival_s,
            "end_s": self.end_s,
            "solo_s": self.solo_s,
            "achieved_slowdown": self.achieved_slowdown,
            "peak_slowdown": self.peak_slowdown,
            "violated": self.violated,
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "TenantOutcome":
        return TenantOutcome(**payload)


@dataclass(frozen=True)
class HourBucket:
    """One simulated-hour slice of a replay: the arrivals that landed in
    it (aggregated by arrival time) plus the bucket's time-weighted
    utilization (aggregated by residency overlap, so one long tenant
    contributes to every bucket it spans)."""

    index: int
    start_s: float
    end_s: float
    arrivals: int
    admitted: int
    rejected: int
    violations: int
    p50_slowdown: float
    p95_slowdown: float
    mean_slowdown: float
    utilization: float

    def payload(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "violations": self.violations,
            "p50_slowdown": self.p50_slowdown,
            "p95_slowdown": self.p95_slowdown,
            "mean_slowdown": self.mean_slowdown,
            "utilization": self.utilization,
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "HourBucket":
        return HourBucket(**payload)


@dataclass
class ReplayReport:
    """One policy's full replay: decisions, outcomes, aggregates."""

    policy: str
    slo: float
    machines: tuple[str, ...]
    total_slots: int
    trace_fingerprint: str
    decisions: "list[Decision | ReplanDecision]"
    outcomes: list[TenantOutcome]
    sim_time_s: float
    #: Time-weighted occupied-slot fraction over the whole replay.
    utilization: float

    # -- aggregates ---------------------------------------------------------

    @property
    def admitted(self) -> list[TenantOutcome]:
        return [o for o in self.outcomes if o.admitted]

    @property
    def rejections(self) -> int:
        return sum(1 for o in self.outcomes if not o.admitted)

    @property
    def violations(self) -> int:
        """Tenants whose interval slowdown ever reached the SLO."""
        return sum(1 for o in self.admitted if o.violated)

    @property
    def replans(self) -> int:
        """Departure-triggered re-planning actions in the decision log."""
        return sum(1 for d in self.decisions if isinstance(d, ReplanDecision))

    def slowdown_percentile(self, q: float) -> float:
        return percentile([o.achieved_slowdown for o in self.admitted], q)

    @property
    def p50_slowdown(self) -> float:
        return self.slowdown_percentile(0.50)

    @property
    def p95_slowdown(self) -> float:
        return self.slowdown_percentile(0.95)

    @property
    def mean_slowdown(self) -> float:
        adm = self.admitted
        if not adm:
            return 0.0
        return sum(o.achieved_slowdown for o in adm) / len(adm)

    def hourly(self, bucket_s: float) -> "list[HourBucket]":
        """Slice the replay into ``bucket_s``-second buckets (one per
        simulated trace hour for a diurnal day).  Arrival-keyed counts
        (admissions, rejections, violations, slowdown percentiles) land
        in the bucket of the tenant's arrival; utilization is the
        residency-overlap area ``Σ threads × overlap`` over the bucket's
        slot-seconds, which reconstructs the driver's global
        ``used_slots`` accounting exactly (``Machine.used_slots`` is the
        sum of resident threads), so the time-weighted mean of the
        buckets equals the report's headline ``utilization``.  The last
        bucket is clipped to ``sim_time_s``.  Pure post-processing — a
        stored report buckets identically to a live one."""
        if bucket_s <= 0:
            raise SchedError("bucket_s must be > 0")
        span = max(self.sim_time_s, 0.0)
        n = max(1, math.ceil(span / bucket_s)) if span > 0 else 1
        by_bucket: list[list[TenantOutcome]] = [[] for _ in range(n)]
        for o in self.outcomes:
            idx = min(int(o.arrival_s // bucket_s), n - 1)
            by_bucket[idx].append(o)
        buckets: list[HourBucket] = []
        for i in range(n):
            start = i * bucket_s
            end = min((i + 1) * bucket_s, span) if span > 0 else bucket_s
            width = max(end - start, 0.0)
            area = 0.0
            if width > 0 and self.total_slots > 0:
                for o in self.outcomes:
                    if not o.admitted:
                        continue
                    overlap = min(o.end_s, end) - max(o.arrival_s, start)
                    if overlap > 0:
                        area += o.threads * overlap
            outs = by_bucket[i]
            adm = [o for o in outs if o.admitted]
            slowdowns = [o.achieved_slowdown for o in adm]
            buckets.append(
                HourBucket(
                    index=i,
                    start_s=start,
                    end_s=end,
                    arrivals=len(outs),
                    admitted=len(adm),
                    rejected=len(outs) - len(adm),
                    violations=sum(1 for o in adm if o.violated),
                    p50_slowdown=percentile(slowdowns, 0.50),
                    p95_slowdown=percentile(slowdowns, 0.95),
                    mean_slowdown=(
                        sum(slowdowns) / len(slowdowns) if slowdowns else 0.0
                    ),
                    utilization=(
                        area / (self.total_slots * width) if width > 0 else 0.0
                    ),
                )
            )
        return buckets

    # -- serialization ------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "slo": self.slo,
            "machines": list(self.machines),
            "total_slots": self.total_slots,
            "trace_fingerprint": self.trace_fingerprint,
            "decisions": [d.payload() for d in self.decisions],
            "outcomes": [o.payload() for o in self.outcomes],
            "sim_time_s": self.sim_time_s,
            "utilization": self.utilization,
            "summary": {
                "admitted": len(self.admitted),
                "rejected": self.rejections,
                "violations": self.violations,
                "replans": self.replans,
                "p50_slowdown": self.p50_slowdown,
                "p95_slowdown": self.p95_slowdown,
                "mean_slowdown": self.mean_slowdown,
            },
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "ReplayReport":
        return ReplayReport(
            policy=payload["policy"],
            slo=payload["slo"],
            machines=tuple(payload["machines"]),
            total_slots=payload["total_slots"],
            trace_fingerprint=payload["trace_fingerprint"],
            decisions=[decision_from_payload(d) for d in payload["decisions"]],
            outcomes=[TenantOutcome.from_payload(o) for o in payload["outcomes"]],
            sim_time_s=payload["sim_time_s"],
            utilization=payload["utilization"],
        )

    def decision_log(self) -> str:
        """The canonical decision log: one JSON line per decision —
        byte-identical for identical (trace, config, policy)."""
        return "\n".join(
            json.dumps(d.payload(), sort_keys=True) for d in self.decisions
        )

    def render(self) -> str:
        rows = [
            [
                o.tenant,
                o.workload,
                o.machine if o.machine is not None else "-",
                o.status,
                f"{o.achieved_slowdown:.3f}" if o.admitted else "-",
                f"{o.peak_slowdown:.3f}" if o.admitted else "-",
                "yes" if o.violated else "",
            ]
            for o in self.outcomes
        ]
        table = ascii_table(
            ["tenant", "workload", "machine", "status", "achieved", "peak", "SLO hit"],
            rows,
            title=(
                f"Replay [{self.policy}] over {len(self.machines)} machine(s), "
                f"SLO {self.slo:.2f}x"
            ),
        )
        replans = f", {self.replans} replan(s)" if self.replans else ""
        return table + (
            f"{len(self.admitted)} admitted / {self.rejections} rejected, "
            f"{self.violations} SLO violation(s){replans}; slowdown p50 "
            f"{self.p50_slowdown:.3f}x p95 {self.p95_slowdown:.3f}x mean "
            f"{self.mean_slowdown:.3f}x; utilization "
            f"{self.utilization * 100:.1f}% over {self.sim_time_s:.1f}s\n"
        )


@dataclass
class _Active:
    """Book-keeping for one resident tenant during a replay."""

    tenant: Tenant
    machine: str
    remaining_s: float
    peak: float = 1.0
    violated: bool = False


def replay_trace(
    trace: ArrivalTrace,
    evaluator: PlacementEvaluator,
    *,
    machines: int = 2,
    policy: str = "interference",
    slo: float = VICTIM_THRESHOLD,
    cluster: Cluster | None = None,
    replan: bool = False,
) -> ReplayReport:
    """Replay a trace through one policy over a fresh cluster (or the
    given one) and simulate the tenants' lifetimes.  See the module
    docstring for the time model; ``replan`` turns on departure-time
    re-planning (migrations / re-partitions land in the decision log as
    ``replan`` events).

    Telemetry: the whole replay runs under a ``sched.replay`` span and,
    when tracing is enabled, the report's headline numbers are published
    as ``sched.<policy>.*`` gauges.  Simulated time is unaffected.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        report = _replay_trace_impl(
            trace, evaluator, machines=machines, policy=policy, slo=slo,
            cluster=cluster, replan=replan,
        )
    else:
        with tracer.span(
            "sched.replay",
            policy=policy,
            machines=machines if cluster is None else len(list(cluster)),
            arrivals=sum(1 for e in trace.events if e.kind == "arrival"),
        ) as sp:
            report = _replay_trace_impl(
                trace, evaluator, machines=machines, policy=policy, slo=slo,
                cluster=cluster, replan=replan,
            )
            sp.tag("sim_time_s", round(report.sim_time_s, 6))
            for key, value in (
                ("violations", report.violations),
                ("rejected", report.rejections),
                ("p95_slowdown", report.p95_slowdown),
                ("utilization", report.utilization),
            ):
                tracer.metrics.gauge(f"sched.{report.policy}.{key}").set(
                    float(value)
                )
    logger.info(
        "replayed %d event(s) through %s: sim_time=%.3fs",
        len(trace.events), report.policy, report.sim_time_s,
    )
    return report


def _replay_trace_impl(
    trace: ArrivalTrace,
    evaluator: PlacementEvaluator,
    *,
    machines: int,
    policy: str,
    slo: float,
    cluster: Cluster | None,
    replan: bool = False,
) -> ReplayReport:
    # The simulated-time loop itself lives in repro.sched.driver (shared,
    # verbatim, with the daemon drain — that sharing is what makes
    # daemon-vs-in-process replays byte-identical); here we only build the
    # scheduler and run the driver against its in-process port.
    import asyncio
    from concurrent.futures import ThreadPoolExecutor

    from repro.sched.driver import LocalPort, drive_trace

    if cluster is None:
        cluster = Cluster.homogeneous(machines, evaluator.session.spec)
    sched = Scheduler(
        cluster, get_policy(policy), evaluator, slo=slo, replan=replan
    )
    coro = drive_trace(LocalPort(sched), trace)
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    # Called with an event loop already running on this thread (async
    # caller, Jupyter): asyncio.run() would raise, so give the driver its
    # own loop on a helper thread.  The driver never yields to real I/O
    # through LocalPort, so this stays deterministic.
    with ThreadPoolExecutor(
        max_workers=1, thread_name_prefix="sched-replay"
    ) as pool:
        return pool.submit(asyncio.run, coro).result()
