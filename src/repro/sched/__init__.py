"""repro.sched — interference-aware placement over a simulated cluster.

PRs 1-5 built the measurement machinery: any N-way placement with CAT
way masks and pinning can be simulated (Scenario API), classified
(:func:`~repro.sched.classify.classify_nway`) and persisted
(ResultStore).  This package is the payoff the ROADMAP names first —
something that *decides* placements with that machinery:

* :mod:`~repro.sched.classify` — Section V's victim/offender taxonomy
  and its 1.5x threshold, shared with the paper artifacts;
* :mod:`~repro.sched.cluster` — the cluster state: named machines,
  resident tenants, slot/core/way capacity, engine-ready layouts;
* :mod:`~repro.sched.trace` — deterministic seeded arrival traces
  (plus file round-trip) driving the scheduler;
* :mod:`~repro.sched.score` — :class:`PlacementEvaluator`: layout ->
  per-tenant slowdowns via foreground rotation through the Session,
  with the result store as the scheduler's warm cache;
* :mod:`~repro.sched.policy` — candidate enumeration (shared / CAT /
  pinned variants), the CAT way-mask helpers, and the two shipped
  policies: the naive slot bin-packer and the SLO-guarded
  interference-aware one;
* :mod:`~repro.sched.scheduler` — the event-driven :class:`Scheduler`
  and :func:`replay_trace`: simulated time where interference
  stretches residency, per-tenant slowdown percentiles, SLO
  violations, rejections and utilization;
* :mod:`~repro.sched.runner` — the ``sched-replay`` campaign artifact
  (``repro sched replay``) comparing policies head to head.
"""

from repro._lazy import lazy_exports
from repro.sched.cluster import Cluster, Machine, Tenant, cores_needed
from repro.sched.policy import (
    POLICIES,
    BaselinePolicy,
    Candidate,
    Decision,
    InterferencePolicy,
    Layout,
    PlacementPolicy,
    ReplanDecision,
    decision_from_payload,
    enumerate_candidates,
    enumerate_layouts,
    get_policy,
)
from repro.sched.scheduler import (
    HourBucket,
    ReplayReport,
    Scheduler,
    TenantOutcome,
    percentile,
    replay_trace,
)
from repro.sched.score import PlacementEvaluator
from repro.sched.trace import ArrivalTrace, TraceEvent, load_trace, parse_trace

__all__ = [
    "ArrivalTrace",
    "BaselinePolicy",
    "Candidate",
    "Cluster",
    "DEFAULT_POLICIES",
    "Decision",
    "HourBucket",
    "InterferencePolicy",
    "Layout",
    "LocalPort",
    "Machine",
    "POLICIES",
    "PlacementEvaluator",
    "PlacementPolicy",
    "ReplanDecision",
    "ReplayComparison",
    "ReplayReport",
    "SchedReplayRunner",
    "Scheduler",
    "SchedulerPort",
    "Tenant",
    "TenantOutcome",
    "TraceEvent",
    "cores_needed",
    "decision_from_payload",
    "drive_trace",
    "enumerate_candidates",
    "enumerate_layouts",
    "get_policy",
    "load_trace",
    "parse_trace",
    "percentile",
    "replay_trace",
]

# What a replay runs (the ``sched-replay`` artifact and the trace
# driver), not a live admission.
__getattr__ = lazy_exports(__name__, {
    "repro.sched.driver": ("LocalPort", "SchedulerPort", "drive_trace"),
    "repro.sched.runner": ("DEFAULT_POLICIES", "ReplayComparison", "SchedReplayRunner"),
})
