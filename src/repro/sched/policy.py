"""Placement policies: who decides where an arrival lands.

Per arrival the scheduler enumerates :class:`Candidate` layouts — one
per (machine, partitioning variant) — and a policy picks one (or
rejects the arrival).  A candidate fully specifies the machine's
*next* layout: every resident's way mask / pinning plus the arrival's,
so admitting it is a deterministic state transition and its cost is
one :meth:`PlacementEvaluator.slowdowns` call on engine-ready
placements.

Variants per machine with room:

* ``shared`` — everyone unpartitioned (also the *re-partition to
  nothing* decision: admitting it clears existing masks);
* ``cat`` — the arrival is fenced into the top half of the LLC ways,
  residents share the bottom half (the ``contiguous_split`` shape the
  CAT sweep showed protects sensitive tenants);
* ``pinned`` — disjoint contiguous core blocks per tenant, when the
  machine has enough physical cores.

The two shipped policies bracket the design space the paper motivates:

* :class:`BaselinePolicy` (``"baseline"``) — a naive slot-count
  bin-packer: best-fit on free hardware-thread slots, never simulates,
  never partitions.  What a scheduler blind to interference does.
* :class:`InterferencePolicy` (``"interference"``) — scores every
  candidate with the engine, drops any whose predicted layout pushes a
  tenant to or past the SLO (:func:`classify_nway`'s victim threshold),
  and admits the mildest surviving layout; with no clean candidate it
  rejects, because parking a tenant where someone gets victimized is
  exactly the outcome the paper says to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ScenarioError, SchedError
from repro.sched.classify import VICTIM_THRESHOLD
from repro.sched.cluster import Cluster, Machine, Tenant, cores_needed
from repro.sched.score import PlacementEvaluator
from repro.session.scenario import AppPlacement

#: Variant enumeration order — also the deterministic tie-break rank.
VARIANTS = ("shared", "cat", "pinned")


# -- CAT way masks ----------------------------------------------------------


def contiguous_split(n_ways: int, fg_ways: int) -> tuple[int, int]:
    """The (fg, bg) bitmaps of a contiguous two-way partition: the
    foreground owns the top ``fg_ways`` ways, the background the rest
    (``contiguous_split(8, 4) == (0xF0, 0x0F)``)."""
    if not 1 <= fg_ways < n_ways:
        raise ScenarioError(
            f"fg_ways must lie in [1, {n_ways - 1}], got {fg_ways}"
        )
    bg_ways = n_ways - fg_ways
    return ((1 << fg_ways) - 1) << bg_ways, (1 << bg_ways) - 1


def equal_way_shares(n_ways: int, parts: int) -> tuple[int, ...]:
    """``parts`` way counts as equal as integers allow (larger shares
    first), summing to ``n_ways`` — the share vector an N-way equal
    re-partition hands to :func:`way_partition`."""
    if parts < 1:
        raise ScenarioError(f"parts must be >= 1, got {parts}")
    if parts > n_ways:
        raise ScenarioError(
            f"cannot split {n_ways} way(s) into {parts} non-empty share(s)"
        )
    base, extra = divmod(n_ways, parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))


def way_partition(n_ways: int, shares: "tuple[int, ...] | list[int]") -> tuple[int, ...]:
    """Disjoint contiguous way bitmaps covering the whole LLC, one per
    share, first share on top (``way_partition(8, (4, 4)) ==
    contiguous_split(8, 4)``).  Generalizes the two-way split to the
    N-way layouts a multi-tenant re-partition needs."""
    shares = tuple(shares)
    if not shares or any(s < 1 for s in shares):
        raise ScenarioError(f"every share needs >= 1 way, got {shares}")
    if sum(shares) != n_ways:
        raise ScenarioError(
            f"shares {shares} must sum to the {n_ways} LLC ways"
        )
    masks: list[int] = []
    top = n_ways
    for s in shares:
        masks.append(((1 << s) - 1) << (top - s))
        top -= s
    return tuple(masks)


@dataclass(frozen=True)
class Candidate:
    """One admissible next layout for one machine: the residents plus
    the arrival (last), each with its assigned partitioning."""

    machine: str
    variant: str
    #: Tenant ids, residents in admission order, the arrival last.
    tenants: tuple[str, ...]
    #: Engine-ready layout aligned with ``tenants``.
    placements: tuple[AppPlacement, ...]

    def assignments(
        self,
    ) -> "dict[str, tuple[int | None, tuple[int, ...] | None]]":
        """tenant id -> (llc_ways, pinning) for :meth:`Machine.apply_layout`
        (the arrival excluded — it is admitted with its own placement)."""
        return {
            tid: (p.llc_ways, p.pinning)
            for tid, p in zip(self.tenants[:-1], self.placements[:-1])
        }

    @property
    def arrival_placement(self) -> AppPlacement:
        return self.placements[-1]


def enumerate_candidates(cluster: Cluster, tenant: Tenant) -> list[Candidate]:
    """Every candidate layout for an arrival, in deterministic order:
    machines in cluster order, variants in :data:`VARIANTS` order."""
    out: list[Candidate] = []
    for machine in cluster:
        if not machine.fits(tenant):
            continue
        residents = machine.residents()
        ids = tuple(t.tenant for t in residents) + (tenant.tenant,)
        bare = tuple(
            AppPlacement(t.workload, t.threads) for t in residents
        ) + (AppPlacement(tenant.workload, tenant.threads),)
        out.append(Candidate(machine.name, "shared", ids, bare))
        if not residents:
            # An empty machine has nobody to arbitrate against: the
            # partitioned variants would all be the shared one.
            continue
        spec = machine.spec
        if spec.llc_ways >= 2:
            arrival_mask, resident_mask = contiguous_split(
                spec.llc_ways, spec.llc_ways - spec.llc_ways // 2
            )
            out.append(
                Candidate(
                    machine.name,
                    "cat",
                    ids,
                    tuple(
                        AppPlacement(p.workload, p.threads, llc_ways=resident_mask)
                        for p in bare[:-1]
                    )
                    + (
                        AppPlacement(
                            tenant.workload, tenant.threads, llc_ways=arrival_mask
                        ),
                    ),
                )
            )
        members = residents + (tenant,)
        need = [cores_needed(t.threads, spec) for t in members]
        if sum(need) <= spec.n_cores:
            pinned: list[AppPlacement] = []
            offset = 0
            for t, n in zip(members, need):
                pinned.append(
                    AppPlacement(
                        t.workload,
                        t.threads,
                        pinning=tuple(range(offset, offset + n)),
                    )
                )
                offset += n
            out.append(Candidate(machine.name, "pinned", ids, tuple(pinned)))
    return out


@dataclass(frozen=True)
class Layout:
    """One resident-only re-partition of a machine — a :class:`Candidate`
    without an arrival.  The departure re-planner enumerates these for a
    vacated machine and applies the cleanest one."""

    machine: str
    variant: str
    #: Resident tenant ids, in admission order.
    tenants: tuple[str, ...]
    #: Engine-ready layout aligned with ``tenants``.
    placements: tuple[AppPlacement, ...]

    def assignments(
        self,
    ) -> "dict[str, tuple[int | None, tuple[int, ...] | None]]":
        """tenant id -> (llc_ways, pinning) for :meth:`Machine.apply_layout`
        (every resident named — this is a full re-partition)."""
        return {
            tid: (p.llc_ways, p.pinning)
            for tid, p in zip(self.tenants, self.placements)
        }


def enumerate_layouts(machine: Machine) -> list[Layout]:
    """Every re-partition of a machine's *current* residents, in
    :data:`VARIANTS` order: ``shared`` (masks and pins cleared), ``cat``
    (an equal N-way contiguous way partition — the
    :func:`way_partition` shape), and ``pinned``
    (disjoint contiguous core blocks) when capacity allows.  Machines
    with fewer than two residents have nothing to arbitrate and
    enumerate nothing (eviction already canonicalizes them)."""
    residents = machine.residents()
    if len(residents) < 2:
        return []
    ids = tuple(t.tenant for t in residents)
    bare = tuple(AppPlacement(t.workload, t.threads) for t in residents)
    out = [Layout(machine.name, "shared", ids, bare)]
    spec = machine.spec
    if spec.llc_ways >= len(residents):
        masks = way_partition(
            spec.llc_ways, equal_way_shares(spec.llc_ways, len(residents))
        )
        out.append(
            Layout(
                machine.name,
                "cat",
                ids,
                tuple(
                    AppPlacement(t.workload, t.threads, llc_ways=m)
                    for t, m in zip(residents, masks)
                ),
            )
        )
    need = [cores_needed(t.threads, spec) for t in residents]
    if sum(need) <= spec.n_cores:
        pinned: list[AppPlacement] = []
        offset = 0
        for t, n in zip(residents, need):
            pinned.append(
                AppPlacement(
                    t.workload,
                    t.threads,
                    pinning=tuple(range(offset, offset + n)),
                )
            )
            offset += n
        out.append(Layout(machine.name, "pinned", ids, tuple(pinned)))
    return out


@dataclass(frozen=True)
class Decision:
    """One admission decision, fully serializable — the decision log a
    replay emits is a list of these, and byte-identical across runs."""

    time_s: float
    policy: str
    tenant: str
    workload: str
    threads: int
    admitted: bool
    #: Chosen machine / variant (``None`` when rejected).
    machine: str | None
    variant: str | None
    #: Co-resident tenant ids at admission time (the arrival excluded).
    co_tenants: tuple[str, ...]
    #: Predicted per-tenant slowdowns of the chosen layout, aligned
    #: ``co_tenants + (tenant,)``; empty when the policy does not score.
    predicted: tuple[float, ...]
    #: Candidates enumerated (0 = nothing had room).
    candidates: int
    #: ``"admitted"``, ``"no-capacity"`` or ``"slo-blocked"``.
    reason: str

    def payload(self) -> dict[str, Any]:
        return {
            "time_s": self.time_s,
            "policy": self.policy,
            "tenant": self.tenant,
            "workload": self.workload,
            "threads": self.threads,
            "admitted": self.admitted,
            "machine": self.machine,
            "variant": self.variant,
            "co_tenants": list(self.co_tenants),
            "predicted": list(self.predicted),
            "candidates": self.candidates,
            "reason": self.reason,
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "Decision":
        return Decision(
            time_s=payload["time_s"],
            policy=payload["policy"],
            tenant=payload["tenant"],
            workload=payload["workload"],
            threads=payload["threads"],
            admitted=payload["admitted"],
            machine=payload["machine"],
            variant=payload["variant"],
            co_tenants=tuple(payload["co_tenants"]),
            predicted=tuple(payload["predicted"]),
            candidates=payload["candidates"],
            reason=payload["reason"],
        )


@dataclass(frozen=True)
class ReplanDecision:
    """One departure-triggered re-planning action, fully serializable.

    Its payload carries ``"event": "replan"`` as a discriminator, so a
    decision log can mix admissions and re-plans while plain
    :class:`Decision` payloads decode unchanged
    (:func:`decision_from_payload` dispatches on the key).
    """

    time_s: float
    policy: str
    #: The departed tenant whose eviction triggered this re-plan.
    trigger: str
    #: ``"repartition"`` (masks/pins redrawn in place) or ``"migrate"``
    #: (one resident moved to another machine).
    action: str
    #: The vacated machine.
    machine: str
    #: Destination machine of a migration (``None`` for repartitions).
    target: str | None
    #: The migrated tenant (``None`` for repartitions).
    tenant: str | None
    #: Layout variant applied (``shared`` / ``cat`` / ``pinned``).
    variant: str | None
    #: Tenants of the re-laid-out machine, after the action.
    tenants: tuple[str, ...]
    #: Per-tenant slowdowns before / after, aligned with the machine's
    #: residents at each instant.
    before: tuple[float, ...]
    after: tuple[float, ...]
    #: ``"cleaner-layout"`` or ``"slo-relief"``.
    reason: str

    #: Re-plans are bookkeeping, never admissions — kept ``False`` so a
    #: mixed decision list can be filtered uniformly.
    @property
    def admitted(self) -> bool:
        return False

    def payload(self) -> dict[str, Any]:
        return {
            "event": "replan",
            "time_s": self.time_s,
            "policy": self.policy,
            "trigger": self.trigger,
            "action": self.action,
            "machine": self.machine,
            "target": self.target,
            "tenant": self.tenant,
            "variant": self.variant,
            "tenants": list(self.tenants),
            "before": list(self.before),
            "after": list(self.after),
            "reason": self.reason,
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "ReplanDecision":
        return ReplanDecision(
            time_s=payload["time_s"],
            policy=payload["policy"],
            trigger=payload["trigger"],
            action=payload["action"],
            machine=payload["machine"],
            target=payload["target"],
            tenant=payload["tenant"],
            variant=payload["variant"],
            tenants=tuple(payload["tenants"]),
            before=tuple(payload["before"]),
            after=tuple(payload["after"]),
            reason=payload["reason"],
        )


def decision_from_payload(
    payload: dict[str, Any],
) -> "Decision | ReplanDecision":
    """Decode one decision-log entry: admission payloads (no ``event``
    key — the pre-replan shape) or ``"event": "replan"`` entries."""
    if payload.get("event") == "replan":
        return ReplanDecision.from_payload(payload)
    return Decision.from_payload(payload)


def _reject(
    policy: str, tenant: Tenant, time_s: float, candidates: int, reason: str
) -> Decision:
    return Decision(
        time_s=time_s,
        policy=policy,
        tenant=tenant.tenant,
        workload=tenant.workload,
        threads=tenant.threads,
        admitted=False,
        machine=None,
        variant=None,
        co_tenants=(),
        predicted=(),
        candidates=candidates,
        reason=reason,
    )


class PlacementPolicy:
    """Interface: pick a candidate (or reject) for one arrival."""

    name: str = "abstract"

    def decide(
        self,
        cluster: Cluster,
        tenant: Tenant,
        evaluator: PlacementEvaluator,
        *,
        slo: float = VICTIM_THRESHOLD,
        time_s: float = 0.0,
    ) -> tuple[Decision, Candidate | None]:
        raise NotImplementedError


class BaselinePolicy(PlacementPolicy):
    """The naive slot-count bin-packer: best-fit on free slots (the
    fullest machine that still fits, packing before spreading), shared
    layout, no simulation, no SLO check."""

    name = "baseline"

    def decide(
        self,
        cluster: Cluster,
        tenant: Tenant,
        evaluator: PlacementEvaluator,
        *,
        slo: float = VICTIM_THRESHOLD,
        time_s: float = 0.0,
    ) -> tuple[Decision, Candidate | None]:
        fitting = [
            (m.free_slots, i, m)
            for i, m in enumerate(cluster)
            if m.fits(tenant)
        ]
        if not fitting:
            return _reject(self.name, tenant, time_s, 0, "no-capacity"), None
        _, _, machine = min(fitting)
        candidate = next(
            c
            for c in enumerate_candidates(cluster, tenant)
            if c.machine == machine.name and c.variant == "shared"
        )
        return (
            Decision(
                time_s=time_s,
                policy=self.name,
                tenant=tenant.tenant,
                workload=tenant.workload,
                threads=tenant.threads,
                admitted=True,
                machine=machine.name,
                variant="shared",
                co_tenants=candidate.tenants[:-1],
                predicted=(),
                candidates=len(fitting),
                reason="admitted",
            ),
            candidate,
        )


class InterferencePolicy(PlacementPolicy):
    """Score every candidate with the engine; admit the mildest layout
    that keeps *everyone* — residents and the arrival — under the SLO;
    reject when no layout does."""

    name = "interference"

    def decide(
        self,
        cluster: Cluster,
        tenant: Tenant,
        evaluator: PlacementEvaluator,
        *,
        slo: float = VICTIM_THRESHOLD,
        time_s: float = 0.0,
    ) -> tuple[Decision, Candidate | None]:
        candidates = enumerate_candidates(cluster, tenant)
        if not candidates:
            return _reject(self.name, tenant, time_s, 0, "no-capacity"), None
        scored: list[tuple[tuple[float, float], int, Candidate, tuple[float, ...]]] = []
        # One batched evaluation across the whole candidate set: the
        # rotations of every layout feed a single scenario fan-out per
        # machine spec (the serve daemon's cold-admission hot path).
        all_slowdowns = evaluator.slowdowns_many(
            [
                (cluster.machine(cand.machine).spec, cand.placements)
                for cand in candidates
            ]
        )
        for i, (cand, slowdowns) in enumerate(zip(candidates, all_slowdowns)):
            if any(s >= slo for s in slowdowns):
                continue
            score = (max(slowdowns), sum(slowdowns) / len(slowdowns))
            scored.append((score, i, cand, slowdowns))
        if not scored:
            return (
                _reject(self.name, tenant, time_s, len(candidates), "slo-blocked"),
                None,
            )
        _, _, best, predicted = min(scored, key=lambda row: (row[0], row[1]))
        return (
            Decision(
                time_s=time_s,
                policy=self.name,
                tenant=tenant.tenant,
                workload=tenant.workload,
                threads=tenant.threads,
                admitted=True,
                machine=best.machine,
                variant=best.variant,
                co_tenants=best.tenants[:-1],
                predicted=predicted,
                candidates=len(candidates),
                reason="admitted",
            ),
            best,
        )


#: Registry of shipped policies, in presentation order.
POLICIES: "dict[str, type[PlacementPolicy]]" = {
    BaselinePolicy.name: BaselinePolicy,
    InterferencePolicy.name: InterferencePolicy,
}


def get_policy(name: str) -> PlacementPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise SchedError(
            f"unknown policy {name!r}; use one of {', '.join(POLICIES)}"
        ) from None
