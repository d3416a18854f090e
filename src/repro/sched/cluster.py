"""The simulated cluster a placement scheduler decides over.

A :class:`Cluster` is a named set of :class:`Machine`\\ s; each machine
carries a :class:`~repro.machine.spec.MachineSpec` plus its resident
:class:`Tenant`\\ s — admitted workloads that occupy hardware-thread
slots (and optionally CAT LLC ways / pinned cores) until they finish
their work.  The model is deliberately the Scenario API's vocabulary:
``Machine.placements()`` returns the exact
:class:`~repro.session.scenario.AppPlacement` tuple the engine
simulates, so "what does this machine's current layout cost each
tenant?" is one :meth:`Session.run_scenario` rotation away — and every
answer lands in (or comes from) the shared result store.

Capacity accounting mirrors the engine's own validation: a machine has
``spec.n_slots`` hardware-thread slots (cores x 2 under SMT) and
``spec.n_cores`` physical cores; a tenant's threads occupy
``ceil(threads / slots_per_core)`` cores when pinned.  Everything here
is plain deterministic state — no clocks, no randomness — so a replay
over a cluster is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.errors import SchedError
from repro.machine.spec import MachineSpec
from repro.session.scenario import AppPlacement


def cores_needed(threads: int, spec: MachineSpec) -> int:
    """Physical cores a tenant's threads occupy when pinned: each core
    offers ``slots_per_core`` hardware-thread slots."""
    return -(-threads // spec.slots_per_core)


@dataclass(frozen=True)
class Tenant:
    """One admitted (or arriving) workload instance.

    ``tenant`` is the instance id (two arrivals of the same workload
    are distinct tenants); ``solo_s`` is the work it brings, expressed
    in seconds of *solo* execution — under interference that work
    drains at ``1 / slowdown`` of real time, which is how a replay
    turns placement quality into residency time.
    """

    tenant: str
    workload: str
    threads: int
    #: Work to do, in seconds of solo execution.
    solo_s: float
    arrival_s: float = 0.0
    #: CAT way-mask bitmap assigned by the scheduler (``None`` = all ways).
    llc_ways: int | None = None
    #: Cores assigned by the scheduler (``None`` = unpinned).
    pinning: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise SchedError("a tenant needs an id")
        if self.threads < 1:
            raise SchedError(f"{self.tenant}: threads must be >= 1")
        if not (math.isfinite(self.solo_s) and math.isfinite(self.arrival_s)):
            raise SchedError(f"{self.tenant}: solo_s and arrival_s must be finite")
        if self.solo_s <= 0:
            raise SchedError(f"{self.tenant}: solo_s must be positive")
        if self.pinning is not None:
            object.__setattr__(self, "pinning", tuple(self.pinning))

    def placement(self) -> AppPlacement:
        """This tenant's seat in an engine scenario."""
        return AppPlacement(
            self.workload,
            self.threads,
            llc_ways=self.llc_ways,
            pinning=self.pinning,
        )

    def unpartitioned(self) -> "Tenant":
        """This tenant stripped of way masks and pinnings."""
        return replace(self, llc_ways=None, pinning=None)

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "tenant": self.tenant,
            "workload": self.workload,
            "threads": self.threads,
            "solo_s": self.solo_s,
            "arrival_s": self.arrival_s,
        }
        if self.llc_ways is not None:
            out["llc_ways"] = self.llc_ways
        if self.pinning is not None:
            out["pinning"] = list(self.pinning)
        return out

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "Tenant":
        pin = payload.get("pinning")
        return Tenant(
            tenant=payload["tenant"],
            workload=payload["workload"],
            threads=payload["threads"],
            solo_s=payload["solo_s"],
            arrival_s=payload.get("arrival_s", 0.0),
            llc_ways=payload.get("llc_ways"),
            pinning=tuple(pin) if pin is not None else None,
        )


@dataclass
class Machine:
    """One named machine: a spec plus its resident tenants, in
    admission order (the order their placements hand to the engine)."""

    name: str
    spec: MachineSpec
    tenants: dict[str, Tenant] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedError("a machine needs a name")

    # -- capacity -----------------------------------------------------------

    @property
    def used_slots(self) -> int:
        return sum(t.threads for t in self.tenants.values())

    @property
    def free_slots(self) -> int:
        return self.spec.n_slots - self.used_slots

    @property
    def used_cores(self) -> int:
        """Cores the residents would occupy if all were pinned —
        the bound a disjoint-pinning layout must fit under."""
        return sum(cores_needed(t.threads, self.spec) for t in self.tenants.values())

    @property
    def free_cores(self) -> int:
        return self.spec.n_cores - self.used_cores

    def fits(self, tenant: Tenant) -> bool:
        return tenant.threads <= self.free_slots

    # -- residency ----------------------------------------------------------

    def residents(self) -> tuple[Tenant, ...]:
        return tuple(self.tenants.values())

    def placements(self) -> tuple[AppPlacement, ...]:
        """The machine's current layout as an engine-ready placement
        tuple (resident order)."""
        return tuple(t.placement() for t in self.tenants.values())

    def admit(self, tenant: Tenant) -> None:
        if tenant.tenant in self.tenants:
            raise SchedError(f"{self.name}: tenant {tenant.tenant!r} already resident")
        if not self.fits(tenant):
            raise SchedError(
                f"{self.name}: {tenant.tenant!r} needs {tenant.threads} slot(s), "
                f"only {self.free_slots} free"
            )
        self.tenants[tenant.tenant] = tenant

    def evict(self, tenant_id: str) -> Tenant:
        """Remove a tenant; a machine left with at most one resident
        drops its partitions (masks and pins exist only to arbitrate
        between co-residents, and clearing them deterministically keeps
        layout identity — hence cache keys — canonical)."""
        try:
            gone = self.tenants.pop(tenant_id)
        except KeyError:
            raise SchedError(f"{self.name}: no tenant {tenant_id!r}") from None
        if len(self.tenants) <= 1:
            self.tenants = {
                tid: t.unpartitioned() for tid, t in self.tenants.items()
            }
        return gone

    def apply_layout(
        self,
        assignments: "dict[str, tuple[int | None, tuple[int, ...] | None]]",
    ) -> None:
        """Re-partition the residents: ``assignments`` maps tenant id to
        its new ``(llc_ways, pinning)``.  Every resident must be named —
        a partial re-partition would leave stale masks behind."""
        missing = set(self.tenants) - set(assignments)
        extra = set(assignments) - set(self.tenants)
        if missing or extra:
            raise SchedError(
                f"{self.name}: layout must name exactly the residents "
                f"(missing {sorted(missing)}, unknown {sorted(extra)})"
            )
        self.tenants = {
            tid: replace(t, llc_ways=assignments[tid][0], pinning=assignments[tid][1])
            for tid, t in self.tenants.items()
        }

    def payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "smt": self.spec.hyperthreading,
            "tenants": [t.payload() for t in self.tenants.values()],
        }


@dataclass
class Cluster:
    """A named set of machines plus tenant lookup and utilization."""

    machines: tuple[Machine, ...]

    def __post_init__(self) -> None:
        self.machines = tuple(self.machines)
        if not self.machines:
            raise SchedError("a cluster needs at least one machine")
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise SchedError(f"duplicate machine names: {names}")
        self._by_name = {m.name: m for m in self.machines}

    @staticmethod
    def homogeneous(count: int, spec: MachineSpec, *, prefix: str = "m") -> "Cluster":
        """``count`` empty machines of one spec, named ``m0..m<N-1>``."""
        if count < 1:
            raise SchedError("cluster size must be >= 1")
        return Cluster(tuple(Machine(f"{prefix}{i}", spec) for i in range(count)))

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines)

    def machine(self, name: str) -> Machine:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchedError(f"no machine {name!r} in cluster") from None

    def find(self, tenant_id: str) -> Machine | None:
        """The machine hosting a tenant, or ``None``."""
        for m in self.machines:
            if tenant_id in m.tenants:
                return m
        return None

    @property
    def total_slots(self) -> int:
        return sum(m.spec.n_slots for m in self.machines)

    @property
    def used_slots(self) -> int:
        return sum(m.used_slots for m in self.machines)

    def payload(self) -> dict[str, Any]:
        return {"machines": [m.payload() for m in self.machines]}

    @staticmethod
    def from_payload(payload: dict[str, Any], base_spec: MachineSpec) -> "Cluster":
        """Rebuild a cluster from :meth:`payload`.  Machine specs are
        expressed relative to ``base_spec`` (the session's machine):
        ``"smt": true`` selects its SMT variant — a cluster file never
        smuggles in a spec the session's caches are not keyed by.
        """
        machines = []
        for m in payload.get("machines", ()):
            spec = base_spec.smt_variant() if m.get("smt") else base_spec
            machine = Machine(m.get("name", ""), spec)
            for t in m.get("tenants", ()):
                machine.admit(Tenant.from_payload(t))
            machines.append(machine)
        return Cluster(tuple(machines))
