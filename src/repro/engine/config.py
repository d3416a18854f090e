"""What the engine is asked to run, without the solvers: the engine's
knobs (:class:`EngineConfig`), its LLC policies and the scenario cell
(:class:`BatchCell`) both solvers take.

This module imports no numpy, so a process that only keys, reads and
writes results (a warm daemon, the CLI's parsers) can name an engine
configuration without loading :mod:`repro.engine.interval` or
:mod:`repro.engine.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import WorkloadProfile

#: Valid LLC sharing policies (the CAT-style partitioning axis).
LLC_POLICIES = ("pressure", "even", "static")


@dataclass
class EngineConfig:
    """Tunable engine knobs (ablation benches sweep these)."""

    prefetchers_on: bool = True
    #: Count prefetch overfetch against the bus (ablation #3).
    prefetch_bandwidth_tax: bool = True
    #: LLC policy: "pressure" (default), "even", or "static" (no
    #: sharing penalty — infinite LLC for everyone; ablation #1).
    llc_policy: str = "pressure"
    #: Apply memory-level-parallelism overlap (ablation #4).
    use_mlp: bool = True
    #: Apply the queueing latency curve (ablation #2).
    use_queueing: bool = True

    def __post_init__(self) -> None:
        if self.llc_policy not in LLC_POLICIES:
            raise EngineError(f"unknown llc_policy {self.llc_policy!r}")


@dataclass(frozen=True)
class BatchCell:
    """One scenario in engine terms: the arguments of
    :meth:`~repro.engine.interval.IntervalEngine.scenario_run` as one
    value, and the unit :func:`~repro.engine.batch.solve_batch` stacks.

    ``profiles[0]`` is the measured foreground, every other profile
    loops for as long as the foreground runs.
    """

    profiles: tuple[WorkloadProfile, ...]
    threads: tuple[int, ...]
    fg_solo_runtime_s: float | None = None
    bg_solo_rates: tuple[float, ...] | None = None
    llc_ways: "tuple[int | None, ...] | None" = None
    pinnings: "tuple[tuple[int, ...] | None, ...] | None" = None
    max_dt: float = 5.0
