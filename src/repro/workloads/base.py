"""Workload profiles: the analytic description the interval engine
consumes.

A :class:`WorkloadProfile` is ordered phases (one per code region) with
core IPC, L2 miss rate, an LLC miss-ratio curve, prefetchable
regularity and memory-level parallelism, plus a thread-scaling law.
The calibration tables (:mod:`repro.workloads.calibration`) supply one
per application, anchored to the paper's own solo-run measurements
(Figs 2–4); the trace profiler (:mod:`repro.trace.profiler`) derives
one from a user's own memory-access trace.

The key modelling assumption is the paper's own (Section VI-A): with
private per-core L1/L2 and exclusive core bindings, the *L2 miss count
per instruction is fixed* for a given thread count regardless of
co-runners; only what happens beyond L2 (LLC share, bus queueing) is
interference-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import WorkloadError
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.mrc import MissRatioCurve


@dataclass(frozen=True)
class CodeRegion:
    """A source region events are attributed to (the paper's hotspot
    granularity, e.g. ``pagerank.c:63-70`` for G-PR's edge loop)."""

    name: str
    file: str
    line_lo: int
    line_hi: int

    def __post_init__(self) -> None:
        if self.line_lo <= 0 or self.line_hi < self.line_lo:
            raise WorkloadError(f"bad line span in region {self.name}")

    @property
    def label(self) -> str:
        """Compact ``file:lo-hi`` label used in reports (Fig 7's x-axis)."""
        return f"{self.file}:{self.line_lo}-{self.line_hi}"


@dataclass(frozen=True)
class RegionProfile:
    """Analytic description of one execution phase / code region.

    Attributes:
        region: Source region for attribution.
        weight: Fraction of the workload's dynamic instructions spent
            here; weights across a profile sum to 1.
        ipc_core: Core IPC assuming all memory references are served by
            the private L1/L2 (no >L2 stalls).
        l2_mpki: Demand misses past the private L2, per kilo-instruction
            (fixed w.r.t. interference; see module docstring).
        mrc: LLC miss ratio of that L2-miss traffic as a function of the
            LLC capacity the phase effectively owns.
        regularity: Fraction of the L2-miss traffic that is sequential/
            strided enough for the prefetchers to cover, in [0, 1].
        mlp: Memory-level parallelism — outstanding-miss overlap divisor
            applied to memory stall time (>= 1; pointer chases ~1).
        write_fraction: Writeback bytes per miss byte (dirty-line ratio).
        footprint_bytes: LLC capacity beyond which this phase cannot use
            more space; also caps its occupancy in the sharing model
            (Bandit's defining property is a tiny footprint).
        serial: True if the phase runs single-threaded regardless of the
            configured thread count (AMG2006's two setup phases).
        bw_efficiency: Fraction of the machine's practical peak this
            phase's access pattern can extract at saturation.  STREAM's
            four unit-stride streams define 1.0; many-stream read-write
            patterns (fotonik3d, IRSmk) lose DRAM row-buffer locality
            and bus turnaround and cap out lower — this is why their
            Fig 2 curves flatten harder than a pure roofline predicts.
    """

    region: CodeRegion
    weight: float
    ipc_core: float
    l2_mpki: float
    mrc: MissRatioCurve
    regularity: float
    mlp: float = 2.0
    write_fraction: float = 0.3
    footprint_bytes: float = 8 * MiB
    serial: bool = False
    bw_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.weight <= 1):
            raise WorkloadError(f"{self.region.name}: weight must be in (0, 1]")
        if self.ipc_core <= 0:
            raise WorkloadError(f"{self.region.name}: ipc_core must be positive")
        if self.l2_mpki < 0:
            raise WorkloadError(f"{self.region.name}: l2_mpki must be >= 0")
        if not (0 <= self.regularity <= 1):
            raise WorkloadError(f"{self.region.name}: regularity must be in [0, 1]")
        if self.mlp < 1:
            raise WorkloadError(f"{self.region.name}: mlp must be >= 1")
        if self.write_fraction < 0:
            raise WorkloadError(f"{self.region.name}: write_fraction must be >= 0")
        if self.footprint_bytes <= 0:
            raise WorkloadError(f"{self.region.name}: footprint must be positive")
        if not (0 < self.bw_efficiency <= 1):
            raise WorkloadError(
                f"{self.region.name}: bw_efficiency must be in (0, 1]"
            )


@dataclass(frozen=True)
class ScalingModel:
    """Thread-scaling law beyond the bandwidth effects the engine
    already models mechanistically.

    * synchronization: added CPI ``sync_cpi_coeff * (t-1)**sync_cpi_exp``
      (ATIS's barrier spin dominates above 2 threads);
    * algorithmic work inflation: total instructions multiplied by
      ``1 + work_inflation_coeff * (t-1)**work_inflation_exp``
      (P-SSSP's identical-weight redundant relaxations).
    """

    sync_cpi_coeff: float = 0.0
    sync_cpi_exp: float = 1.0
    work_inflation_coeff: float = 0.0
    work_inflation_exp: float = 1.0

    def __post_init__(self) -> None:
        if self.sync_cpi_coeff < 0 or self.work_inflation_coeff < 0:
            raise WorkloadError("scaling coefficients must be >= 0")

    def sync_cpi(self, threads: int) -> float:
        """Extra cycles-per-instruction from synchronization at ``threads``."""
        if threads <= 1:
            return 0.0
        return self.sync_cpi_coeff * (threads - 1) ** self.sync_cpi_exp

    def work_factor(self, threads: int) -> float:
        """Total-work multiplier at ``threads`` (1.0 at one thread)."""
        if threads <= 1:
            return 1.0
        return 1.0 + self.work_inflation_coeff * (threads - 1) ** self.work_inflation_exp


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything the interval engine needs to simulate one application."""

    name: str
    suite: str
    #: Total dynamic kilo-instructions of one run (single-thread work).
    total_kinstr: float
    regions: tuple[RegionProfile, ...]
    scaling: ScalingModel = field(default_factory=ScalingModel)
    #: Region that receives synchronization cycles (ATIS's
    #: kmp_hyper_barrier_release); None attributes them to the phase
    #: that incurred them.
    sync_region_name: str | None = None

    def __post_init__(self) -> None:
        if self.total_kinstr <= 0:
            raise WorkloadError(f"{self.name}: total_kinstr must be positive")
        if not self.regions:
            raise WorkloadError(f"{self.name}: needs at least one region")
        total_weight = sum(r.weight for r in self.regions)
        if abs(total_weight - 1.0) > 1e-6:
            raise WorkloadError(
                f"{self.name}: region weights sum to {total_weight}, expected 1.0"
            )
        names = [r.region.name for r in self.regions]
        if len(set(names)) != len(names):
            raise WorkloadError(f"{self.name}: duplicate region names {names}")

    @property
    def dominant_region(self) -> RegionProfile:
        """The phase with the largest instruction share (hotspot)."""
        return max(self.regions, key=lambda r: r.weight)
