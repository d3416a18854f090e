"""Hardware specifications for the modelled platform.

The paper's experiments run on a Supermicro 8047R-TRF+ with one 8-core
Intel Xeon E5-4650 (Sandy Bridge-EP) at 2.7 GHz: private 32 KiB L1I,
32 KiB L1D and 256 KiB L2 per core, a 20 MiB shared L3, 64 GiB DRAM, and
a practical memory bandwidth of ~28 GB/s (Section III-A and V-B of the
paper).  :func:`xeon_e5_4650` builds exactly that configuration;
everything else in the library takes a :class:`MachineSpec` so the
platform can be swapped out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import MachineConfigError
from repro.units import CACHE_LINE, GB, GiB, KiB, MiB


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheSpec:
    """Geometry and timing of one cache level.

    Attributes:
        name: Human-readable label ("L1D", "L2", "LLC").
        size_bytes: Total capacity in bytes.
        line_bytes: Cache-line size in bytes (64 on Sandy Bridge).
        associativity: Number of ways per set.
        latency_cycles: Load-to-use latency of a hit in this cache.
    """

    name: str
    size_bytes: int
    line_bytes: int = CACHE_LINE
    associativity: int = 8
    latency_cycles: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise MachineConfigError(f"{self.name}: size must be positive")
        if not _is_power_of_two(self.line_bytes):
            raise MachineConfigError(f"{self.name}: line size must be a power of two")
        if self.associativity <= 0:
            raise MachineConfigError(f"{self.name}: associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise MachineConfigError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"line*ways = {self.line_bytes * self.associativity}"
            )
        if not _is_power_of_two(self.n_sets):
            raise MachineConfigError(
                f"{self.name}: set count {self.n_sets} must be a power of two"
            )
        if self.latency_cycles <= 0:
            raise MachineConfigError(f"{self.name}: latency must be positive")

    @property
    def n_lines(self) -> int:
        """Total number of cache lines this cache can hold."""
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class MemorySpec:
    """DRAM subsystem parameters.

    ``peak_bandwidth_bytes`` is the *practical* sustainable bandwidth; the
    paper measures ~28 GB/s on the target machine (Section VI-B).  The
    queueing parameters shape how load latency inflates as the bus
    approaches saturation (used by :mod:`repro.engine.bandwidth` and the
    trace-layer memory controller alike).
    """

    capacity_bytes: int = 64 * GiB
    peak_bandwidth_bytes: float = 28.0 * GB
    idle_latency_cycles: int = 200
    #: Multiplier strength of the queueing-delay curve lat = idle*(1+k*rho/(1-rho)).
    queue_gain: float = 0.12
    #: Utilization is clamped below this to keep the queue model finite;
    #: 0.90 caps loaded DRAM latency at ~2.1x idle (~420 cycles), the
    #: plausible range for loaded DDR3.
    max_utilization: float = 0.90

    def __post_init__(self) -> None:
        if self.peak_bandwidth_bytes <= 0:
            raise MachineConfigError("peak bandwidth must be positive")
        if self.idle_latency_cycles <= 0:
            raise MachineConfigError("idle latency must be positive")
        if not (0.0 < self.max_utilization < 1.0):
            raise MachineConfigError("max_utilization must lie in (0, 1)")
        if self.queue_gain < 0:
            raise MachineConfigError("queue_gain must be non-negative")


@dataclass(frozen=True)
class PrefetcherSpec:
    """Configuration of the four Sandy Bridge hardware prefetchers
    (Section IV-C of the paper), all enabled by default.

    The on/off switch lives on the cache model
    (:class:`repro.machine.hierarchy.CoreCacheHierarchy`); this spec
    provides the *capabilities* and tuning of each engine.
    """

    #: L2 streamer: lines prefetched ahead of a detected stream.
    l2_stream_depth: int = 4
    #: L2 streamer: accesses to a 4 KiB page needed before streaming starts.
    l2_stream_threshold: int = 2
    #: IP-stride table entries (per core).
    l1_ip_entries: int = 64
    #: Confidence (repeat observations of the same stride) before issuing.
    l1_ip_confidence: int = 2

    def __post_init__(self) -> None:
        if self.l2_stream_depth <= 0:
            raise MachineConfigError("l2_stream_depth must be positive")
        if self.l2_stream_threshold <= 0:
            raise MachineConfigError("l2_stream_threshold must be positive")
        if self.l1_ip_entries <= 0:
            raise MachineConfigError("l1_ip_entries must be positive")
        if self.l1_ip_confidence <= 0:
            raise MachineConfigError("l1_ip_confidence must be positive")


@dataclass(frozen=True)
class MachineSpec:
    """The full modelled machine.

    Mirrors the paper's platform: ``n_cores`` physical cores (HT
    disabled), private L1/L2 per core, one shared LLC, one memory
    controller.  All caches must share the same line size.
    """

    n_cores: int = 8
    freq_hz: float = 2.7e9
    l1i: CacheSpec = field(
        default_factory=lambda: CacheSpec("L1I", 32 * KiB, associativity=8, latency_cycles=4)
    )
    l1d: CacheSpec = field(
        default_factory=lambda: CacheSpec("L1D", 32 * KiB, associativity=8, latency_cycles=4)
    )
    l2: CacheSpec = field(
        default_factory=lambda: CacheSpec("L2", 256 * KiB, associativity=8, latency_cycles=12)
    )
    llc: CacheSpec = field(
        default_factory=lambda: CacheSpec("LLC", 20 * MiB, associativity=20, latency_cycles=35)
    )
    memory: MemorySpec = field(default_factory=MemorySpec)
    prefetch: PrefetcherSpec = field(default_factory=PrefetcherSpec)
    #: Two hardware threads per core.  The paper's platform disables
    #: Hyper-Threading (Section III-A) and the default reproduces that;
    #: SMT-enabled spec variants (``spec.smt_variant()``) double the
    #: schedulable thread slots and share each core's pipeline between
    #: its two hardware threads (see :mod:`repro.engine.interval`).
    hyperthreading: bool = False

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise MachineConfigError("n_cores must be positive")
        if self.freq_hz <= 0:
            raise MachineConfigError("frequency must be positive")
        lines = {self.l1i.line_bytes, self.l1d.line_bytes, self.l2.line_bytes, self.llc.line_bytes}
        if len(lines) != 1:
            raise MachineConfigError(f"all cache levels must share one line size, got {lines}")

    @property
    def line_bytes(self) -> int:
        """Cache-line size shared by every level."""
        return self.l1d.line_bytes

    @property
    def n_slots(self) -> int:
        """Schedulable hardware-thread slots: ``n_cores`` with SMT off,
        ``2 * n_cores`` with SMT on."""
        return self.n_cores * 2 if self.hyperthreading else self.n_cores

    @property
    def slots_per_core(self) -> int:
        """Hardware-thread slots of one physical core (2 under SMT)."""
        return 2 if self.hyperthreading else 1

    @property
    def llc_ways(self) -> int:
        """Number of LLC ways — the granularity of CAT-style way-mask
        partitioning (``AppPlacement.llc_ways`` bitmaps are validated
        against ``1 << llc_ways``)."""
        return self.llc.associativity

    @property
    def llc_way_bytes(self) -> float:
        """Capacity of one LLC way (what one mask bit allocates)."""
        return self.llc.size_bytes / self.llc.associativity

    def smt_variant(self) -> "MachineSpec":
        """This machine with Hyper-Threading enabled (the ROADMAP's
        SMT-enabled spec variant); a distinct spec fingerprint, so no
        cache entry ever crosses between the two."""
        return replace(self, hyperthreading=True)

    def scaled_llc(self, size_bytes: int) -> "MachineSpec":
        """Return a copy of this spec with a different LLC capacity.

        Used when deriving miss-ratio curves: the associativity is kept
        and the set count shrinks, so ``size_bytes`` must stay a
        line*ways multiple with a power-of-two set count.
        """
        return replace(self, llc=replace(self.llc, size_bytes=size_bytes))


def xeon_e5_4650() -> MachineSpec:
    """The paper's platform: 8-core Xeon E5-4650 @ 2.7 GHz, 32K/32K L1,
    256K L2, 20 MB shared L3, 64 GB DRAM, ~28 GB/s practical bandwidth,
    Hyper-Threading disabled."""
    return MachineSpec()


def small_test_machine(n_cores: int = 2) -> MachineSpec:
    """A deliberately tiny machine for fast unit tests: 4 KiB L1,
    16 KiB L2, 64 KiB LLC.  Same structure, ~300x less state."""
    return MachineSpec(
        n_cores=n_cores,
        l1i=CacheSpec("L1I", 4 * KiB, associativity=4, latency_cycles=4),
        l1d=CacheSpec("L1D", 4 * KiB, associativity=4, latency_cycles=4),
        l2=CacheSpec("L2", 16 * KiB, associativity=4, latency_cycles=12),
        llc=CacheSpec("LLC", 64 * KiB, associativity=8, latency_cycles=35),
    )
