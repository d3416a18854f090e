"""The memory bus's queueing-delay curve.

As the memory bus approaches its practical peak (~28 GB/s on the
paper's machine), load latency inflates.  We model that with the
standard open-queue shape

    latency(rho) = idle_latency * (1 + gain * rho / (1 - rho))

with the utilization ``rho`` clamped below ``max_utilization``.  The
interval engine scales memory-stall latency by it at the bus
utilization it solves for.
"""

from __future__ import annotations

from repro.errors import MachineConfigError
from repro.machine.spec import MemorySpec


def queueing_latency_multiplier(utilization: float, spec: MemorySpec) -> float:
    """Latency inflation factor at a given bus utilization in [0, 1+).

    Monotonically non-decreasing; 1.0 at idle.  Utilization above
    ``spec.max_utilization`` is clamped so the model stays finite —
    physically, the bus saturates and *throughput* (handled separately
    by the engine) becomes the binding constraint.
    """
    if utilization < 0:
        raise MachineConfigError(f"utilization must be >= 0, got {utilization}")
    rho = min(utilization, spec.max_utilization)
    return 1.0 + spec.queue_gain * rho / (1.0 - rho)
