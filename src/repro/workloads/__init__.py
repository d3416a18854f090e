"""Workload models: the 25 applications of Table I plus the two
mini-benchmarks, each as a kernel (a trace generator for the trace
profiler's pinned check) and as the calibrated analytic profile the
interval engine consumes."""

from repro.workloads.base import (
    CodeRegion,
    RegionProfile,
    ScalingModel,
    Workload,
    WorkloadProfile,
)

__all__ = [
    "CodeRegion",
    "RegionProfile",
    "ScalingModel",
    "Workload",
    "WorkloadProfile",
]
