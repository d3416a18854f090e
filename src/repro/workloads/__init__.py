"""Workload models: the 25 applications of Table I plus the two
mini-benchmarks, each as the calibrated analytic profile the interval
engine consumes, and the address-space helper a user's own kernel
traces with."""

from repro.workloads.base import (
    CodeRegion,
    RegionProfile,
    ScalingModel,
    WorkloadProfile,
)

__all__ = [
    "CodeRegion",
    "RegionProfile",
    "ScalingModel",
    "WorkloadProfile",
]
