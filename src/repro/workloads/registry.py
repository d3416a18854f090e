"""Workload registry: one place that knows every application.

Names the 27 workloads (the 25 applications of Table I plus the two
mini-benchmarks) and their suites, and maps each name to its calibrated
engine profile, so experiments and examples can look workloads up
uniformly:

>>> from repro.workloads.registry import get_profile
>>> profile = get_profile("G-PR")     # analytic profile for the engine
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadProfile
from repro.workloads.calibration import (
    APPLICATIONS,
    MINI_BENCHMARKS,
    SUITES,
    all_profiles,
    calibrated_profile,
)


def list_workloads(*, include_mini: bool = True) -> list[str]:
    """Names of all registered workloads in Table I order."""
    names = list(APPLICATIONS)
    if include_mini:
        names.extend(MINI_BENCHMARKS)
    return names


def suite_of(name: str) -> str:
    """Which benchmark suite a workload belongs to."""
    for suite, members in SUITES.items():
        if name in members:
            return suite
    if name in MINI_BENCHMARKS:
        return "mini-benchmarks"
    raise WorkloadError(f"unknown workload {name!r}")


def get_profile(name: str) -> WorkloadProfile:
    """The calibrated engine profile for ``name``."""
    return calibrated_profile(name)


def get_all_profiles() -> dict[str, WorkloadProfile]:
    """All calibrated profiles keyed by name."""
    return all_profiles()
