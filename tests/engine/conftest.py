"""Synthetic profiles used across the engine tests."""

import pytest

from repro.trace import MissRatioCurve
from repro.units import KiB, MiB
from repro.workloads.base import (
    CodeRegion,
    RegionProfile,
    ScalingModel,
    WorkloadProfile,
)


def make_profile(
    name: str,
    *,
    ipc: float = 2.0,
    l2_mpki: float = 5.0,
    mrc: MissRatioCurve | None = None,
    regularity: float = 0.0,
    mlp: float = 2.0,
    footprint: float = 4 * MiB,
    kinstr: float = 2e7,  # 20 G-instructions: ~10 s/thread at CPI 1.3
    scaling: ScalingModel | None = None,
    serial_weight: float = 0.0,
) -> WorkloadProfile:
    """One- or two-region profile for engine tests."""
    mrc = mrc if mrc is not None else MissRatioCurve.constant(0.5)
    regions = []
    if serial_weight > 0:
        regions.append(
            RegionProfile(
                region=CodeRegion(f"{name}.setup", f"{name}.c", 1, 10),
                weight=serial_weight,
                ipc_core=ipc,
                l2_mpki=1.0,
                mrc=MissRatioCurve.constant(0.3),
                regularity=0.5,
                mlp=2.0,
                footprint_bytes=1 * MiB,
                serial=True,
            )
        )
    regions.append(
        RegionProfile(
            region=CodeRegion(f"{name}.main", f"{name}.c", 20, 80),
            weight=1.0 - serial_weight,
            ipc_core=ipc,
            l2_mpki=l2_mpki,
            mrc=mrc,
            regularity=regularity,
            mlp=mlp,
            footprint_bytes=footprint,
        )
    )
    return WorkloadProfile(
        name=name,
        suite="test",
        total_kinstr=kinstr,
        regions=tuple(regions),
        scaling=scaling if scaling is not None else ScalingModel(),
    )


@pytest.fixture
def compute_bound():
    """Tiny footprint, almost no memory traffic (blackscholes-like)."""
    return make_profile(
        "compute", ipc=3.0, l2_mpki=0.3,
        mrc=MissRatioCurve.constant(0.2), footprint=256 * KiB,
    )


@pytest.fixture
def streaming():
    """Huge regular streams, prefetch-amplified (STREAM-like)."""
    return make_profile(
        "streamy", ipc=2.0, l2_mpki=35.0,
        mrc=MissRatioCurve.constant(0.95), regularity=1.0,
        mlp=8.0, footprint=64 * MiB,
    )


@pytest.fixture
def cache_friendly():
    """Benefits strongly from LLC capacity (graph-like victim)."""
    return make_profile(
        "cachey", ipc=2.0, l2_mpki=20.0,
        mrc=MissRatioCurve.from_points(
            [(1 * MiB, 0.95), (4 * MiB, 0.7), (20 * MiB, 0.25)]
        ),
        regularity=0.1, mlp=2.0, footprint=20 * MiB,
    )


@pytest.fixture
def bandit_like():
    """High bandwidth, near-zero cache footprint (Bandit-like)."""
    return make_profile(
        "banditty", ipc=2.0, l2_mpki=30.0,
        mrc=MissRatioCurve.constant(1.0), regularity=0.0,
        mlp=8.0, footprint=64 * KiB,
    )
