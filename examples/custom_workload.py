#!/usr/bin/env python
"""Characterize *your own* application against the interference fleet.

The library's trace layer measures a real kernel the way the paper
measured its workloads: push the access stream through one modelled
core's cache hierarchy, derive the miss-ratio curve from exact reuse
distances, and measure prefetchability by running the stream with the
core's prefetchers on and off (the model of flipping MSR 0x1A4) — then
the analytic profile co-runs against the calibrated Table I fleet to
predict which neighbours are safe.

Here the "user kernel" is a real blocked matrix multiply implemented in
this file; swap in your own trace generator.

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro import IntervalEngine, TraceProfiler, get_profile
from repro.machine import small_test_machine
from repro.trace.stream import AccessBatch
from repro.units import GB
from repro.workloads.addr import AddressMap
from repro.workloads.base import ScalingModel


def blocked_matmul_kernel(n: int = 96, block: int = 16, seed: int = 0):
    """A real tiled GEMM: computes C = A @ B and yields its trace."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    c = np.zeros((n, n))
    amap = AddressMap()
    amap.alloc("A", n * n, 8)
    amap.alloc("B", n * n, 8)
    amap.alloc("C", n * n, 8)
    batches: list[AccessBatch] = []
    for i0 in range(0, n, block):
        for j0 in range(0, n, block):
            for k0 in range(0, n, block):
                c[i0:i0 + block, j0:j0 + block] += (
                    a[i0:i0 + block, k0:k0 + block] @ b[k0:k0 + block, j0:j0 + block]
                )
                # A-tile rows (sequential), B-tile columns (strided).
                a_idx = (np.arange(block)[:, None] * n + np.arange(k0, k0 + block, 8)).ravel() + i0 * n
                b_idx = (np.arange(k0, k0 + block)[:, None] * n + np.arange(j0, j0 + block, 8)).ravel()
                batches.append(AccessBatch.from_lines(
                    amap.lines("A", a_idx), ip=1, instructions=4 * len(a_idx)))
                batches.append(AccessBatch.from_lines(
                    amap.lines("B", b_idx), ip=2, instructions=4 * len(b_idx)))
    # Verify the tiled result — this is a *real* computation.
    assert np.allclose(c, a @ b)
    return batches


def main() -> None:
    print("running + tracing the user kernel (tiled GEMM)...")
    batches = blocked_matmul_kernel()

    # 1. Measure it on the machine model.
    profiler = TraceProfiler(small_test_machine())
    char = profiler.characterize(iter(batches), max_accesses=40_000)
    print(f"  refs/kinstr      : {char.refs_per_kinstr:.0f}")
    print(f"  L2 MPKI          : {char.l2_mpki:.1f}")
    print(f"  prefetch coverage: {char.regularity:.2f}")
    print(f"  footprint        : {char.footprint_bytes / 1024:.0f} KiB")

    # 2. Build an engine profile (compute-side knobs supplied by you).
    profile = profiler.build_profile(
        "my-gemm", iter(batches),
        suite="custom", ipc_core=2.6, mlp=5.0,
        total_kinstr=2.0e8, scaling=ScalingModel(),
        max_accesses=40_000,
    )

    # 3. Predict safe neighbours from the calibrated fleet.
    engine = IntervalEngine()
    solo = engine.solo_run(profile, threads=4)
    print(f"\npredicted solo: {solo.runtime_s:.1f}s at "
          f"{solo.metrics.avg_bandwidth_bytes / GB:.1f} GB/s")
    print(f"\n{'neighbour':>14} {'my slowdown':>12} {'verdict':>10}")
    for neighbour in ("swaptions", "CIFAR", "IRSmk", "fotonik3d", "Stream"):
        res = engine.co_run(
            profile, get_profile(neighbour),
            fg_solo_runtime_s=solo.runtime_s,
        )
        verdict = "safe" if res.normalized_time < 1.2 else (
            "risky" if res.normalized_time < 1.5 else "avoid")
        print(f"{neighbour:>14} {res.normalized_time:>11.2f}x {verdict:>10}")


if __name__ == "__main__":
    main()
