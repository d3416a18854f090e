"""Synthetic access-pattern generators.

Reference patterns with known memory behaviour: sequential streams
(STREAM-like), uniform random, Zipf-skewed (graph vertex popularity)
and same-set conflict chases (the Bandit mini-benchmark's defining
trick, and its trace).

All generators are deterministic given a seed, yield
:class:`~repro.trace.stream.AccessBatch` chunks, and take an
``instructions_per_access`` knob so a workload can express its compute
density (blackscholes executes hundreds of FLOPs per touched line;
pointer chasing executes almost none).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.stream import AccessBatch

#: Default chunk size for generated batches.
_BATCH = 4096


def _check_positive(**kwargs: int | float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise TraceError(f"{name} must be positive, got {value}")


def _emit(
    lines: np.ndarray,
    *,
    ip: int,
    write_ratio: float,
    instructions_per_access: float,
    region: int,
    rng: np.random.Generator,
) -> Iterator[AccessBatch]:
    for start in range(0, len(lines), _BATCH):
        chunk = lines[start : start + _BATCH]
        writes = (
            rng.random(len(chunk)) < write_ratio
            if write_ratio > 0
            else np.zeros(len(chunk), dtype=bool)
        )
        yield AccessBatch(
            ips=np.full(len(chunk), ip, dtype=np.int64),
            lines=chunk.astype(np.int64),
            writes=writes,
            instructions=max(len(chunk), int(len(chunk) * instructions_per_access)),
            region=region,
        )


def sequential(
    n: int,
    *,
    start_line: int = 0,
    ip: int = 1,
    write_ratio: float = 0.0,
    instructions_per_access: float = 2.0,
    region: int = 0,
    seed: int = 0,
) -> Iterator[AccessBatch]:
    """Perfectly sequential line stream — the most prefetchable pattern."""
    _check_positive(n=n)
    rng = np.random.default_rng(seed)
    lines = start_line + np.arange(n, dtype=np.int64)
    yield from _emit(
        lines,
        ip=ip,
        write_ratio=write_ratio,
        instructions_per_access=instructions_per_access,
        region=region,
        rng=rng,
    )


def random_uniform(
    n: int,
    footprint_lines: int,
    *,
    base_line: int = 0,
    ip: int = 3,
    write_ratio: float = 0.0,
    instructions_per_access: float = 2.0,
    region: int = 0,
    seed: int = 0,
) -> Iterator[AccessBatch]:
    """Uniform random accesses within a footprint — prefetch-immune."""
    _check_positive(n=n, footprint_lines=footprint_lines)
    rng = np.random.default_rng(seed)
    lines = base_line + rng.integers(0, footprint_lines, size=n, dtype=np.int64)
    yield from _emit(
        lines,
        ip=ip,
        write_ratio=write_ratio,
        instructions_per_access=instructions_per_access,
        region=region,
        rng=rng,
    )


def zipf(
    n: int,
    footprint_lines: int,
    *,
    alpha: float = 1.1,
    base_line: int = 0,
    ip: int = 4,
    write_ratio: float = 0.0,
    instructions_per_access: float = 2.0,
    region: int = 0,
    seed: int = 0,
) -> Iterator[AccessBatch]:
    """Zipf-skewed accesses — hot-vertex behaviour of graph analytics.

    Ranks are drawn with probability proportional to 1/rank^alpha and
    shuffled onto line addresses so hotness is not spatially clustered.
    """
    _check_positive(n=n, footprint_lines=footprint_lines, alpha=alpha)
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, footprint_lines + 1, dtype=np.float64)
    probs = ranks**-alpha
    probs /= probs.sum()
    perm = rng.permutation(footprint_lines)
    draws = rng.choice(footprint_lines, size=n, p=probs)
    lines = base_line + perm[draws].astype(np.int64)
    yield from _emit(
        lines,
        ip=ip,
        write_ratio=write_ratio,
        instructions_per_access=instructions_per_access,
        region=region,
        rng=rng,
    )


def conflict_chase(
    n: int,
    *,
    n_sets: int = 16384,
    base_line: int = 0,
    ip: int = 6,
    instructions_per_access: float = 1.2,
    region: int = 0,
    seed: int = 0,
) -> Iterator[AccessBatch]:
    """Bandit-style stream: consecutive accesses map to the *same* cache
    set, so each conflicts with the previous one and every access goes
    to main memory while occupying almost no cache capacity.

    ``n_sets`` should be the LLC set count; line addresses step by
    exactly ``n_sets`` so the set index never changes.
    """
    _check_positive(n=n, n_sets=n_sets)
    rng = np.random.default_rng(seed)
    lines = base_line + np.arange(n, dtype=np.int64) * n_sets
    yield from _emit(
        lines,
        ip=ip,
        write_ratio=0.0,
        instructions_per_access=instructions_per_access,
        region=region,
        rng=rng,
    )
