"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one paper artifact (figure or
table): the benchmark measures the experiment's runtime, and the
rendered rows/series are written to ``benchmarks/out/<artifact>.txt``
so the regenerated data can be compared against the paper.

Benches that measure a speedup additionally persist a machine-readable
``benchmarks/out/BENCH_<name>.json`` (``{"bench", "cells",
"wall_seconds", "speedup"}``) alongside the prose — the CI
benchmark-smoke job uploads both, so dashboards diff numbers instead
of parsing tables.  The repository's benchmark proper is declared in
``BENCHMARK.json`` and lives in ``perfbench/``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core import ExperimentConfig

OUT_DIR = Path(__file__).parent / "out"


def env_workloads(default: tuple[str, ...]) -> tuple[str, ...]:
    """Benchmark roster, overridable via REPRO_BENCH_WORKLOADS — the
    CI benchmark-smoke job sets e.g. ``G-CC,fotonik3d,swaptions`` to
    run the campaign-path benches on a tiny spec."""
    env = os.environ.get("REPRO_BENCH_WORKLOADS")
    if not env:
        return default
    return tuple(w.strip() for w in env.split(",") if w.strip()) or default


@pytest.fixture(scope="session")
def artifacts():
    """Callable that persists a rendered artifact and echoes it.

    Passing any of ``cells`` / ``wall_seconds`` / ``speedup`` also
    writes ``BENCH_<name>.json`` next to the prose, with the base
    schema ``{"bench", "cells", "wall_seconds", "speedup"}``; an
    optional ``extra`` dict merges additional bench-specific keys into
    that record (it cannot override the base keys).
    """
    OUT_DIR.mkdir(exist_ok=True)

    def write(
        name: str,
        text: str,
        *,
        cells: int | None = None,
        wall_seconds: float | None = None,
        speedup: float | None = None,
        extra: dict | None = None,
    ) -> Path:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text)
        print(f"\n[artifact] {path}\n{text}")
        if cells is not None or wall_seconds is not None or speedup is not None:
            bench = {
                **(extra or {}),
                "bench": name,
                "cells": cells,
                "wall_seconds": wall_seconds,
                "speedup": speedup,
            }
            payload = json.dumps(bench, sort_keys=True) + "\n"
            (OUT_DIR / f"BENCH_{name}.json").write_text(payload)
        return path

    return write


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """The paper's protocol: 4 threads per app, 3 repetitions."""
    return ExperimentConfig(threads=4, repetitions=3, jitter=0.01, seed=0)


@pytest.fixture(scope="session")
def exact_config() -> ExperimentConfig:
    """Jitter-free config for artifacts where exact values are compared."""
    return ExperimentConfig(threads=4, repetitions=1, jitter=0.0)
