"""Pluggable execution backends for the batch engine's shards.

:meth:`Session.run_scenarios` partitions its cache-missing cells (when
two or more miss) into engine-compatible shards and hands them to
``session.executor.map_batches``; each shard is one
:func:`repro.engine.solve_batch` call.  Three backends:

* :class:`SerialExecutor` — the default; runs shards in-process.
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out.  Shard functions are module-level (picklable) and rebuild
  their engine from the shard's spec + engine config, so worker results
  are bit-identical to the serial backend (the engine is deterministic
  and measurement jitter is keyed per cell, not drawn sequentially).
* :class:`ThreadExecutor` — a :class:`concurrent.futures.ThreadPoolExecutor`
  fan-out for hosts where fork/spawn startup dominates the sweep.  The
  numpy-heavy engine kernels release the GIL often enough for modest
  thread counts to help, and there is no pickling or process-spawn
  cost at all.

Executors only ever see pure functions over picklable shards; all
shared state (solo caches, jitter seeds) is resolved by the session
*before* the fan-out and shipped inside the shards.  That discipline is
what lets the three backends produce identical bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import ExperimentError

#: Fan-outs below this many cells run in-process even on parallel
#: executors: pool spawn + pickling overhead loses to just computing
#: tiny sweeps.
MIN_PARALLEL_CELLS = 16


@runtime_checkable
class Executor(Protocol):
    """Minimal mapping interface the session relies on."""

    name: str
    parallel: bool

    def map_batches(
        self, fn: Callable[[Any], Any], batches: Iterable[Any]
    ) -> list[Any]:
        """Apply ``fn`` to every *batch* of tasks, preserving order.

        A batch is a sized collection of cells solved together (the
        batch engine's shard unit); ``len(batch)`` counts its cells.
        Parallel backends dispatch one batch per worker round-trip and
        fall back to in-process execution when the total cell count is
        below :data:`MIN_PARALLEL_CELLS`.
        """
        ...


class SerialExecutor:
    """In-process, in-order execution (the default)."""

    name = "serial"
    parallel = False

    def map_batches(
        self, fn: Callable[[Any], Any], batches: Iterable[Any]
    ) -> list[Any]:
        return [fn(b) for b in batches]


class ParallelExecutor:
    """Process-pool fan-out over batch-engine shards.

    ``max_workers`` defaults to the host's CPU count.  Fan-outs of one
    shard, or of fewer than :data:`MIN_PARALLEL_CELLS` cells, skip the
    pool entirely.
    """

    parallel = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ExperimentError("max_workers must be >= 1")
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)

    @property
    def name(self) -> str:
        return f"process-pool[{self.max_workers}]"

    def map_batches(
        self, fn: Callable[[Any], Any], batches: Iterable[Any]
    ) -> list[Any]:
        items: Sequence[Any] = list(batches)
        cells = sum(len(b) for b in items)
        if len(items) <= 1 or cells < MIN_PARALLEL_CELLS:
            return [fn(b) for b in items]
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(fn, items, chunksize=1))
        except BrokenProcessPool as exc:
            raise ExperimentError(
                f"a worker process died during a {cells}-cell batched sweep "
                "(out of memory or killed); retry with fewer --workers or "
                "--executor thread"
            ) from exc


class ThreadExecutor:
    """Thread-pool fan-out: no fork/spawn or pickling overhead.

    Shards run in the parent process, so this backend also serves hosts
    where process pools are unavailable (restricted sandboxes) —
    results stay bit-identical because shard functions are pure and the
    engine is deterministic.
    """

    parallel = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ExperimentError("max_workers must be >= 1")
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)

    @property
    def name(self) -> str:
        return f"thread-pool[{self.max_workers}]"

    def map_batches(
        self, fn: Callable[[Any], Any], batches: Iterable[Any]
    ) -> list[Any]:
        items: Sequence[Any] = list(batches)
        if len(items) <= 1 or sum(len(b) for b in items) < MIN_PARALLEL_CELLS:
            return [fn(b) for b in items]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(fn, items))


def resolve_executor(value: "Executor | str | None") -> Executor:
    """Normalize an executor argument: instance, name, or None (serial)."""
    if value is None:
        return SerialExecutor()
    if isinstance(value, str):
        if value == "serial":
            return SerialExecutor()
        if value in ("parallel", "process", "process-pool"):
            return ParallelExecutor()
        if value in ("thread", "threads", "thread-pool"):
            return ThreadExecutor()
        raise ExperimentError(
            f"unknown executor {value!r}; use 'serial', 'parallel' or 'thread'"
        )
    if isinstance(value, Executor):
        return value
    raise ExperimentError(f"not an executor: {value!r}")
