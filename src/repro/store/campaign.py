"""Multi-process campaigns: many workers, one shared ResultStore.

The paper's characterization is a campaign of thousands of
solo/pair/consolidation cells; ``repro run-all`` executes it in one
process.  This module shards that campaign across N worker processes
that share a single store:

* :func:`shard_names` — the deterministic static partition behind
  ``repro run-all --shard I/N`` (run shard ``1/2`` on one host and
  ``2/2`` on another against the same store, in any order or at the
  same time);
* :func:`run_campaign` — the dynamic driver behind ``repro campaign``:
  fork ``workers`` processes over the runner registry with
  **work-stealing** — each worker walks the full artifact list and
  claims artifacts one at a time via atomic ``O_EXCL`` claim files, so
  a fast worker simply claims more.  Cells another worker already
  persisted are disk hits through the shared solo/scenario
  cache, never re-simulations;
* after the workers join, the campaign manifest is rebuilt from the
  store's merged index
  (:func:`~repro.store.manifest.write_manifest_from_store`) — run ids
  are content-addressed, so the result is ``store diff``-identical to
  a serial ``run-all``.

Claim files live under ``<root>/campaign/<token>/`` (one token per
campaign invocation) and are removed when the campaign completes; a
crashed campaign leaves them behind as a debugging breadcrumb, and the
next invocation mints a fresh token so stale claims never block it.

**Crashed-worker recovery:** a worker that dies mid-claim (OOM-killed,
segfault) used to fail the whole campaign.  Now, after every worker
has exited, the driver reconciles the claim files against the
completed-artifact reports: claims whose owner pid is verifiably dead
are re-queued and executed inline by the driver process (heaviest
first, mostly warm — whatever the dead worker persisted before dying
is served from the shared store).  A claim held by a *live* pid is
never stolen; that still fails the campaign rather than risk running
an artifact twice concurrently.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from repro.errors import CampaignError
from repro.session.registry import runner_names
from repro.store.store import ResultStore, _safe_name
from repro.telemetry.tracer import get_tracer

__all__ = ["parse_shard", "run_campaign", "shard_names"]

logger = logging.getLogger(__name__)


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse a ``--shard I/N`` spec into ``(index, count)``, 1-based.

    ``"1/2"`` is the first of two shards.  Raises
    :class:`CampaignError` on malformed or out-of-range specs.
    """
    try:
        index_s, count_s = spec.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise CampaignError(
            f"bad shard spec {spec!r}; expected I/N, e.g. --shard 1/2"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise CampaignError(
            f"shard index out of range in {spec!r}; need 1 <= I <= N"
        )
    return index, count


def shard_names(names: Sequence[str], index: int, count: int) -> list[str]:
    """Round-robin slice ``index``/``count`` (1-based) of an artifact
    list; the ``count`` shards are disjoint and cover every name."""
    return list(names[index - 1 :: count])


#: Static cost ranks for a cold store (heavier first) — measured once
#: on the reference roster; unknown artifacts default to light.  A
#: store with history overrides these with real recorded durations.
_STATIC_COST = {
    "predict": 100,
    "fig5": 90,
    "consolidate-n": 80,
    "fig6": 70,
    "fig8": 65,
    "fig2": 60,
    "table4": 50,
    "allocation": 45,
    "scenario-set": 40,
    "sched-replay": 42,
    "traffic-replay": 44,
    "cat-sweep": 38,
    "table3": 35,
    "fig4": 30,
}


def cost_ordered(names: Sequence[str], store: "ResultStore | None" = None) -> list[str]:
    """Order artifacts heaviest-first for LPT-style claim scheduling.

    A campaign's makespan is bounded by its most expensive artifact, so
    workers must start the heavy ones first — a worker that picks up
    ``predict`` last serializes the whole tail behind it.  Costs come
    from the store's own index when it has history (recorded
    ``duration_s`` of earlier canonical runs — the index doubles as the
    scheduler's cost model); artifacts never run before fall back to a
    static rank.
    """
    history: dict[str, float] = {}
    if store is not None:
        for entry in store.sink.entries():
            if entry.is_canonical and entry.duration_s > 0:
                history[entry.artifact] = entry.duration_s
    order = {n: i for i, n in enumerate(names)}
    return sorted(
        names,
        key=lambda n: (
            -history.get(n, -1.0),
            -_STATIC_COST.get(n, 10),
            order[n],
        ),
    )


def _claim(claim_dir: Path, name: str) -> bool:
    """Atomically claim one artifact for this process; False if another
    worker got there first.  ``O_CREAT | O_EXCL`` is the cross-process
    test-and-set — no lock needed, losers see ``FileExistsError``."""
    try:
        fd = os.open(
            claim_dir / f"{_safe_name(name)}.claim",
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return False
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
    finally:
        os.close(fd)
    return True


def _claim_owner(claim_path: Path) -> int | None:
    """The pid recorded in a claim file; ``None`` when the file is
    missing, torn or empty (a worker that died between creating the
    claim and writing its pid)."""
    try:
        text = claim_path.read_text().strip()
        return int(text) if text else None
    except (OSError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    """Signal-0 liveness probe; permission errors mean *alive*.

    On Windows ``os.kill(pid, 0)`` would *terminate* the process
    instead of probing it, so there we conservatively report every pid
    as alive — recovery degrades to failing the campaign rather than
    killing (or stealing from) a process that may still be running.
    """
    if pid <= 0:
        return False
    if os.name == "nt":  # pragma: no cover - POSIX CI
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


@dataclass(frozen=True)
class _CampaignTask:
    """Everything one worker process needs (picklable primitives)."""

    store_root: str
    config: Any
    names: tuple[str, ...]
    claim_dir: str
    executor: str | None


def _campaign_worker(task: _CampaignTask) -> dict[str, Any]:
    """Run inside one worker process: claim artifacts off the shared
    list and execute them through a store-backed session.

    Every worker walks the same heaviest-first list; the claim race is
    what assigns each next-heaviest artifact to the next free worker
    (greedy LPT scheduling).

    With telemetry enabled (inherited via ``REPRO_TELEMETRY``), the
    worker's lifecycle is phase-tagged: one ``campaign.worker`` span
    per phase (``PREPARING`` — store/session construction, ``RUNNING``
    — the claim/run loop with one nested ``campaign.artifact`` span per
    claimed artifact); the driver emits the ``MERGED`` phase around the
    manifest freeze.  Each worker process writes its own telemetry
    segment — one Chrome-trace lane per worker pid."""
    from repro.session.session import Session

    tracer = get_tracer()
    with tracer.span("campaign.worker", phase="PREPARING"):
        store = ResultStore(task.store_root)
        session = Session(task.config, store=store, executor=task.executor)
    claim_dir = Path(task.claim_dir)
    done: list[str] = []
    with tracer.span("campaign.worker", phase="RUNNING") as wsp:
        for name in task.names:
            if not _claim(claim_dir, name):
                continue
            logger.info("worker %d claimed %s", os.getpid(), name)
            if tracer.enabled:
                tracer.metrics.counter("campaign.claimed").inc()
                with tracer.span(
                    "campaign.artifact", artifact=name, phase="RUNNING"
                ):
                    session.run(name)
                tracer.metrics.counter("campaign.completed").inc()
            else:
                session.run(name)
            done.append(name)
        wsp.tag("claimed", len(done))
    tracer.flush()
    return {
        "pid": os.getpid(),
        "done": done,
        "cache": session.stats.snapshot(),
    }


def run_campaign(
    config: Any,
    store: "ResultStore | str | os.PathLike[str]",
    *,
    workers: int = 2,
    include_extensions: bool = True,
    manifest_path: "str | os.PathLike[str] | None" = None,
    executor: str | None = None,
) -> dict[str, Any]:
    """Execute every registered runner across ``workers`` processes
    sharing one store; freeze the campaign manifest from the merged
    index.  Returns a summary::

        {
          "workers": [{"pid": ..., "done": [...], "cache": {...}}, ...],
          "artifacts": ["fig2", ...],          # everything in the manifest
          "cache": {...},                      # campaign-wide totals
          "manifest_path": ".../manifest.json",
          "manifest": {...},
          "recovered": [...],                  # re-queued from dead workers
        }

    A worker process that dies mid-campaign no longer fails the run:
    its claims are re-queued once every worker has exited (see the
    module docstring) and the re-run artifacts are listed under
    ``"recovered"``.

    ``executor`` configures each worker's *inner* session
    fan-out (default serial — the campaign's parallelism is the worker
    processes themselves; an inner ``"thread"`` pool can stack on top,
    but a nested process pool usually just oversubscribes the host).
    """
    if workers < 1:
        raise CampaignError("workers must be >= 1")
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    names = tuple(runner_names(artifact_only=not include_extensions))
    ordered = tuple(cost_ordered(names, store))
    claim_dir = store.root / "campaign" / os.urandom(6).hex()
    claim_dir.mkdir(parents=True)
    tasks = [
        _CampaignTask(
            store_root=str(store.root),
            config=config,
            names=ordered,
            claim_dir=str(claim_dir),
            executor=executor,
        )
        for _ in range(workers)
    ]
    if workers == 1:
        worker_reports = [_campaign_worker(tasks[0])]
    else:
        # submit() one future per worker (not map): futures completed
        # before a sibling dies keep their reports, which is what lets
        # the recovery below know exactly which artifacts are missing.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_campaign_worker, t) for t in tasks]
            worker_reports = []
            for future in futures:
                try:
                    worker_reports.append(future.result())
                except BrokenProcessPool:
                    pass  # a worker died; reconciled against claims below
    claimed = [name for report in worker_reports for name in report["done"]]
    recovered: list[str] = []
    done = set(claimed)
    missing = [n for n in ordered if n not in done]
    if missing:
        # Crashed-worker recovery: every worker has exited by now, so a
        # missing artifact's claim belongs to nobody — unless its owner
        # pid is verifiably alive (an orphaned process still running),
        # in which case stealing it could run the artifact twice
        # concurrently and the campaign must fail instead.
        for name in missing:
            claim_path = claim_dir / f"{_safe_name(name)}.claim"
            if claim_path.exists():
                owner = _claim_owner(claim_path)
                if owner is not None and _pid_alive(owner):
                    raise CampaignError(
                        f"claim for {name!r} is held by live pid {owner}; "
                        f"refusing to re-queue (claims kept in {claim_dir})"
                    )
                claim_path.unlink(missing_ok=True)
        # Re-queue inline in the driver process, heaviest first.  The
        # shared store already holds everything the dead worker
        # persisted before dying, so this is mostly disk hits.
        logger.warning(
            "re-queuing %d artifact(s) from dead worker claim(s): %s",
            len(missing),
            ", ".join(missing),
        )
        report = _campaign_worker(replace(tasks[0], names=tuple(missing)))
        recovered = list(report["done"])
        report["recovered"] = recovered
        worker_reports.append(report)
        claimed = claimed + recovered
    if sorted(claimed) != sorted(names):
        # Exactly-once accounting: every artifact claimed and run by one
        # worker (or recovered by the driver).  A residual mismatch
        # means duplicate claims — a bug, not a crash.
        leftover = sorted(set(names) - set(claimed))
        raise CampaignError(
            f"campaign incomplete: {', '.join(leftover) or 'duplicate claims'} "
            f"(claims kept in {claim_dir} for inspection)"
        )
    from repro.store.manifest import write_manifest_from_store

    with get_tracer().span("campaign.worker", phase="MERGED", workers=workers):
        manifest = write_manifest_from_store(
            store,
            config,
            manifest_path,
            executor_name=f"campaign[{workers}]",
            include_extensions=include_extensions,
        )
    import shutil

    shutil.rmtree(claim_dir, ignore_errors=True)
    resolved_path = (
        Path(manifest_path) if manifest_path is not None else store.root / "manifest.json"
    )
    return {
        "workers": worker_reports,
        "artifacts": sorted(manifest["artifacts"]),
        "cache": dict(manifest["cache"]),
        "manifest_path": str(resolved_path),
        "manifest": manifest,
        #: Artifacts re-queued from dead workers' claims (empty on a
        #: clean run).
        "recovered": recovered,
    }
