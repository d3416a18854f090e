"""repro.session — the unified experiment substrate.

One :class:`Session` owns the machine spec, the cross-experiment solo
and scenario caches, the seeded jitter model and a pluggable executor;
each paper artifact is a registered :class:`Runner` returning a
structured :class:`RunRecord`::

    from repro import ExperimentConfig, Session

    session = Session(ExperimentConfig(), executor="parallel")
    record = session.run("fig5")
    print(record.result.render_fig5())
    record.to_json()                      # persistable provenance
"""

from repro.session.base import Runner, fingerprint, jsonify
from repro.session.executors import (
    MIN_PARALLEL_CELLS,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.session.record import RunRecord
from repro.session.registry import get_runner, register_runner, runner_names
from repro.session.scenario import (
    AppPlacement,
    Scenario,
    ScenarioResult,
    ScenarioSet,
    parse_pinning,
    parse_placement,
    parse_way_mask,
)
from repro.session.session import CacheStats, Session

__all__ = [
    "AppPlacement",
    "CacheStats",
    "Executor",
    "MIN_PARALLEL_CELLS",
    "ParallelExecutor",
    "RunRecord",
    "Runner",
    "Scenario",
    "ScenarioResult",
    "ScenarioSet",
    "SerialExecutor",
    "Session",
    "ThreadExecutor",
    "fingerprint",
    "get_runner",
    "jsonify",
    "parse_pinning",
    "parse_placement",
    "parse_way_mask",
    "register_runner",
    "resolve_executor",
    "runner_names",
]
