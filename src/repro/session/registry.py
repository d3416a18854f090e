"""The artifact registry: name -> Runner class.

:data:`BUILTIN_RUNNERS` lists each built-in runner's module, title and
order; the module is imported on the first lookup of the name, so
listing the registry (``repro list``, the CLI's parser) imports no
runner and a process loads only the runners it runs.  The module
registers its class under the bare name (``@register_runner("fig5")``).
A runner defined anywhere else registers at import time with its own
title, order and ``artifact`` flag, and lists and runs like the
built-ins.
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

from repro.errors import ExperimentError
from repro.session.base import Runner


class BuiltinRunner(NamedTuple):
    """Where a built-in runner lives and how the registry lists it."""

    module: str
    title: str
    order: int
    #: A paper artifact (run by ``run_all``) rather than an extension study.
    artifact: bool


#: Every built-in runner, in paper order: Table I ... Table IV, then the
#: extension studies.
BUILTIN_RUNNERS: dict[str, BuiltinRunner] = {
    "table1": BuiltinRunner("repro.core.roster", "application roster", 10, True),
    "fig2": BuiltinRunner("repro.core.scalability", "thread scalability curves", 20, True),
    "table2": BuiltinRunner(
        "repro.core.scalability", "Low/Medium/High scalability classes", 21, True
    ),
    "fig3": BuiltinRunner(
        "repro.core.bandwidth_sweep", "solo memory bandwidth at 1/4/8 threads", 30, True
    ),
    "fig4": BuiltinRunner(
        "repro.core.prefetch", "prefetcher sensitivity (MSR 0x1A4)", 40, True
    ),
    "fig5": BuiltinRunner(
        "repro.core.consolidation", "625-pair consolidation heat map", 50, True
    ),
    "table3": BuiltinRunner(
        "repro.core.pair_bandwidth", "problematic-pair bandwidth", 60, True
    ),
    "fig6": BuiltinRunner("repro.core.minibench", "co-run with Bandit / STREAM", 70, True),
    "fig7": BuiltinRunner("repro.core.provenance", "Gemini metrics under STREAM", 80, True),
    "fig8": BuiltinRunner(
        "repro.core.provenance", "Gemini metrics under real offenders", 81, True
    ),
    "table4": BuiltinRunner(
        "repro.core.provenance", "region-level profiles (gather / UUS)", 90, True
    ),
    "solo": BuiltinRunner(
        "repro.core.roster", "full solo characterization card per workload", 100, False
    ),
    "insights": BuiltinRunner(
        "repro.core.insights", "derived Section V findings from the Fig 5 matrix", 110, False
    ),
    "predict": BuiltinRunner(
        "repro.core.predictor",
        "Bubble-Up prediction vs engine ground truth (extension)", 120, False,
    ),
    "efficiency": BuiltinRunner(
        "repro.core.efficiency",
        "consolidation energy/throughput trade-off (extension)", 130, False,
    ),
    "allocation": BuiltinRunner(
        "repro.core.allocation", "asymmetric core-allocation sweep (extension)", 140, False
    ),
    "scenario": BuiltinRunner(
        "repro.core.nway", "one declarative consolidation scenario (extension)", 145, False
    ),
    "consolidate-n": BuiltinRunner(
        "repro.core.nway", "N-way consolidation degradation table (extension)", 146, False
    ),
    "scenario-set": BuiltinRunner(
        "repro.core.nway",
        "persisted ScenarioSet sweep with per-cell provenance (extension)", 147, False,
    ),
    "cat-sweep": BuiltinRunner(
        "repro.core.catsweep",
        "CAT way-mask allocation sweep with Pareto frontier (extension)", 149, False,
    ),
    "sched-replay": BuiltinRunner(
        "repro.sched.runner",
        "placement policies replayed over a seeded arrival trace (extension)", 150, False,
    ),
    "traffic-replay": BuiltinRunner(
        "repro.traffic.runner",
        "a diurnal traffic day replayed per policy, by the hour (extension)", 152, False,
    ),
}

_RUNNERS: dict[str, type[Runner]] = {}
_INSTANCES: dict[str, Runner] = {}


def register_runner(name: str, *, title: str = "", artifact: bool = True, order: int = 1000):
    """Class decorator registering a :class:`Runner` under an artifact
    name.  A built-in name takes its title, order and ``artifact`` flag
    from :data:`BUILTIN_RUNNERS`; any other name from the keywords."""

    def decorate(cls: type[Runner]) -> type[Runner]:
        if not issubclass(cls, Runner):
            raise ExperimentError(f"{cls.__name__} must subclass Runner")
        if name in _RUNNERS and _RUNNERS[name] is not cls:
            raise ExperimentError(f"artifact {name!r} already registered")
        builtin = BUILTIN_RUNNERS.get(name)
        cls.name = name
        if builtin is not None:
            cls.title, cls.order, cls.artifact = builtin.title, builtin.order, builtin.artifact
        else:
            cls.artifact = artifact
            cls.order = order
            if title:
                cls.title = title
        _RUNNERS[name] = cls
        return cls

    return decorate


def _runner_class(name: str) -> type[Runner]:
    cls = _RUNNERS.get(name)
    if cls is None and name in BUILTIN_RUNNERS:
        importlib.import_module(BUILTIN_RUNNERS[name].module)
        cls = _RUNNERS.get(name)
    if cls is None:
        raise ExperimentError(
            f"unknown artifact {name!r}; known: {', '.join(runner_names())}"
        )
    return cls


def get_runner(name: str) -> Runner:
    """The (stateless, cached) runner instance for an artifact name;
    the first lookup of a built-in name imports its module."""
    if name not in _INSTANCES:
        _INSTANCES[name] = _runner_class(name)()
    return _INSTANCES[name]


def runner_title(name: str) -> str:
    """The one-line title ``repro list`` shows for an artifact name,
    without importing a built-in runner's module."""
    builtin = BUILTIN_RUNNERS.get(name)
    return builtin.title if builtin is not None else _runner_class(name).title


def runner_names(*, artifact_only: bool = False) -> list[str]:
    """All registered artifact names in paper order, built-in runners
    included whether or not their modules are loaded."""
    listed = {n: (b.order, b.artifact) for n, b in BUILTIN_RUNNERS.items()}
    listed.update((n, (cls.order, cls.artifact)) for n, cls in _RUNNERS.items())
    names = [n for n, (_, art) in listed.items() if art or not artifact_only]
    return sorted(names, key=lambda n: (listed[n][0], n))
