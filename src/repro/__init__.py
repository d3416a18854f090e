"""repro — interference characterization of emerging DL, graph and HPC
workloads under consolidation.

A full reproduction of "Characterizing the Performance of Emerging Deep
Learning, Graph, and High Performance Computing Workloads Under
Interference" (Xu, Song, Mao — arXiv:2303.15763), built as a library:

* :mod:`repro.machine` — the modelled Xeon E5-4650 platform spec plus
  a one-core cache model (exact LRU caches and the four hardware
  prefetchers behind one switch) for the trace profiler;
* :mod:`repro.trace` — access streams, reuse distances, miss-ratio
  curves, and the kernel profiler;
* :mod:`repro.workloads` — the 25 applications of Table I plus the
  Bandit/STREAM mini-benchmarks, each a real algorithm with a trace
  generator, plus calibrated engine profiles;
* :mod:`repro.engine` — the interval engine that co-executes profiles
  under LLC sharing and memory-bus contention;
* :mod:`repro.tools` — PCM-memory and VTune analogues;
* :mod:`repro.core` — the paper's experiments: one registered runner
  per figure and table;
* :mod:`repro.session` — the unified experiment substrate: a
  :class:`Session` owns the machine spec, cross-experiment solo and
  scenario caches, the seeded jitter model, and a pluggable executor
  that shards batch solves over a process or thread pool;
* :mod:`repro.store` — the persistent results database: a
  fingerprint-keyed on-disk solo/scenario cache (warm stores make cold
  processes bit-identical and ~15x faster), streamed ``RunRecord``\\ s
  with an append-only index and query API, and the ``repro run-all``
  campaign manifest.

Quick start::

    from repro import ExperimentConfig, Session

    config = ExperimentConfig(workloads=("G-CC", "fotonik3d", "swaptions"))
    session = Session(config)
    record = session.run("fig5")            # the consolidation sweep
    matrix = record.result
    print(matrix.render_fig5())
    print(matrix.classify("G-CC", "fotonik3d").relationship)
    session.run("table3")                   # solo/pair caches shared
    record.to_json()                        # provenance + payload

Scale up with ``Session(config, executor="parallel")`` (bit-identical
to serial), persist across processes with
``Session(config, store=ResultStore(".repro-store"))``, run every
artifact with ``session.run_all()`` / ``repro run-all --store DIR``.

Beyond pairs, declarative :class:`Scenario` values express N-way
consolidations, LLC-policy ablations and SMT spec variants::

    res = session.run_scenario(Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2"))
    res.normalized_time                     # fg slowdown vs solo
    session.run_scenarios(ScenarioSet.consolidations(apps, n=3, threads=2))
"""

from repro.core import (
    ExperimentConfig,
    NWayVerdict,
    PairClass,
    classify_nway,
    classify_pair,
)
from repro.engine import EngineConfig, IntervalEngine
from repro.machine import MachineSpec, xeon_e5_4650
from repro.session import (
    AppPlacement,
    ParallelExecutor,
    RunRecord,
    Runner,
    Scenario,
    ScenarioResult,
    ScenarioSet,
    SerialExecutor,
    Session,
    ThreadExecutor,
    get_runner,
    register_runner,
    runner_names,
)
from repro.store import ResultStore
from repro.trace import MissRatioCurve, TraceProfiler
from repro.workloads.base import WorkloadProfile
from repro.workloads.registry import (
    get_all_profiles,
    get_profile,
    get_workload,
    list_workloads,
)

__version__ = "1.1.0"

__all__ = [
    "AppPlacement",
    "EngineConfig",
    "ExperimentConfig",
    "IntervalEngine",
    "ParallelExecutor",
    "ResultStore",
    "RunRecord",
    "Runner",
    "Scenario",
    "ScenarioResult",
    "ScenarioSet",
    "SerialExecutor",
    "Session",
    "ThreadExecutor",
    "MachineSpec",
    "MissRatioCurve",
    "NWayVerdict",
    "PairClass",
    "TraceProfiler",
    "WorkloadProfile",
    "__version__",
    "classify_nway",
    "classify_pair",
    "get_all_profiles",
    "get_profile",
    "get_runner",
    "get_workload",
    "list_workloads",
    "register_runner",
    "runner_names",
    "xeon_e5_4650",
]
