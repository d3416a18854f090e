"""repro — interference characterization of emerging DL, graph and HPC
workloads under consolidation.

A full reproduction of "Characterizing the Performance of Emerging Deep
Learning, Graph, and High Performance Computing Workloads Under
Interference" (Xu, Song, Mao — arXiv:2303.15763), built as a library:

* :mod:`repro.machine` — the modelled Xeon E5-4650 platform spec plus
  a one-core cache model (exact LRU caches and the four hardware
  prefetchers behind one switch) for the trace profiler;
* :mod:`repro.trace` — access streams, reuse distances, miss-ratio
  curves, and the profiler that turns a user's own kernel trace into
  an engine profile;
* :mod:`repro.workloads` — the 25 applications of Table I plus the
  Bandit/STREAM mini-benchmarks as calibrated engine profiles;
* :mod:`repro.engine` — the interval engine that co-executes profiles
  under LLC sharing and memory-bus contention;
* :mod:`repro.session` — the unified experiment substrate: a
  :class:`Session` runs an :class:`ExperimentConfig` and owns the
  machine spec, cross-experiment solo and scenario caches, the seeded
  jitter model, a pluggable executor that shards batch solves over a
  process or thread pool, and the registry of runners;
* :mod:`repro.store` — the persistent results database: a
  fingerprint-keyed on-disk solo/scenario cache (warm stores make cold
  processes bit-identical and ~15x faster), streamed ``RunRecord``\\ s
  with an append-only index and query API, and the ``repro run-all``
  campaign manifest;
* :mod:`repro.sched`, :mod:`repro.serve`, :mod:`repro.traffic` — the
  interference-aware scheduler, its daemon and its diurnal traffic
  days; :mod:`repro.telemetry` — spans and metrics of the pipeline;
* :mod:`repro.tools` — PCM-memory and VTune analogues;
* :mod:`repro.core` — the paper's experiments: one registered runner
  per figure and table, at the top of the stack.

No module beneath :mod:`repro.core` imports it or the CLI, and each
package resolves the names it re-exports on first use
(:mod:`repro._lazy`): ``import repro`` loads this package alone,
``from repro import Session`` loads the session layer and what it
stands on, and an artifact's runner loads when that artifact first
runs.

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

from repro._lazy import lazy_exports

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
    "get_all_profiles",
    "get_profile",
    "get_runner",
    "list_workloads",
    "register_runner",
    "runner_names",
    "xeon_e5_4650",
]

__getattr__ = lazy_exports(__name__, {
    "repro.engine": ("EngineConfig", "IntervalEngine"),
    "repro.machine.spec": ("MachineSpec", "xeon_e5_4650"),
    "repro.sched.classify": ("NWayVerdict", "PairClass", "classify_nway"),
    "repro.session": (
        "AppPlacement", "ExperimentConfig", "ParallelExecutor", "RunRecord", "Runner",
        "Scenario", "ScenarioResult", "ScenarioSet", "SerialExecutor", "Session",
        "ThreadExecutor", "get_runner", "register_runner", "runner_names",
    ),
    "repro.store": ("ResultStore",),
    "repro.trace.mrc": ("MissRatioCurve",),
    "repro.trace.profiler": ("TraceProfiler",),
    "repro.workloads.base": ("WorkloadProfile",),
    "repro.workloads.registry": ("get_all_profiles", "get_profile", "list_workloads"),
})
