"""The paper's contribution: the interference characterization harness.

One registered :class:`~repro.session.base.Runner` per paper artifact,
all executing through the shared :class:`~repro.session.session.Session`
substrate (``Session(config).run("fig5")``, ``session.run_all()``):

========  ==========================================  ============
artifact  experiment                                  registry id
========  ==========================================  ============
Table I   application roster                          ``table1``
Fig 2     thread scalability curves                   ``fig2``
Table II  Low/Medium/High scalability classes         ``table2``
Fig 3     solo bandwidth at 1/4/8 threads             ``fig3``
Fig 4     prefetcher sensitivity (MSR 0x1A4)          ``fig4``
Fig 5     625-pair consolidation heat map             ``fig5``
—         Harmony / Victim-Offender / Both-Victim     :func:`classify_nway`
Table III problematic-pair bandwidth                  ``table3``
Fig 6     co-run with Bandit / STREAM                 ``fig6``
Fig 7     Gemini metrics under STREAM                 ``fig7``
Fig 8     Gemini metrics under real offenders         ``fig8``
Table IV  region-level profiles (gather / UUS)        ``table4``
========  ==========================================  ============

The registry imports a runner's module on the first lookup of its
name (:data:`~repro.session.registry.BUILTIN_RUNNERS`) and this
package resolves its exports on first use, so ``import repro.core``
loads no runner.  Some exports live beneath it: ``ExperimentConfig``
and ``Jitter`` in :mod:`repro.session`, the taxonomy in
:mod:`repro.sched.classify`, ``contiguous_split`` in
:mod:`repro.sched.policy` and ``ascii_table`` in :mod:`repro.tables`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AllocationPoint",
    "AllocationSweep",
    "AppRoleScores",
    "BandwidthResult",
    "BubbleUpPredictor",
    "ConsolidationMatrix",
    "DEFAULT_LEVELS",
    "EfficiencyResult",
    "EfficiencyRow",
    "ExperimentConfig",
    "MatrixInsights",
    "SensitivityCurve",
    "bubble_profile",
    "FIG3_THREADS",
    "GEMINI_APPS",
    "HIGH_THRESHOLD",
    "Jitter",
    "LOW_THRESHOLD",
    "MINI_BENCH_BACKGROUNDS",
    "MetricQuad",
    "MiniBenchResult",
    "CatSweepPoint",
    "CatSweepResult",
    "NWayCell",
    "NWayVerdict",
    "classify_nway",
    "contiguous_split",
    "NWayDegradationTable",
    "OFFENDERS",
    "PairBandwidthResult",
    "PairBandwidthRow",
    "PairClass",
    "PredictionReport",
    "PrefetchResult",
    "ProvenanceResult",
    "SENSITIVE_THRESHOLD",
    "ScalabilityClass",
    "ScalabilityResult",
    "TABLE3_PAIRS",
    "TABLE4_SUBJECTS",
    "VICTIM_THRESHOLD",
    "ascii_table",
    "classify_speedup",
    "csv_table",
    "shade",
    "text_heatmap",
]

__getattr__ = lazy_exports(__name__, {
    "repro.core.allocation": ("AllocationPoint", "AllocationSweep"),
    "repro.core.bandwidth_sweep": ("FIG3_THREADS", "BandwidthResult"),
    "repro.core.catsweep": ("CatSweepPoint", "CatSweepResult"),
    "repro.core.consolidation": ("ConsolidationMatrix",),
    "repro.core.efficiency": ("EfficiencyResult", "EfficiencyRow"),
    "repro.core.insights": ("AppRoleScores", "MatrixInsights"),
    "repro.core.minibench": ("MINI_BENCH_BACKGROUNDS", "MiniBenchResult"),
    "repro.core.nway": ("NWayCell", "NWayDegradationTable"),
    "repro.core.pair_bandwidth": ("TABLE3_PAIRS", "PairBandwidthResult", "PairBandwidthRow"),
    "repro.core.predictor": (
        "DEFAULT_LEVELS", "BubbleUpPredictor", "PredictionReport", "SensitivityCurve",
        "bubble_profile",
    ),
    "repro.core.prefetch": ("SENSITIVE_THRESHOLD", "PrefetchResult"),
    "repro.core.provenance": (
        "GEMINI_APPS", "OFFENDERS", "TABLE4_SUBJECTS", "MetricQuad", "ProvenanceResult",
    ),
    "repro.core.report": ("csv_table", "shade", "text_heatmap"),
    "repro.core.scalability": (
        "HIGH_THRESHOLD", "LOW_THRESHOLD", "ScalabilityClass", "ScalabilityResult",
        "classify_speedup",
    ),
    "repro.sched.classify": ("VICTIM_THRESHOLD", "NWayVerdict", "PairClass", "classify_nway"),
    "repro.sched.policy": ("contiguous_split",),
    "repro.session": ("ExperimentConfig", "Jitter"),
    "repro.tables": ("ascii_table",),
})
