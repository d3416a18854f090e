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
—         Harmony / Victim-Offender / Both-Victim     :func:`classify_pair`
Table III problematic-pair bandwidth                  ``table3``
Fig 6     co-run with Bandit / STREAM                 ``fig6``
Fig 7     Gemini metrics under STREAM                 ``fig7``
Fig 8     Gemini metrics under real offenders         ``fig8``
Table IV  region-level profiles (gather / UUS)        ``table4``
========  ==========================================  ============

The historical ``run_*`` functions remain as thin wrappers delegating
to the registry, so existing callers keep working unchanged.
"""

from repro.core.bandwidth_sweep import (
    FIG3_THREADS,
    BandwidthResult,
    run_bandwidth_sweep,
)
from repro.core.classify import (
    VICTIM_THRESHOLD,
    NWayVerdict,
    PairClass,
    PairVerdict,
    classify_nway,
    classify_pair,
)
from repro.core.catsweep import (
    CatSweepPoint,
    CatSweepResult,
    contiguous_split,
    run_cat_sweep,
)
from repro.core.consolidation import ConsolidationMatrix, run_consolidation
from repro.core.allocation import (
    AllocationPoint,
    AllocationSweep,
    run_allocation_sweep,
)
from repro.core.efficiency import EfficiencyResult, EfficiencyRow, run_efficiency
from repro.core.experiment import ExperimentConfig, Jitter
from repro.core.insights import AppRoleScores, MatrixInsights
from repro.core.predictor import (
    DEFAULT_LEVELS,
    BubbleUpPredictor,
    PredictionReport,
    SensitivityCurve,
    bubble_profile,
)
from repro.core import roster  # noqa: F401  (registers table1/solo runners)
from repro.core.minibench import (
    MINI_BENCH_BACKGROUNDS,
    MiniBenchResult,
    run_minibench,
)
from repro.core.nway import (
    NWayCell,
    NWayDegradationTable,
    run_nway_consolidation,
)
from repro.core.pair_bandwidth import (
    TABLE3_PAIRS,
    PairBandwidthResult,
    PairBandwidthRow,
    run_pair_bandwidth,
)
from repro.core.prefetch import (
    SENSITIVE_THRESHOLD,
    PrefetchResult,
    run_prefetch_sensitivity,
)
from repro.core.provenance import (
    GEMINI_APPS,
    OFFENDERS,
    TABLE4_SUBJECTS,
    MetricQuad,
    ProvenanceResult,
    run_gemini_vs_offenders,
    run_gemini_vs_stream,
    run_table4,
)
from repro.core.report import ascii_table, csv_table, shade, text_heatmap
from repro.sched import runner as _sched_runner  # noqa: F401  (registers sched-replay)
from repro.traffic import runner as _traffic_runner  # noqa: F401  (registers traffic-replay)
from repro.core.scalability import (
    HIGH_THRESHOLD,
    LOW_THRESHOLD,
    ScalabilityClass,
    ScalabilityResult,
    classify_speedup,
    run_scalability,
)

__all__ = [
    "AllocationPoint",
    "AllocationSweep",
    "AppRoleScores",
    "run_allocation_sweep",
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
    "run_efficiency",
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
    "run_cat_sweep",
    "NWayDegradationTable",
    "OFFENDERS",
    "PairBandwidthResult",
    "PairBandwidthRow",
    "PairClass",
    "PairVerdict",
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
    "classify_pair",
    "classify_speedup",
    "csv_table",
    "run_bandwidth_sweep",
    "run_consolidation",
    "run_gemini_vs_offenders",
    "run_gemini_vs_stream",
    "run_minibench",
    "run_nway_consolidation",
    "run_pair_bandwidth",
    "run_prefetch_sensitivity",
    "run_scalability",
    "run_table4",
    "shade",
    "text_heatmap",
]
