"""Calibrated analytic profiles for the 25 applications + 2 mini-benchmarks.

Every entry anchors an application's *solo-run* characteristics to the
paper's own measurements:

* memory bandwidth at 1/4/8 threads (Fig 3, Table III),
* thread-scaling class and curve shape (Fig 2, Table II),
* prefetcher sensitivity (Fig 4),
* solo CPI / LLC MPKI / L2_PCP where reported (Table IV, Fig 7/8
  "no interference" bars).

Only solo behaviour is calibrated.  All co-running outcomes — the 625-
pair heat map, the mini-benchmark slowdowns, the metric inflations —
emerge from the engine's LLC-sharing and bus-contention mechanics.

Parameter provenance (how each field was chosen):

* ``l2_mpki`` and ``write_fraction`` are solved so that 4-thread solo
  bandwidth matches Fig 3 / Table III given the CPI implied by the
  other fields;
* ``mrc`` slopes encode how much each app benefits from LLC capacity:
  flat-high for pure streams (STREAM, fotonik3d, IRSmk), steep for
  graph analytics (the paper's victims), low floors for cache-resident
  codes;
* ``regularity`` encodes Fig 4: ~0.9 for the prefetcher-sensitive set
  (streamcluster, HPC, fotonik3d), ~0.1-0.25 for graph/ML/pointer codes;
* ``mlp`` separates throughput-optimized engines (Gemini ~6) from
  dependent-load chasers (mcf, xalancbmk ~2);
* ``scaling`` encodes the two algorithmic pathologies the paper calls
  out: ATIS's barrier (sync CPI) and P-SSSP's identical-weight
  redundancy (work inflation), plus AMG's serial setup phases.

The name tables (:data:`SUITES`, :data:`APPLICATIONS`,
:data:`MINI_BENCHMARKS`) are plain tuples, ready at import.  The 27
profiles and their miss-ratio curves (numpy arrays) are built on the
first lookup (:func:`calibrated_profile` or :func:`all_profiles`), once
per process, so the CLI's parsers and a daemon answering from a warm
store never build them.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.errors import WorkloadError
from repro.units import KiB, MiB
from repro.workloads.base import (
    CodeRegion,
    RegionProfile,
    ScalingModel,
    WorkloadProfile,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.mrc import MissRatioCurve


def _mrc(*points: tuple[float, float]) -> MissRatioCurve:
    from repro.trace.mrc import MissRatioCurve

    return MissRatioCurve.from_points(list(points))


def _one_region(
    name: str,
    suite: str,
    region: CodeRegion,
    *,
    kinstr: float,
    ipc: float,
    mpki: float,
    mrc: MissRatioCurve,
    reg: float,
    mlp: float,
    wf: float = 0.25,
    fp: float = 8 * MiB,
    bw_eff: float = 1.0,
    scaling: ScalingModel | None = None,
) -> WorkloadProfile:
    return WorkloadProfile(
        name=name,
        suite=suite,
        total_kinstr=kinstr,
        regions=(
            RegionProfile(
                region=region, weight=1.0, ipc_core=ipc, l2_mpki=mpki,
                mrc=mrc, regularity=reg, mlp=mlp, write_fraction=wf,
                footprint_bytes=fp, bw_efficiency=bw_eff,
            ),
        ),
        scaling=scaling if scaling is not None else ScalingModel(),
    )


def _build_profiles() -> dict[str, WorkloadProfile]:
    from repro.trace.mrc import MissRatioCurve

    # Steep graph-analytics MRCs: big win from LLC capacity, the paper's
    # victim mechanism (Figs 7c/8c).
    graph_mrc = _mrc((512 * KiB, 0.95), (2 * MiB, 0.86), (6 * MiB, 0.72), (20 * MiB, 0.36))
    graph_mrc_light = _mrc((512 * KiB, 0.97), (2 * MiB, 0.85), (6 * MiB, 0.58), (20 * MiB, 0.28))

    p: dict[str, WorkloadProfile] = {}

    # ---------------- GeminiGraph ----------------
    gem = ScalingModel()
    p["G-PR"] = _one_region(
        "G-PR", "GeminiGraph", CodeRegion("pull_edge_loop", "pagerank.c", 63, 70),
        kinstr=3.6e8, ipc=2.2, mpki=65, mrc=graph_mrc, reg=0.15, mlp=8.0,
        fp=26 * MiB, scaling=gem,
    )
    p["G-CC"] = _one_region(
        "G-CC", "GeminiGraph", CodeRegion("label_propagate", "cc.c", 64, 72),
        kinstr=3.2e8, ipc=2.2, mpki=72, mrc=graph_mrc, reg=0.15, mlp=8.0,
        fp=28 * MiB, scaling=gem,
    )
    p["G-BC"] = _one_region(
        "G-BC", "GeminiGraph", CodeRegion("dependency_accum", "bc.c", 76, 88),
        kinstr=4.0e8, ipc=2.2, mpki=52, mrc=graph_mrc_light, reg=0.15, mlp=7.5,
        fp=24 * MiB, scaling=gem,
    )
    p["G-BFS"] = _one_region(
        "G-BFS", "GeminiGraph", CodeRegion("frontier_expand", "bfs.c", 53, 61),
        kinstr=2.4e8, ipc=2.3, mpki=40, mrc=graph_mrc_light, reg=0.15, mlp=6.5,
        fp=22 * MiB, scaling=gem,
    )
    p["G-SSSP"] = _one_region(
        "G-SSSP", "GeminiGraph", CodeRegion("relax_edges", "sssp.c", 65, 74),
        kinstr=3.0e8, ipc=2.2, mpki=42, mrc=graph_mrc, reg=0.12, mlp=4.0,
        fp=24 * MiB,
        scaling=ScalingModel(work_inflation_coeff=0.06, work_inflation_exp=1.0),
    )

    # ---------------- PowerGraph ----------------
    p["P-PR"] = _one_region(
        "P-PR", "PowerGraph", CodeRegion("gather", "pagerank.c", 63, 66),
        kinstr=5.5e8, ipc=1.6, mpki=34, mrc=_mrc(
            (512 * KiB, 0.9), (2 * MiB, 0.8), (6 * MiB, 0.66), (20 * MiB, 0.42)
        ),
        reg=0.12, mlp=4.0, fp=22 * MiB,
    )
    p["P-CC"] = _one_region(
        "P-CC", "PowerGraph", CodeRegion("gather_min_label", "cc.c", 55, 62),
        kinstr=5.0e8, ipc=1.6, mpki=30, mrc=_mrc(
            (512 * KiB, 0.88), (2 * MiB, 0.76), (6 * MiB, 0.62), (20 * MiB, 0.4)
        ),
        reg=0.12, mlp=4.0, fp=20 * MiB,
    )
    p["P-SSSP"] = _one_region(
        "P-SSSP", "PowerGraph", CodeRegion("gather_min_dist", "sssp.c", 58, 66),
        kinstr=4.5e8, ipc=1.6, mpki=26, mrc=_mrc(
            (512 * KiB, 0.85), (6 * MiB, 0.6), (20 * MiB, 0.42)
        ),
        reg=0.12, mlp=3.6, fp=20 * MiB,
        scaling=ScalingModel(work_inflation_coeff=0.48, work_inflation_exp=1.0),
    )

    # ---------------- CNTK ----------------
    p["CIFAR"] = _one_region(
        "CIFAR", "CNTK", CodeRegion("im2col_gemm", "convolution.cpp", 112, 140),
        kinstr=6.0e8, ipc=2.8, mpki=11.5, mrc=_mrc(
            (1 * MiB, 0.75), (4 * MiB, 0.55), (16 * MiB, 0.38)
        ),
        reg=0.3, mlp=6.0, fp=14 * MiB,
        scaling=ScalingModel(sync_cpi_coeff=0.01, sync_cpi_exp=1.4),
    )
    p["MNIST"] = _one_region(
        "MNIST", "CNTK", CodeRegion("im2col_gemm", "convolution.cpp", 112, 140),
        kinstr=4.5e8, ipc=2.8, mpki=7, mrc=_mrc(
            (1 * MiB, 0.7), (4 * MiB, 0.5), (12 * MiB, 0.33)
        ),
        reg=0.3, mlp=6.0, fp=10 * MiB,
    )
    p["LSTM"] = _one_region(
        "LSTM", "CNTK", CodeRegion("lstm_step_gemm", "recurrentnodes.cpp", 204, 231),
        kinstr=5.0e8, ipc=2.6, mpki=7.5, mrc=_mrc(
            (1 * MiB, 0.6), (4 * MiB, 0.35), (8 * MiB, 0.22)
        ),
        reg=0.3, mlp=5.0, fp=6 * MiB,
        scaling=ScalingModel(sync_cpi_coeff=0.008, sync_cpi_exp=1.4),
    )
    p["ATIS"] = WorkloadProfile(
        name="ATIS", suite="CNTK", total_kinstr=2.2e8,
        regions=(
            RegionProfile(
                region=CodeRegion("tagger_forward", "atis.cpp", 44, 71),
                weight=0.97, ipc_core=2.4, l2_mpki=4.0,
                mrc=_mrc((512 * KiB, 0.5), (4 * MiB, 0.2)),
                regularity=0.3, mlp=3.0, footprint_bytes=3 * MiB,
            ),
            RegionProfile(
                region=CodeRegion("kmp_hyper_barrier_release", "kmp_barrier.cpp", 1, 1),
                weight=0.03, ipc_core=2.4, l2_mpki=0.2,
                mrc=MissRatioCurve.constant(0.1),
                regularity=0.0, mlp=2.0, footprint_bytes=64 * KiB,
            ),
        ),
        scaling=ScalingModel(sync_cpi_coeff=0.45, sync_cpi_exp=1.05),
        sync_region_name="kmp_hyper_barrier_release",
    )

    # ---------------- PARSEC ----------------
    p["blackscholes"] = _one_region(
        "blackscholes", "PARSEC",
        CodeRegion("BlkSchlsEqEuroNoDiv", "blackscholes.c", 255, 291),
        kinstr=9.0e8, ipc=3.2, mpki=0.4, mrc=MissRatioCurve.constant(0.3),
        reg=0.6, mlp=4.0, fp=1 * MiB,
    )
    p["freqmine"] = _one_region(
        "freqmine", "PARSEC", CodeRegion("FP_growth", "fp_tree.cpp", 310, 371),
        kinstr=7.0e8, ipc=2.2, mpki=2.0,
        mrc=_mrc((1 * MiB, 0.45), (8 * MiB, 0.25)), reg=0.2, mlp=3.0, fp=6 * MiB,
    )
    p["swaptions"] = _one_region(
        "swaptions", "PARSEC", CodeRegion("HJM_SimPath_Forward", "HJM_SimPath.c", 45, 102),
        kinstr=9.0e8, ipc=3.0, mpki=0.3, mrc=MissRatioCurve.constant(0.25),
        reg=0.5, mlp=4.0, fp=1 * MiB,
    )
    p["streamcluster"] = _one_region(
        "streamcluster", "PARSEC", CodeRegion("pgain", "streamcluster.cpp", 652, 744),
        kinstr=5.0e8, ipc=2.0, mpki=20, mrc=_mrc(
            (1 * MiB, 0.95), (8 * MiB, 0.85), (20 * MiB, 0.74)
        ),
        reg=0.6, mlp=7.0, wf=0.2, fp=32 * MiB, bw_eff=0.75,
    )

    # ---------------- HPC ----------------
    p["lulesh"] = _one_region(
        "lulesh", "HPC", CodeRegion("EvalEOSForElems", "lulesh.cc", 1260, 1308),
        kinstr=6.5e8, ipc=2.4, mpki=10, mrc=_mrc(
            (1 * MiB, 0.8), (8 * MiB, 0.55), (20 * MiB, 0.42)
        ),
        reg=0.75, mlp=6.0, wf=0.2, fp=24 * MiB,
    )
    p["IRSmk"] = _one_region(
        "IRSmk", "HPC", CodeRegion("rmatmult3", "irsmk.c", 37, 118),
        kinstr=4.2e8, ipc=2.0, mpki=19, mrc=_mrc(
            (1 * MiB, 0.95), (20 * MiB, 0.86)
        ),
        reg=0.6, mlp=8.0, wf=0.15, fp=40 * MiB, bw_eff=0.8,
    )
    p["AMG2006"] = WorkloadProfile(
        name="AMG2006", suite="HPC", total_kinstr=4.0e8,
        regions=(
            RegionProfile(
                region=CodeRegion("setup_fine_grid", "amg_setup.c", 120, 168),
                weight=0.21, ipc_core=2.2, l2_mpki=3.0,
                mrc=_mrc((1 * MiB, 0.6), (8 * MiB, 0.3)),
                regularity=0.6, mlp=4.0, footprint_bytes=8 * MiB, serial=True,
            ),
            RegionProfile(
                region=CodeRegion("setup_coarse_hierarchy", "amg_setup.c", 200, 266),
                weight=0.18, ipc_core=2.2, l2_mpki=5.0,
                mrc=_mrc((1 * MiB, 0.65), (8 * MiB, 0.35)),
                regularity=0.6, mlp=4.0, footprint_bytes=8 * MiB, serial=True,
            ),
            RegionProfile(
                region=CodeRegion("vcycle_solve", "amg_solve.c", 77, 140),
                weight=0.61, ipc_core=2.0, l2_mpki=21,
                mrc=_mrc((1 * MiB, 0.9), (8 * MiB, 0.75), (20 * MiB, 0.62)),
                regularity=0.6, mlp=7.0, footprint_bytes=30 * MiB,
                bw_efficiency=0.85,
            ),
        ),
    )

    # ---------------- SPEC CPU2017 ----------------
    p["cactuBSSN"] = _one_region(
        "cactuBSSN", "SPEC CPU2017",
        CodeRegion("ML_BSSN_RHS", "ML_BSSN_EvolutionInterior.cc", 301, 402),
        kinstr=8.0e8, ipc=2.6, mpki=6, mrc=_mrc((1 * MiB, 0.7), (16 * MiB, 0.4)),
        reg=0.35, mlp=6.0, fp=16 * MiB,
    )
    p["xalancbmk"] = _one_region(
        "xalancbmk", "SPEC CPU2017",
        CodeRegion("transformNode", "XSLTEngineImpl.cpp", 611, 689),
        kinstr=6.0e8, ipc=2.0, mpki=5, mrc=_mrc((1 * MiB, 0.55), (8 * MiB, 0.25)),
        reg=0.1, mlp=1.8, fp=8 * MiB,
        scaling=ScalingModel(sync_cpi_coeff=0.02, sync_cpi_exp=1.3),
    )
    p["deepsjeng"] = _one_region(
        "deepsjeng", "SPEC CPU2017", CodeRegion("search", "search.cpp", 404, 498),
        kinstr=8.0e8, ipc=2.8, mpki=1.2, mrc=_mrc((1 * MiB, 0.35), (4 * MiB, 0.15)),
        reg=0.1, mlp=3.0, fp=3 * MiB,
    )
    p["fotonik3d"] = WorkloadProfile(
        name="fotonik3d", suite="SPEC CPU2017", total_kinstr=3.6e8,
        regions=(
            RegionProfile(
                region=CodeRegion("UUS", "update.F90", 33, 92),
                weight=0.9, ipc_core=1.0, l2_mpki=52,
                mrc=_mrc((1 * MiB, 0.92), (20 * MiB, 0.8)),
                regularity=0.55, mlp=5.0, write_fraction=0.35,
                footprint_bytes=48 * MiB, bw_efficiency=0.73,
            ),
            RegionProfile(
                region=CodeRegion("power_sum", "power.F90", 12, 30),
                weight=0.1, ipc_core=1.6, l2_mpki=12,
                mrc=_mrc((1 * MiB, 0.9), (20 * MiB, 0.8)),
                regularity=0.55, mlp=5.0, footprint_bytes=24 * MiB,
                bw_efficiency=0.73,
            ),
        ),
    )
    p["mcf"] = _one_region(
        "mcf", "SPEC CPU2017", CodeRegion("primal_bea_mpp", "pbeampp.c", 165, 230),
        kinstr=5.0e8, ipc=1.6, mpki=45, mrc=_mrc(
            (1 * MiB, 0.75), (8 * MiB, 0.5), (20 * MiB, 0.35)
        ),
        reg=0.25, mlp=5.0, fp=28 * MiB, bw_eff=0.85,
    )
    p["nab"] = _one_region(
        "nab", "SPEC CPU2017", CodeRegion("mme_nonbonded", "eff.c", 1907, 1988),
        kinstr=9.0e8, ipc=3.0, mpki=1.0, mrc=_mrc((1 * MiB, 0.6), (8 * MiB, 0.3)),
        reg=0.4, mlp=3.0, fp=8 * MiB,
    )

    # ---------------- mini-benchmarks ----------------
    p["Stream"] = _one_region(
        "Stream", "mini-benchmarks", CodeRegion("triad", "stream.c", 345, 348),
        kinstr=3.0e8, ipc=1.8, mpki=14.5, mrc=MissRatioCurve.constant(1.0),
        reg=1.0, mlp=10.0, wf=0.5, fp=64 * MiB,
    )
    p["Bandit"] = _one_region(
        "Bandit", "mini-benchmarks", CodeRegion("conflict_loop", "bandit.c", 22, 41),
        kinstr=3.0e8, ipc=2.0, mpki=40, mrc=MissRatioCurve.constant(1.0),
        reg=0.0, mlp=10.0, wf=0.0, fp=64 * KiB, bw_eff=0.82,
    )
    return p


#: The 25 applications of Table I, grouped by suite (display order).
SUITES: dict[str, tuple[str, ...]] = {
    "GeminiGraph": ("G-BC", "G-BFS", "G-CC", "G-PR", "G-SSSP"),
    "PowerGraph": ("P-CC", "P-PR", "P-SSSP"),
    "CNTK": ("CIFAR", "MNIST", "LSTM", "ATIS"),
    "PARSEC": ("blackscholes", "freqmine", "swaptions", "streamcluster"),
    "HPC": ("lulesh", "IRSmk", "AMG2006"),
    "SPEC CPU2017": ("cactuBSSN", "xalancbmk", "deepsjeng", "fotonik3d", "mcf", "nab"),
}

#: Table I's full roster (application order used on figure axes).
APPLICATIONS: tuple[str, ...] = tuple(
    name for suite in SUITES.values() for name in suite
)

#: Mini-benchmarks (Section III-B).
MINI_BENCHMARKS: tuple[str, ...] = ("Bandit", "Stream")


_PROFILES: "dict[str, WorkloadProfile] | None" = None
_BUILD_LOCK = threading.Lock()


def _profiles() -> dict[str, WorkloadProfile]:
    """The 27 profiles, built on the first lookup, once per process even
    when threads look up first together: the batch solver groups slots
    by miss-ratio-curve identity, so a second build would split them."""
    global _PROFILES
    if _PROFILES is None:
        with _BUILD_LOCK:
            if _PROFILES is None:
                _PROFILES = _build_profiles()
    return _PROFILES


def calibrated_profile(name: str) -> WorkloadProfile:
    """The calibrated engine profile of one application."""
    profiles = _profiles()
    try:
        return profiles[name]
    except KeyError:
        raise WorkloadError(
            f"no calibrated profile for {name!r}; known: {sorted(profiles)}"
        ) from None


def all_profiles() -> dict[str, WorkloadProfile]:
    """All 27 calibrated profiles keyed by name."""
    return dict(_profiles())
