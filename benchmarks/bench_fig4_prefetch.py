"""Fig 4: prefetcher sensitivity via the MSR 0x1A4 experiment."""

from repro.core import ExperimentConfig
from repro.session import Session
from repro.workloads.calibration import APPLICATIONS, MINI_BENCHMARKS


def test_fig4_prefetch_sensitivity(benchmark, artifacts):
    cfg = ExperimentConfig(workloads=APPLICATIONS + MINI_BENCHMARKS, jitter=0.0)
    result = benchmark.pedantic(
        lambda: Session(cfg).run("fig4").result, rounds=1, iterations=1
    )
    artifacts("fig4_prefetch_sensitivity", result.render_fig4())
    sens = set(result.sensitive_apps())
    # Paper: streamcluster, the HPC codes and fotonik3d are the
    # sensitive set (~1.18x slower without prefetchers).
    for app in ("streamcluster", "IRSmk", "fotonik3d"):
        assert app in sens, app
    # Graph and CNTK applications are not sensitive.
    for app in ("G-PR", "G-CC", "P-PR", "ATIS", "CIFAR"):
        assert app not in sens, app
    # Bandit cannot benefit from prefetchers by construction.
    assert abs(result.ratios["Bandit"] - 1.0) < 0.03
