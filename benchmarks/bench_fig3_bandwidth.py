"""Fig 3: solo memory bandwidth at 1/4/8 threads (PCM-sampled)."""

from repro.core import ExperimentConfig
from repro.session import Session
from repro.units import GB
from repro.workloads.calibration import APPLICATIONS, MINI_BENCHMARKS


def test_fig3_bandwidth(benchmark, artifacts):
    cfg = ExperimentConfig(workloads=APPLICATIONS + MINI_BENCHMARKS, jitter=0.0)
    result = benchmark.pedantic(
        lambda: Session(cfg).run("fig3").result, rounds=1, iterations=1
    )
    artifacts("fig3_bandwidth", result.render_fig3())
    # Paper anchors (GB/s at 4 threads).
    assert abs(result.bandwidth["Stream"][4] / GB - 24.5) < 2.5
    assert abs(result.bandwidth["Bandit"][4] / GB - 18.0) < 2.7
    assert abs(result.bandwidth["fotonik3d"][4] / GB - 18.4) < 3.7
    assert abs(result.bandwidth["IRSmk"][4] / GB - 18.1) < 2.8
    assert abs(result.bandwidth["CIFAR"][4] / GB - 7.3) < 1.2
    # Low consumers stay low.
    for app in ("ATIS", "blackscholes", "swaptions", "deepsjeng", "nab"):
        assert result.bandwidth[app][4] < 2.5 * GB, app
