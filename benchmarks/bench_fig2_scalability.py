"""Fig 2 + Table II: thread scalability of all 25 applications."""

from repro.core import ScalabilityClass
from repro.session import Session


def fig2(config):
    return Session(config).run("fig2").result


def test_fig2_scalability_curves(benchmark, config, artifacts):
    result = benchmark.pedantic(fig2, args=(config,), rounds=1, iterations=1)
    artifacts("fig2_scalability", result.render_fig2())
    # Shape anchors from the paper's Fig 2 narrative.
    assert result.speedup("blackscholes", 8) > 7.5      # "nearly 8x"
    assert result.speedup("ATIS", 8) < 1.3              # "no scalability"
    assert result.speedup("P-SSSP", 8) < 2.0            # "less than 2x"
    assert result.speedup("lulesh", 8) > 6.5            # "scales well"
    # fotonik3d scales poorly after 4 threads.
    assert result.speedup("fotonik3d", 8) < 1.5 * result.speedup("fotonik3d", 4)


def test_table2_classification(benchmark, config, artifacts):
    result = benchmark.pedantic(fig2, args=(config,), rounds=1, iterations=1)
    artifacts("table2_scalability_classes", result.render_table2())
    t2 = result.table2()
    assert "P-SSSP" in t2["PowerGraph"][ScalabilityClass.LOW]
    assert "ATIS" in t2["CNTK"][ScalabilityClass.LOW]
    assert "AMG2006" in t2["HPC"][ScalabilityClass.LOW]
    assert "G-SSSP" in t2["GeminiGraph"][ScalabilityClass.MEDIUM]
    assert "streamcluster" in t2["PARSEC"][ScalabilityClass.MEDIUM]
    assert "fotonik3d" in t2["SPEC CPU2017"][ScalabilityClass.MEDIUM]
