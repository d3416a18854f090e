"""Table IV: region-level profiles of P-PR (gather) and fotonik3d (UUS)."""

from repro.session import Session


def test_table4_region_profiles(benchmark, exact_config, artifacts):
    result = benchmark.pedantic(
        lambda: Session(exact_config).run("table4").result, rounds=1, iterations=1
    )
    artifacts(
        "table4_regions",
        result.render("Table IV: profiling results of P-PR and fotonik3d"),
    )

    # P-PR's gather region (paper: CPI 2.3 -> 3.5-4.3; PCP 71% -> ~80%).
    solo = result.quad("P-PR")
    for bg in ("IRSmk", "CIFAR", "fotonik3d"):
        q = result.quad("P-PR", bg)
        assert q.cpi > 1.15 * solo.cpi, bg
        assert q.l2_pcp > solo.l2_pcp, bg
        assert q.ll > 1.2 * solo.ll, bg
    # fotonik3d's UUS region: LLC MPKI barely moves (bandwidth, not LLC,
    # is its bottleneck), IRSmk hurts it most, G-SSSP least of the
    # stream-class neighbours.
    fsolo = result.quad("fotonik3d")
    assert result.inflation("fotonik3d", "IRSmk").llc_mpki < 1.25
    assert result.quad("fotonik3d", "IRSmk").cpi > 1.3 * fsolo.cpi
    assert (
        result.quad("fotonik3d", "G-SSSP").cpi
        < result.quad("fotonik3d", "IRSmk").cpi - 0.5
    )
