"""Table III: bandwidth consumption of the five problematic pairs."""

from repro.session import Session


def test_table3_pair_bandwidth(benchmark, exact_config, artifacts):
    result = benchmark.pedantic(
        lambda: Session(exact_config).run("table3").result, rounds=1, iterations=1
    )
    artifacts("table3_pair_bandwidth", result.render_table3())

    assert len(result.rows) == 5
    # The paper's invariant: every pair consumes less than the sum of
    # its members' solo bandwidths.
    for row in result.rows:
        assert row.below_sum, (row.app_a, row.app_b)
        assert row.pair_bandwidth <= 28.5
    # Solo anchors (Table III's A/B columns, GB/s).
    r = result.row("CIFAR", "fotonik3d")
    assert abs(r.solo_a - 7.3) < 1.2 and abs(r.solo_b - 18.4) < 3.7
    r = result.row("G-CC", "IRSmk")
    assert abs(r.solo_a - 17.8) < 3.0 and abs(r.solo_b - 18.1) < 2.8
