"""Fig 6a/6b: every application co-running with Bandit and STREAM."""

from repro.session import Session


def test_fig6_minibench(benchmark, config, artifacts):
    result = benchmark.pedantic(
        lambda: Session(config).run("fig6").result, rounds=1, iterations=1
    )
    summary = [
        result.render_fig6(),
        f"mean speedup vs Bandit: {result.overall_mean('Bandit'):.2f} (paper: mild, 0.77-1.0 range)",
        f"mean speedup vs Stream: {result.overall_mean('Stream'):.2f} (paper: 0.61)",
        f"Gemini vs Bandit: {result.suite_mean('GeminiGraph', 'Bandit'):.2f} (paper: 0.82)",
        f"PowerGraph vs Bandit: {result.suite_mean('PowerGraph', 'Bandit'):.2f} (paper: 0.93)",
        f"Gemini slowdown vs Stream: {1 / result.suite_mean('GeminiGraph', 'Stream'):.2f}x (paper: ~2.08x)",
    ]
    artifacts("fig6_minibench", "\n".join(summary))

    # Fig 6a: Bandit is gentle (0.77-1.0).
    for app, v in result.speedups["Bandit"].items():
        assert 0.6 <= v <= 1.02, app
    # Fig 6b: Stream is brutal for graph, harmless for the compute set.
    assert result.overall_mean("Stream") < result.overall_mean("Bandit")
    assert 1 / result.suite_mean("GeminiGraph", "Stream") > 1.7
    for app in ("blackscholes", "swaptions", "deepsjeng", "nab"):
        assert result.speedups["Stream"][app] > 0.85, app
