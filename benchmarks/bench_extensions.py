"""Extension benchmarks: Bubble-Up predictor accuracy, consolidation
energy efficiency, and automated insights over the full matrix.

These go beyond the paper's own artifacts (its Section VII promises "a
repository that contains all the experiment results"): the predictor
reproduces the related-work methodology the paper builds on, and the
efficiency analysis quantifies its Section I energy motivation.
"""

from repro.core import BubbleUpPredictor, ExperimentConfig, MatrixInsights
from repro.session import Session

CFG = ExperimentConfig(jitter=0.0)


def test_bubbleup_predictor_full_matrix(benchmark, artifacts):
    def fit_and_evaluate():
        truth = Session(CFG).run("fig5").result
        predictor = BubbleUpPredictor(config=CFG).fit()
        return predictor, predictor.evaluate(truth)

    predictor, scores = benchmark.pedantic(fit_and_evaluate, rounds=1, iterations=1)
    pressure_rows = sorted(
        predictor.pressure.items(), key=lambda kv: kv[1], reverse=True
    )
    artifacts(
        "extension_bubbleup",
        "Bubble-Up predictor vs engine ground truth (625 cells)\n"
        + "\n".join(f"{k}: {v:.3f}" for k, v in scores.items())
        + "\n\npressure scores:\n"
        + "\n".join(f"  {app:<14} {p:.2f}" for app, p in pressure_rows),
    )
    # O(N) characterization must rank pairs like the O(N^2) sweep.
    assert scores["rank_correlation"] > 0.6
    assert scores["mae"] < 0.25
    # Pressure ranking mirrors the paper's offender list.
    top = [app for app, _ in pressure_rows[:6]]
    assert "fotonik3d" in top and "IRSmk" in top


def test_consolidation_efficiency(benchmark, artifacts):
    pairs = (
        ("swaptions", "nab"),          # Harmony: the paper's ideal
        ("blackscholes", "G-CC"),      # Harmony with a bandwidth app
        ("G-CC", "CIFAR"),             # Victim-Offender
        ("G-CC", "fotonik3d"),         # strong Victim-Offender
        ("IRSmk", "fotonik3d"),        # Both-Victim
    )
    result = benchmark.pedantic(
        lambda: Session(CFG).run("efficiency", pairs=pairs).result,
        rounds=1, iterations=1,
    )
    artifacts("extension_efficiency", result.render())
    # Consolidation always beats time-sharing on makespan...
    for row in result.rows:
        assert row.makespan_change < 1.0
    # ...and Harmony pairs save the most energy.
    assert (
        result.row("swaptions", "nab").energy_saving
        > result.row("IRSmk", "fotonik3d").energy_saving
    )
    assert result.row("swaptions", "nab").energy_saving > 0.2


def test_core_allocation_sweep(benchmark, artifacts):
    sweep = benchmark.pedantic(
        lambda: Session(CFG).run("allocation", fg="G-CC", bg="fotonik3d").result,
        rounds=1, iterations=1,
    )
    artifacts("extension_allocation", sweep.render())
    # The policy lever: giving the offender fewer cores restores the
    # victim more than proportionally.
    assert sweep.point(6).fg_slowdown < sweep.point(2).fg_slowdown
    # Some asymmetric split beats or ties the paper's 4+4 on weighted
    # speedup for this victim/offender pair.
    assert sweep.best_split().weighted_speedup >= sweep.point(4).weighted_speedup


def test_matrix_insights(benchmark, artifacts):
    def derive():
        return MatrixInsights.derive(Session(CFG).run("fig5").result)

    insights = benchmark.pedantic(derive, rounds=1, iterations=1)
    artifacts("extension_insights", insights.render())
    # The paper's Section V narrative, extracted automatically:
    assert "fotonik3d" in insights.top_offenders(5)
    assert "IRSmk" in insights.top_offenders(5)
    victims = insights.top_victims(6)
    assert any(v.startswith("G-") for v in victims)
    v = insights.suite_victimhood()
    assert v["GeminiGraph"] >= max(v["PARSEC"], v["CNTK"]) - 1e-9
    assert set(insights.harmless()) & {"swaptions", "nab", "deepsjeng", "blackscholes"}
