"""Fig 5: the full 625-pair consolidation heat map + classification."""

from repro.core import PairClass
from repro.session import Session


def test_fig5_full_heatmap(benchmark, config, artifacts):
    matrix = benchmark.pedantic(
        lambda: Session(config).run("fig5").result, rounds=1, iterations=1
    )
    artifacts("fig5_heatmap", matrix.render_fig5())
    artifacts("fig5_heatmap_csv", matrix.to_csv())

    counts = matrix.classification_counts()
    artifacts(
        "fig5_classification",
        "\n".join(f"{k.value}: {v}" for k, v in counts.items()) + "\n"
        + "friendly backgrounds: " + ", ".join(matrix.friendly_backgrounds(limit=1.12)),
    )

    assert len(matrix.cells) == 625
    # Paper: most pairs are Harmony.
    total = sum(counts.values())
    assert counts[PairClass.HARMONY] > 0.7 * total
    # Paper's named Victim-Offender pairs.
    assert matrix.value("G-CC", "fotonik3d") >= 1.6
    assert matrix.value("G-CC", "CIFAR") >= 1.25
    assert matrix.value("P-PR", "fotonik3d") >= 1.5
    # The friendly four never hurt anyone.
    friendly = set(matrix.friendly_backgrounds(limit=1.12))
    assert {"swaptions", "nab", "deepsjeng", "blackscholes"} <= friendly
    # Graph applications are victims, not offenders: compute-class
    # foregrounds are untouched by graph backgrounds.  (They do carry
    # real bandwidth — the paper's own Fig 5 shows fotonik3d at
    # 1.4-1.5x under Gemini backgrounds, which the model reproduces.)
    for bg in ("G-PR", "G-BFS", "G-BC"):
        for fg in ("blackscholes", "deepsjeng", "swaptions", "nab", "CIFAR"):
            assert matrix.value(fg, bg) < 1.3, (fg, bg)
