"""Fig 8: Gemini metrics under the real offenders (IRSmk/fotonik3d/CIFAR)."""

from repro.core.provenance import GEMINI_APPS
from repro.session import Session


def test_fig8_gemini_vs_offenders(benchmark, exact_config, artifacts):
    result = benchmark.pedantic(
        lambda: Session(exact_config).run("fig8").result, rounds=1, iterations=1
    )
    artifacts(
        "fig8_gemini_offenders",
        result.render("Fig 8: Gemini applications co-running with offenders"),
    )

    for app in GEMINI_APPS:
        # Paper: LL increases by more than 100% under the offenders
        # (fotonik3d the strongest), and L2_PCP stays high.
        assert result.inflation(app, "fotonik3d").ll > 1.5, app
        assert result.quad(app, "fotonik3d").l2_pcp > 0.6, app
        # CIFAR is the mildest of the three offenders.
        cifar = result.inflation(app, "CIFAR").cpi
        assert cifar <= result.inflation(app, "fotonik3d").cpi + 1e-9, app
        assert cifar <= result.inflation(app, "IRSmk").cpi + 0.15, app
