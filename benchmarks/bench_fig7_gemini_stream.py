"""Fig 7: CPI / L2_PCP / LLC MPKI / LL of Gemini apps under STREAM."""

from repro.core.provenance import GEMINI_APPS
from repro.session import Session


def test_fig7_gemini_vs_stream(benchmark, exact_config, artifacts):
    result = benchmark.pedantic(
        lambda: Session(exact_config).run("fig7").result, rounds=1, iterations=1
    )
    lines = [result.render("Fig 7: Gemini applications co-running with Stream"), ""]
    for app in GEMINI_APPS:
        infl = result.inflation(app, "Stream")
        lines.append(
            f"{app}: CPI x{infl.cpi:.2f}  MPKI x{infl.llc_mpki:.2f}  LL x{infl.ll:.2f}"
        )
    artifacts("fig7_gemini_stream", "\n".join(lines))

    for app in GEMINI_APPS:
        infl = result.inflation(app, "Stream")
        # Paper: CPI more than doubles; MPKI up ~2.6x; LL more than 2x.
        assert infl.cpi > 1.7, app
        assert infl.llc_mpki > 1.3, app
        assert infl.ll > 1.7, app
    # Paper: G-PR's L2_PCP reaches ~93%.
    assert result.quad("G-PR", "Stream").l2_pcp > 0.8
