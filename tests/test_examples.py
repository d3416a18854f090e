"""Smoke tests: every example script runs end-to-end."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "Victim-Offender" in out
        assert "G-CC" in out and "fotonik3d" in out

    def test_custom_workload(self, capsys):
        out = run_example("custom_workload.py", capsys)
        # The tiled GEMM's characterization, as the example prints it.
        assert out.splitlines()[1:5] == [
            "  refs/kinstr      : 250",
            "  L2 MPKI          : 225.7",
            "  prefetch coverage: 0.72",
            "  footprint        : 144 KiB",
        ]
        assert "safe" in out

    def test_scheduling_advisor(self, capsys):
        out = run_example("scheduling_advisor.py", capsys)
        assert "interference-aware" in out
        assert "throughput" in out
        # The aware schedule must beat naive FCFS on this queue.
        gain_line = [l for l in out.splitlines() if "gains" in l][0]
        gain = float(gain_line.split("gains")[1].split("%")[0])
        assert gain > 0

    def test_provenance_deepdive(self, capsys):
        out = run_example("provenance_deepdive.py", capsys)
        assert "pagerank.c:63-70" in out or "pull_edge_loop" in out
