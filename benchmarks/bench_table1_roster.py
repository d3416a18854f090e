"""Table I: the application roster."""

from repro.tables import ascii_table
from repro.workloads.registry import list_workloads, suite_of


def _build_roster() -> str:
    rows = [[suite_of(name), name] for name in list_workloads()]
    return ascii_table(
        ["suite", "application"], rows,
        title="Table I: applications chosen for each application suite",
    )


def test_table1_roster(benchmark, artifacts):
    text = benchmark(_build_roster)
    artifacts("table1_roster", text)
    assert text.count("\n") >= 27 + 3
