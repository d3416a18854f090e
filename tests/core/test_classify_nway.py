"""Classification edges: the N-way generalization of Section V's
taxonomy — threshold boundaries, role flips across rotations, and the
pair-reduction equivalence ``NWayVerdict(2 apps) == PairVerdict``."""

import pytest

from repro.core import ExperimentConfig
from repro.core.nway import rotation_verdicts
from repro.errors import ExperimentError
from repro.sched.classify import (
    VICTIM_THRESHOLD,
    NWayVerdict,
    PairClass,
    classify_nway,
    classify_pair,
)
from repro.session import Session


class TestThresholdEdges:
    def test_exactly_at_threshold_is_a_victim(self):
        # The paper's rule is inclusive: "at or above 1.5x".
        v = classify_nway(("a", "b", "c"), (VICTIM_THRESHOLD, 1.0, 1.0))
        assert v.relationship is PairClass.VICTIM_OFFENDER
        assert v.victims == ("a",)
        assert v.offenders == ("b", "c")

    def test_just_below_threshold_is_harmony(self):
        eps = 1e-12
        v = classify_nway(
            ("a", "b"), (VICTIM_THRESHOLD - eps, VICTIM_THRESHOLD - eps)
        )
        assert v.relationship is PairClass.HARMONY
        assert v.victims == ()
        assert v.offenders == ()

    def test_all_at_threshold_is_both_victim(self):
        v = classify_nway(("a", "b", "c"), (1.5, 1.5, 1.5))
        assert v.relationship is PairClass.BOTH_VICTIM
        assert v.victims == ("a", "b", "c")
        assert v.offenders == ()  # everyone is a victim first

    def test_custom_threshold(self):
        v = classify_nway(("a", "b"), (1.2, 1.0), threshold=1.2)
        assert v.relationship is PairClass.VICTIM_OFFENDER
        assert v.threshold == 1.2

    def test_validation(self):
        with pytest.raises(ExperimentError):
            classify_nway((), ())
        with pytest.raises(ExperimentError):
            classify_nway(("a",), (1.6,))  # no co-runner, no verdict
        with pytest.raises(ExperimentError):
            classify_nway(("a",), (1.0, 2.0))
        with pytest.raises(ExperimentError):
            classify_nway(("a", "b"), (0.0, 1.0))


class TestRoles:
    def test_role_lookup(self):
        v = classify_nway(("a", "b", "c"), (2.0, 1.1, 1.9))
        assert v.role("a") == "victim"
        assert v.role("b") == "offender"
        assert v.role("c") == "victim"
        with pytest.raises(ExperimentError):
            v.role("zzz")

    def test_harmony_roles(self):
        v = classify_nway(("a", "b"), (1.1, 1.2))
        assert v.role("a") == "harmony"
        assert v.label == "Harmony"

    def test_victim_offender_label_names_victims(self):
        v = classify_nway(("a", "b", "c"), (1.7, 1.0, 1.0))
        assert v.label == "Victim-Offender (victims: a)"


class TestPairReduction:
    @pytest.mark.parametrize(
        "sa,sb",
        [
            (1.1, 1.2),      # Harmony
            (1.9, 1.1),      # Victim-Offender, a victim
            (1.1, 1.9),      # Victim-Offender, b victim
            (1.6, 1.7),      # Both-Victim
            (1.5, 1.0),      # exact threshold
            (1.5, 1.5),      # both exactly at threshold
        ],
    )
    def test_two_app_verdict_equals_pair_verdict(self, sa, sb):
        nway = classify_nway(("a", "b"), (sa, sb))
        pair = classify_pair("a", "b", sa, sb)
        assert nway.to_pair() == pair
        assert nway.relationship is pair.relationship
        victims = set(nway.victims)
        if pair.relationship is PairClass.VICTIM_OFFENDER:
            assert victims == {pair.victim}
            assert set(nway.offenders) == {pair.offender}

    def test_to_pair_rejects_larger_verdicts(self):
        v = classify_nway(("a", "b", "c"), (1.0, 1.0, 1.0))
        with pytest.raises(ExperimentError):
            v.to_pair()


class TestRotationAggregation:
    def test_roles_flip_per_foreground(self):
        # N=3 rotations where the same app is harmed as foreground but
        # harmless as background: the aggregate names exactly the
        # members whose *own* rotation crossed the threshold.
        cells = [
            (("a", "b", "c"), ("a", "b", "c"), "a", 2.1),
            (("a", "b", "c"), ("b", "c", "a"), "b", 1.2),
            (("a", "b", "c"), ("c", "a", "b"), "c", 1.6),
        ]
        (verdict,) = rotation_verdicts(cells)
        assert verdict.relationship is PairClass.VICTIM_OFFENDER
        assert verdict.victims == ("a", "c")
        assert verdict.offenders == ("b",)

    def test_incomplete_rotation_yields_no_verdict(self):
        cells = [
            (("a", "b", "c"), ("a", "b", "c"), "a", 2.1),
            (("a", "b", "c"), ("b", "c", "a"), "b", 1.2),
        ]
        assert rotation_verdicts(cells) == []

    def test_groups_keep_input_order(self):
        cells = [
            (("x", "y"), ("x", "y"), "x", 1.0),
            (("x", "y"), ("y", "x"), "y", 1.0),
            (("a", "b"), ("a", "b"), "a", 2.0),
            (("a", "b"), ("b", "a"), "b", 2.0),
        ]
        verdicts = rotation_verdicts(cells)
        assert [v.apps for v in verdicts] == [("x", "y"), ("a", "b")]
        assert [v.relationship for v in verdicts] == [
            PairClass.HARMONY,
            PairClass.BOTH_VICTIM,
        ]


class TestConsolidateNVerdicts:
    @pytest.fixture(scope="class")
    def table(self):
        config = ExperimentConfig(
            workloads=("G-CC", "fotonik3d", "swaptions"), jitter=0.0
        )
        return Session(config).run("consolidate-n").result

    def test_verdicts_cover_every_complete_rotation(self, table):
        verdicts = table.verdicts()
        assert len(verdicts) == 1  # C(3,3) = one consolidation group
        v = verdicts[0]
        assert set(v.apps) == {"G-CC", "fotonik3d", "swaptions"}
        # The verdict's slowdowns are exactly the per-fg cells.
        for app, slowdown in zip(v.apps, v.slowdowns):
            cell = next(c for c in table.cells if c.fg == app)
            assert cell.fg_slowdown == slowdown

    def test_verdicts_rendered_and_encoded(self, table):
        from repro.session import get_runner

        runner = get_runner("consolidate-n")
        text = runner.render(table)
        assert "N-way verdicts" in text
        assert any(
            rel.value in text for rel in PairClass
        )
        payload = runner.encode(table)
        assert payload["verdicts"]
        apps, slowdowns, rel = payload["verdicts"][0]
        assert sorted(apps) == ["G-CC", "fotonik3d", "swaptions"]
        assert rel in {c.value for c in PairClass}
        # Decode re-derives identical verdicts from the cells alone.
        assert runner.decode(payload).verdicts() == table.verdicts()

    def test_scenario_set_sweep_verdicts(self):
        config = ExperimentConfig(
            workloads=("G-CC", "fotonik3d", "swaptions"), jitter=0.0
        )
        session = Session(config)
        sweep = session.run("scenario-set").result
        verdicts = sweep.verdicts()
        # 6 unordered pairs from the 9-cell pairwise matrix (including
        # the fig5 diagonal's self-pairs) + 1 three-way rotation group.
        assert len(verdicts) == 7
        assert {len(v.apps) for v in verdicts} == {2, 3}
        assert sum(1 for v in verdicts if len(v.apps) == 3) == 1
        text = sweep.render()
        assert "verdicts over 7 complete rotation group(s)" in text


class TestNWayVerdictValue:
    def test_verdict_is_hashable_and_comparable(self):
        a = NWayVerdict(("a", "b"), (1.0, 2.0), PairClass.VICTIM_OFFENDER)
        b = NWayVerdict(("a", "b"), (1.0, 2.0), PairClass.VICTIM_OFFENDER)
        assert a == b
        assert hash(a) == hash(b)
