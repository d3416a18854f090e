"""Tests for the ``cat-sweep`` runner: contiguous way partitions,
policy reference points, the Pareto frontier, and the acceptance
criterion that a disjoint ``0xF0``/``0x0F`` mask pair measurably
reduces foreground slowdown vs. the ``pressure`` policy."""

from dataclasses import replace

import pytest

from repro.core import ExperimentConfig
from repro.core.catsweep import (
    CatSweepPoint,
    CatSweepResult,
    _chunk_positions,
    contiguous_split,
    equal_way_shares,
    interleaved_split,
    way_partition,
)
from repro.errors import ScenarioError
from repro.machine.spec import CacheSpec, MachineSpec
from repro.session import Session
from repro.units import MiB


def spec_8way() -> MachineSpec:
    """The paper machine with an 8-way 16 MiB LLC, so the half-split
    masks are literally 0xF0 / 0x0F."""
    return replace(
        MachineSpec(),
        llc=CacheSpec("LLC", 16 * MiB, associativity=8, latency_cycles=35),
    )


def make_config(**kw):
    kw.setdefault("workloads", ("xalancbmk",))
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


class TestContiguousSplit:
    def test_nibble_split(self):
        assert contiguous_split(8, 4) == (0xF0, 0x0F)

    def test_splits_are_disjoint_and_cover(self):
        for w in (8, 20):
            for k in range(1, w):
                fg, bg = contiguous_split(w, k)
                assert fg & bg == 0
                assert fg | bg == (1 << w) - 1
                assert bin(fg).count("1") == k

    def test_validation(self):
        for bad in (0, 8, 9, -1):
            with pytest.raises(ScenarioError):
                contiguous_split(8, bad)


class TestMaskHelpers:
    def test_interleaved_nibble_split_is_striped(self):
        assert interleaved_split(8, 4) == (0x55, 0xAA)

    def test_interleaved_splits_are_disjoint_and_cover(self):
        for w in (8, 20):
            for k in range(1, w):
                fg, bg = interleaved_split(w, k)
                assert fg & bg == 0
                assert fg | bg == (1 << w) - 1
                assert bin(fg).count("1") == k

    def test_interleaved_validation(self):
        for bad in (0, 8, 9, -1):
            with pytest.raises(ScenarioError):
                interleaved_split(8, bad)

    def test_equal_way_shares(self):
        assert equal_way_shares(8, 3) == (3, 3, 2)
        assert equal_way_shares(8, 2) == (4, 4)
        assert equal_way_shares(20, 4) == (5, 5, 5, 5)
        assert equal_way_shares(5, 5) == (1, 1, 1, 1, 1)
        with pytest.raises(ScenarioError):
            equal_way_shares(8, 0)
        with pytest.raises(ScenarioError):
            equal_way_shares(3, 4)

    def test_way_partition_generalizes_contiguous_split(self):
        assert way_partition(8, (4, 4)) == contiguous_split(8, 4)
        assert way_partition(8, (3, 3, 2)) == (0xE0, 0x1C, 0x03)
        masks = way_partition(20, equal_way_shares(20, 3))
        union = 0
        for m in masks:
            assert union & m == 0
            union |= m
        assert union == (1 << 20) - 1

    def test_way_partition_validation(self):
        with pytest.raises(ScenarioError):
            way_partition(8, (4, 3))  # doesn't cover
        with pytest.raises(ScenarioError):
            way_partition(8, (8, 0))  # empty share
        with pytest.raises(ScenarioError):
            way_partition(8, ())

    def test_chunk_positions_splits_sparse_masks(self):
        # A non-contiguous background region shared by two tenants:
        # highest ways first, populations as equal as possible.
        assert _chunk_positions(0xAA, 2) == (0xA0, 0x0A)
        a, b, c = _chunk_positions(0xFF, 3)
        assert (a, b, c) == (0xE0, 0x1C, 0x03)
        for parts in (1, 2, 3):
            chunks = _chunk_positions(0x5D5, parts)
            union = 0
            for m in chunks:
                assert union & m == 0
                union |= m
            assert union == 0x5D5


class TestCatSweepRunner:
    @pytest.fixture(scope="class")
    def result(self):
        return Session(make_config(spec=spec_8way())).run("cat-sweep").result

    def test_sweep_shape(self, result):
        # 3 policy reference points + one point per contiguous split.
        assert result.n_ways == 8
        assert len(result.points) == 3 + 7
        assert [p.label for p in result.points[:3]] == ["pressure", "even", "static"]
        assert result.point("4/4").fg_mask == 0xF0
        assert result.point("4/4").bg_mask == 0x0F

    def test_disjoint_nibble_masks_beat_pressure(self, result):
        # The acceptance criterion, measured inside the artifact itself.
        nibble = result.point("4/4")
        pressure = result.point("pressure")
        assert nibble.fg_slowdown < pressure.fg_slowdown - 0.05
        assert result.best_masked_vs_policy("pressure") > 0.05

    def test_pareto_frontier_is_nondominated(self, result):
        frontier = result.pareto()
        assert frontier
        for p in frontier:
            assert not any(
                q.fg_slowdown < p.fg_slowdown
                and q.bg_throughput >= p.bg_throughput
                for q in result.points
            )
        # Monotone trade-off along the frontier when sorted by slowdown.
        ordered = sorted(frontier, key=lambda p: p.fg_slowdown)
        rates = [p.bg_throughput for p in ordered]
        assert rates == sorted(rates, reverse=True)

    def test_render_marks_pareto_and_headroom(self, result):
        text = result.render()
        assert "CAT way-mask sweep" in text
        assert "Pareto point(s)" in text
        assert "beats 'pressure' by +" in text
        assert "0xf0" in text and "0xf" in text

    def test_record_roundtrip(self):
        from repro.session import RunRecord, get_runner

        session = Session(make_config(spec=spec_8way()))
        record = session.run("cat-sweep")
        clone = RunRecord.from_json(record.to_json())
        assert clone.result.points == record.result.points
        assert clone.result.n_ways == record.result.n_ways
        assert get_runner("cat-sweep").render(clone.result) == record.result.render()

    def test_cells_warm_the_store(self, tmp_path):
        from repro.store import ResultStore

        config = make_config(spec=spec_8way())
        Session(config, store=ResultStore(tmp_path / "st")).run("cat-sweep")
        cold = Session(config, store=ResultStore(tmp_path / "st"))
        cold.run("cat-sweep")
        assert cold.stats.solo_misses == 0
        assert cold.stats.scenario_misses == 0

    def test_explicit_pair_arguments(self):
        session = Session(make_config(spec=spec_8way()))
        result = session.run("cat-sweep", fg="xalancbmk", bg="xalancbmk").result
        assert result.fg == result.bg == "xalancbmk"

    def test_default_runs_on_paper_spec(self):
        result = Session(make_config()).run("cat-sweep").result
        assert result.n_ways == 20
        assert len(result.points) == 3 + 19
        assert result.fg == "xalancbmk" and result.bg == "Stream"

    def test_threads_must_fit(self):
        with pytest.raises(ScenarioError):
            Session(make_config()).run("cat-sweep", threads=5)


class TestLayoutSweeps:
    def test_interleaved_sweep_stripes_the_foreground(self):
        session = Session(make_config(spec=spec_8way()))
        result = session.run("cat-sweep", layout="interleaved").result
        assert result.layout == "interleaved"
        assert len(result.points) == 3 + 7
        nibble = result.point("i:4/4")
        assert nibble.fg_mask == 0x55
        assert nibble.bg_mask == 0xAA
        assert nibble.masks == (0x55, 0xAA)

    def test_multi_background_sweep(self):
        session = Session(make_config(spec=spec_8way(), threads=2))
        result = session.run(
            "cat-sweep", bgs=("Stream", "xalancbmk"), threads=2
        ).result
        assert result.bgs == ("Stream", "xalancbmk")
        assert result.bg == "Stream+xalancbmk"
        # fg takes 1..n_ways-2 ways; the rest splits between two bgs.
        assert len(result.points) == 3 + 6
        for p in result.points:
            if not p.masked:
                continue
            assert p.masks is not None and len(p.masks) == 3
            union = 0
            for m in p.masks:
                assert m and union & m == 0
                union |= m
            assert union == (1 << 8) - 1
            assert p.bg_mask == p.masks[1] | p.masks[2]

    def test_multi_background_record_roundtrip(self):
        from repro.session import RunRecord

        session = Session(make_config(spec=spec_8way(), threads=2))
        record = session.run(
            "cat-sweep", bgs=("Stream", "xalancbmk"), threads=2,
            layout="interleaved",
        )
        clone = RunRecord.from_json(record.to_json())
        assert clone.result.points == record.result.points
        assert clone.result.bgs == record.result.bgs
        assert clone.result.layout == "interleaved"

    def test_legacy_six_element_rows_still_decode(self):
        from repro.session import get_runner

        runner = get_runner("cat-sweep")
        payload = {
            "fg": "xalancbmk", "bg": "Stream", "threads": 4, "n_ways": 8,
            "points": [
                ["pressure", None, None, "pressure", 1.4, 0.8],
                ["4/4", 0xF0, 0x0F, None, 1.1, 0.6],
            ],
        }
        result = runner.decode(payload)
        assert result.layout == "contiguous"
        assert result.bgs == ()
        assert all(p.masks is None for p in result.points)
        # A classic pair sweep still encodes to the legacy 6-element shape.
        assert runner.encode(result)["points"] == payload["points"]
        assert "bgs" not in runner.encode(result)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ScenarioError, match="layout"):
            Session(make_config(spec=spec_8way())).run(
                "cat-sweep", layout="diagonal"
            )

    def test_too_many_backgrounds_for_ways(self):
        spec = replace(
            MachineSpec(),
            llc=CacheSpec("LLC", 8 * MiB, associativity=4, latency_cycles=35),
        )
        with pytest.raises(ScenarioError, match="LLC ways"):
            Session(make_config(spec=spec, threads=1)).run(
                "cat-sweep", bgs=tuple(f"bg{i}" for i in range(4)), threads=1
            )


class TestParetoLogic:
    def test_dominated_points_are_excluded(self):
        result = CatSweepResult(fg="a", bg="b", threads=4, n_ways=4)
        mk = lambda label, s, t: CatSweepPoint(  # noqa: E731
            label=label, fg_mask=None, bg_mask=None, llc_policy=None,
            fg_slowdown=s, bg_throughput=t,
        )
        result.points = [
            mk("good-fg", 1.1, 0.5),
            mk("good-bg", 1.9, 0.9),
            mk("dominated", 1.5, 0.4),
            mk("balanced", 1.3, 0.7),
        ]
        labels = {p.label for p in result.pareto()}
        assert labels == {"good-fg", "good-bg", "balanced"}
