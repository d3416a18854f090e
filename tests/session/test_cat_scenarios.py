"""Session-level tests for CAT way masks and pinned placements.

The acceptance contract of the per-app partitioning redesign:

* mask-free, pin-free scenarios keep their pre-CAT payload shape and
  fingerprints bit-identical (warm stores keep serving — verified
  against a store written through the *legacy* pair path);
* masked/pinned pairs have no legacy co-run key: they cache under
  their scenario fingerprint in the scenario tier;
* a disjoint ``0xF0``/``0x0F`` mask pair measurably reduces the
  foreground slowdown of a cache-sensitive app vs. the ``pressure``
  policy;
* everything round-trips: CLI parsing, payloads, the store tier, and
  the executors stay bit-identical.
"""

import pytest

from repro.core import ExperimentConfig
from repro.errors import ScenarioError
from repro.session import (
    AppPlacement,
    ParallelExecutor,
    Scenario,
    Session,
    ThreadExecutor,
    parse_pinning,
    parse_way_mask,
)

SUBSET = ("xalancbmk", "Stream")


def make_config(**kw):
    kw.setdefault("workloads", SUBSET)
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


class TestPlacementValidation:
    def test_llc_ways_must_be_positive_bitmap(self):
        with pytest.raises(ScenarioError):
            AppPlacement("G-CC", 4, llc_ways=0)
        with pytest.raises(ScenarioError):
            AppPlacement("G-CC", 4, llc_ways=-4)
        assert AppPlacement("G-CC", 4, llc_ways=0xF0).llc_ways == 0xF0

    def test_pinning_normalized_to_tuple(self):
        p = AppPlacement("G-CC", 2, pinning=[1, 0])
        assert p.pinning == (1, 0)
        with pytest.raises(ScenarioError):
            AppPlacement("G-CC", 2, pinning=())
        with pytest.raises(ScenarioError):
            AppPlacement("G-CC", 2, pinning=(0, 0))
        with pytest.raises(ScenarioError):
            AppPlacement("G-CC", 2, pinning=(-1,))

    def test_partitioned_flag(self):
        assert not AppPlacement("G-CC", 4).partitioned
        assert AppPlacement("G-CC", 4, llc_ways=0x3).partitioned
        assert AppPlacement("G-CC", 4, pinning=(0,)).partitioned

    def test_label_carries_mask_and_pinning(self):
        p = AppPlacement("G-CC", 4, llc_ways=0xF0, pinning=(0, 1))
        assert p.label == "G-CC:4@0xf0#0,1"


class TestCliParsing:
    def test_parse_way_mask(self):
        assert parse_way_mask("G-CC:0xF0") == ("G-CC", 0xF0)
        assert parse_way_mask("G-CC:12") == ("G-CC", 12)
        assert parse_way_mask("G-CC:0b11") == ("G-CC", 3)
        for bad in ("G-CC", ":0xF0", "G-CC:f0", "G-CC:"):
            with pytest.raises(ScenarioError):
                parse_way_mask(bad)

    def test_parse_pinning(self):
        assert parse_pinning("G-CC:0,1") == ("G-CC", (0, 1))
        assert parse_pinning("G-CC:3") == ("G-CC", (3,))
        for bad in ("G-CC", "G-CC:", "G-CC:a,b"):
            with pytest.raises(ScenarioError):
                parse_pinning(bad)


class TestScenarioIdentity:
    def test_payload_shape_unchanged_without_masks(self):
        # The back-compat anchor: no new keys unless a mask/pin is set,
        # so every pre-CAT fingerprint (and store entry) is preserved.
        payload = Scenario.pair("G-CC", "Stream", threads=4).payload()
        assert set(payload) == {"apps", "llc_policy", "smt"}

    def test_masked_payload_roundtrip(self):
        s = Scenario.pair("xalancbmk", "Stream", threads=4).with_ways(
            [0xF0, 0x0F]
        ).with_pinning([(0, 1), None])
        payload = s.payload()
        assert payload["llc_ways"] == [0xF0, 0x0F]
        assert payload["pinning"] == [[0, 1], None]
        clone = Scenario.from_payload(payload)
        assert clone == s
        assert clone.fingerprint == s.fingerprint

    def test_masked_pair_has_no_corun_key(self):
        base = Scenario.pair("xalancbmk", "Stream", threads=4)
        assert base.corun_key() is not None
        assert base.with_ways([0xF0, None]).corun_key() is None
        assert base.with_pinning([(0,), None]).corun_key() is None
        # Stripping the masks restores the legacy bridge.
        assert base.with_ways([0xF0, 0x0F]).with_ways(None).corun_key() == (
            "xalancbmk", "Stream", 4, 4
        )

    def test_mask_changes_fingerprint(self):
        base = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        masked = base.with_ways({"G-CC": 0xF0})
        assert masked.fingerprint != base.fingerprint
        assert masked.cacheable  # masks are stable identity, not in-band

    def test_with_ways_rejects_unplaced_names(self):
        base = Scenario.pair("G-CC", "Stream")
        with pytest.raises(ScenarioError):
            base.with_ways({"nope": 0x3})
        with pytest.raises(ScenarioError):
            base.with_pinning({"nope": (0,)})
        with pytest.raises(ScenarioError):
            base.with_ways([0x3])  # length mismatch

    def test_label(self):
        s = Scenario.pair("xalancbmk", "Stream", threads=4).with_ways([0xF0, 0x0F])
        assert s.label == "xalancbmk:4@0xf0+Stream:4@0xf"


class TestCatMeasurement:
    def test_disjoint_masks_beat_pressure_policy(self):
        # The acceptance criterion: a 0xF0/0x0F partition measurably
        # reduces the sensitive foreground's slowdown vs. 'pressure'.
        session = Session(make_config())
        base = Scenario.pair("xalancbmk", "Stream", threads=4)
        pressure = session.run_scenario(base.with_policy("pressure"))
        masked = session.run_scenario(base.with_ways([0xF0, 0x0F]))
        assert masked.normalized_time < pressure.normalized_time - 0.05

    def test_masked_pair_caches_in_scenario_tier(self):
        session = Session(make_config())
        s = Scenario.pair("xalancbmk", "Stream", threads=4).with_ways([0xF0, 0x0F])
        first = session.run_scenario(s)
        again = session.run_scenario(s)
        assert session.stats.scenario_misses == 1
        assert session.stats.scenario_hits == 1
        assert again.result is first.result
        engine_fp, cell_fp, tier = session.scenario_identity(s)
        assert tier == "scenario"
        assert cell_fp == s.with_policy(
            session.config.engine_config.llc_policy
        ).fingerprint

    def test_masked_scenario_store_roundtrip(self, tmp_path):
        from repro.store import ResultStore

        config = make_config()
        s = Scenario.pair("xalancbmk", "Stream", threads=4).with_ways(
            [0xF0, 0x0F]
        )
        warm = Session(config, store=ResultStore(tmp_path / "st"))
        first = warm.run_scenario(s)
        cold = Session(config, store=ResultStore(tmp_path / "st"))
        second = cold.run_scenario(s)
        assert cold.stats.scenario_misses == 0
        assert cold.stats.scenario_disk_hits == 1
        assert second.result.fg.runtime_s == first.result.fg.runtime_s
        assert second.result.bg_relative_rates == first.result.bg_relative_rates

    def test_mask_free_results_unchanged_by_masked_siblings(self, tmp_path):
        # A store warmed with the plain pair serves it bit-identically
        # even after CAT variants of the same pair were persisted next
        # to it.
        from repro.store import ResultStore

        config = make_config()
        writer = Session(config, store=ResultStore(tmp_path / "st"))
        first = writer.run_scenario(Scenario.pair("xalancbmk", "Stream", threads=4))
        reader = Session(config, store=ResultStore(tmp_path / "st"))
        reader.run_scenario(
            Scenario.pair("xalancbmk", "Stream", threads=4).with_ways([0xF0, 0x0F])
        )
        plain = reader.run_scenario(Scenario.pair("xalancbmk", "Stream", threads=4))
        assert reader.stats.scenario_misses == 1  # the masked variant
        assert reader.stats.scenario_disk_hits == 1
        assert plain.result.fg.runtime_s == first.result.fg.runtime_s
        assert plain.result.bg_relative_rates == first.result.bg_relative_rates

    def test_pinned_smt_sharing_through_session(self):
        session = Session(make_config())
        base = Scenario.pair("xalancbmk", "Stream", threads=1, smt=True)
        shared = session.run_scenario(base.with_pinning([(0,), (0,)]))
        spread = session.run_scenario(base.with_pinning([(0,), (1,)]))
        assert shared.normalized_time > spread.normalized_time
        # Both are distinct cells (no pair key), cached once each.
        assert session.stats.scenario_misses == 2

    def test_executors_bit_identical_for_masked_sweep(self):
        config = make_config()
        base = Scenario.pair("xalancbmk", "Stream", threads=4)
        sweep = [
            base.with_ways([0xF0, 0x0F]),
            base.with_ways([0xFF0, 0x00F]),
            base.with_policy("even"),
            base,
        ]

        def run(executor):
            return [
                (r.normalized_time, tuple(r.bg_relative_rates))
                for r in Session(config, executor=executor).run_scenarios(sweep)
            ]

        serial = run(None)
        assert run(ParallelExecutor(2)) == serial
        assert run(ThreadExecutor(2)) == serial

    def test_cli_scenario_run_with_ways_and_pin(self, capsys, tmp_path):
        from repro.cli import main

        st = str(tmp_path / "st")
        assert main([
            "scenario", "run", "xalancbmk:4", "Stream:4",
            "--ways", "xalancbmk:0xF0", "Stream:0x0F",
            "--store", st, "--workloads", "xalancbmk",
        ]) == 0
        out = capsys.readouterr().out
        assert "xalancbmk:4@0xf0+Stream:4@0xf" in out
        assert main(["scenario", "ls", "--store", st]) == 0
        assert "ways=0xf0/0xf" in capsys.readouterr().out
        assert main([
            "scenario", "run", "xalancbmk:1", "Stream:1", "--smt",
            "--pin", "xalancbmk:0", "Stream:0",
            "--workloads", "xalancbmk",
        ]) == 0
        assert "xalancbmk:1#0+Stream:1#0[smt]" in capsys.readouterr().out

    def test_cli_rejects_ways_outside_scenario_run(self, usage_error):
        usage_error(["fig5", "--ways", "G-CC:0x3", "--workloads", "G-CC"], "--ways")
        usage_error(["cat-sweep", "--pin", "G-CC:0", "--workloads", "G-CC"], "--pin")
        # Even bare `scenario` (no run subcommand) refuses them; argparse
        # reads the mask after the unknown flag as a would-be sub-verb.
        usage_error(["scenario", "--ways", "G-CC:0x3"], "invalid choice: 'G-CC:0x3'")
        usage_error(["scenario", "--workloads", "G-CC", "--ways=G-CC:0x3"], "--ways")
        usage_error(["scenario", "ls", "--pin", "G-CC:0", "--store", "st"], "--pin")

    def test_cli_bad_mask_spec_is_an_error(self, capsys):
        from repro.cli import main

        assert main([
            "scenario", "run", "G-CC:2", "Stream:2",
            "--ways", "G-CC:zz", "--workloads", "G-CC",
        ]) == 2
        assert "way mask" in capsys.readouterr().err

    def test_cli_duplicate_mask_names_are_an_error(self, capsys):
        # A repeated name would silently keep only the last bitmap —
        # wrong for self-pairs — so the CLI refuses it outright.
        from repro.cli import main

        assert main([
            "scenario", "run", "G-CC:2", "G-CC:2",
            "--ways", "G-CC:0xF0", "G-CC:0x0F", "--workloads", "G-CC",
        ]) == 2
        assert "twice" in capsys.readouterr().err
        assert main([
            "scenario", "run", "G-CC:1", "G-CC:1", "--smt",
            "--pin", "G-CC:0", "G-CC:1", "--workloads", "G-CC",
        ]) == 2
        assert "twice" in capsys.readouterr().err

    def test_cli_cat_sweep_renders(self, capsys):
        from repro.cli import main

        assert main(["cat-sweep", "--workloads", "xalancbmk"]) == 0
        out = capsys.readouterr().out
        assert "CAT way-mask sweep" in out and "Pareto" in out

    def test_oversized_mask_is_an_engine_error(self):
        from repro.errors import EngineError

        session = Session(make_config())
        s = Scenario.pair("xalancbmk", "Stream", threads=4).with_ways(
            [1 << 30, None]
        )
        with pytest.raises(EngineError):
            session.run_scenario(s)
