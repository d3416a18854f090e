"""Tests for the first-class Scenario API.

Covers the acceptance criteria of the scenario redesign:

* 2-app scenarios reproduce the engine's pair API bit-identically and
  reuse warm-store entries written under the *pre-redesign* pair keys
  without re-simulation;
* scenario fingerprints are stable (golden values — changing the
  canonical payload invalidates every persisted scenario entry);
* >= 3-app scenarios with policy/SMT overrides run end to end, fan out
  over the executors bit-identically, and round-trip through the
  store's scenario tier.
"""

import pytest

from repro.core import ExperimentConfig
from repro.core.nway import default_scenario
from repro.engine import IntervalEngine
from repro.errors import EngineError, ScenarioError
from repro.machine.spec import small_test_machine
from repro.session import (
    AppPlacement,
    ParallelExecutor,
    Scenario,
    ScenarioSet,
    Session,
    ThreadExecutor,
    fingerprint,
    parse_placement,
)
from repro.workloads.registry import get_profile

SUBSET = ("G-CC", "fotonik3d", "swaptions")


def make_config(**kw):
    kw.setdefault("workloads", SUBSET)
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


def legacy_co_run(session, fg, bg, threads):
    """A pair measured through the engine's pair API, the way stores
    written before the scenario redesign hold it."""
    return session.engine().co_run(
        get_profile(fg),
        get_profile(bg),
        threads=threads,
        fg_solo_runtime_s=session.solo_runtime(fg, threads=threads),
        bg_solo_rate=session.solo_rate(bg, threads=threads),
    )


class TestScenarioValueObject:
    def test_fingerprint_golden_values(self):
        # Pinned: a change here means every persisted scenario entry
        # (and the warm-store acceptance guarantee) is invalidated.
        assert Scenario.pair("G-CC", "fotonik3d", threads=4).fingerprint == "8fa52c44a33d"
        assert (
            Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2").fingerprint
            == "807460054468"
        )
        assert (
            Scenario.of(
                "G-CC:2", "fotonik3d:2", "swaptions:2", llc_policy="static"
            ).fingerprint
            == "8000f40571a1"
        )
        assert Scenario.of("G-CC:8", "Stream:8", smt=True).fingerprint == "bcef8e15c65d"

    def test_engine_and_spec_fingerprint_golden_values(self):
        # Pinned: every store shard is keyed by the engine fingerprint,
        # so a change here orphans every persisted measurement.
        session = Session(ExperimentConfig())
        assert session.engine_fingerprint() == "983ca1481f3b"
        assert session.spec_fingerprint() == "4b1c3c403734"
        assert fingerprint(small_test_machine()) == "48e77fe9b54a"

    def test_fingerprint_is_order_sensitive(self):
        a = Scenario.of("G-CC:2", "swaptions:2", "fotonik3d:2")
        b = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        assert a.fingerprint != b.fingerprint  # different foreground protocol

    def test_pair_reduces_to_corun_key(self):
        s = Scenario.pair("G-CC", "Stream", threads=4, bg_threads=2)
        assert s.corun_key() == ("G-CC", "Stream", 4, 2)
        # Overrides keep the pair key (the engine fingerprint moves instead).
        assert s.with_policy("even").corun_key() == ("G-CC", "Stream", 4, 2)
        assert Scenario.of("a:1", "b:1", "c:1").corun_key() is None

    def test_parse_placement(self):
        assert parse_placement("G-CC:8") == AppPlacement("G-CC", 8)
        assert parse_placement("G-CC", default_threads=2) == AppPlacement("G-CC", 2)
        with pytest.raises(ScenarioError):
            parse_placement("G-CC:lots")

    def test_validation(self):
        with pytest.raises(ScenarioError):
            Scenario(())
        with pytest.raises(ScenarioError):
            Scenario.pair("a", "b", llc_policy="cat-ways")
        with pytest.raises(ScenarioError):
            AppPlacement("G-CC", 0)

    def test_inband_profile_is_uncacheable(self):
        s = Scenario(
            (
                AppPlacement("G-CC", 4),
                AppPlacement("balloon", 4, profile=get_profile("Stream")),
            )
        )
        assert not s.cacheable
        assert s.corun_key() is None
        with pytest.raises(ScenarioError):
            _ = s.fingerprint

    def test_label(self):
        s = Scenario.of("G-CC:2", "Stream:4", llc_policy="even", smt=True)
        assert s.label == "G-CC:2+Stream:4[llc=even,smt]"


class TestScenarioSetBuilders:
    def test_pairwise_matches_matrix_shape(self):
        sweep = ScenarioSet.pairwise(SUBSET, threads=4)
        assert len(sweep) == 9
        assert sweep[0].corun_key() == ("G-CC", "G-CC", 4, 4)

    def test_consolidations_rotations(self):
        sweep = ScenarioSet.consolidations(SUBSET, n=3, threads=2)
        assert len(sweep) == 3  # C(3,3) combos x 3 rotations
        assert [s.placements[0].workload for s in sweep] == list(SUBSET)
        flat = ScenarioSet.consolidations(SUBSET, n=2, threads=2, rotate=False)
        assert len(flat) == 3  # C(3,2), single orientation

    def test_consolidations_validation(self):
        with pytest.raises(ScenarioError):
            ScenarioSet.consolidations(SUBSET, n=4)

    def test_policy_ablation(self):
        base = Scenario.of("G-CC:2", "Stream:2", "Bandit:2")
        ablation = ScenarioSet.policy_ablation(base)
        assert [s.llc_policy for s in ablation] == ["pressure", "even", "static"]
        assert len({s.fingerprint for s in ablation}) == 3


class TestPairEquivalence:
    def test_two_app_scenario_is_bit_identical_to_co_run(self):
        session = Session(make_config())
        sres = session.run_scenario(Scenario.pair("G-CC", "fotonik3d", threads=4))
        again = session.run_scenario(Scenario.pair("G-CC", "fotonik3d", threads=4))
        co = legacy_co_run(session, "G-CC", "fotonik3d", 4)
        assert sres.result.fg.runtime_s == co.fg.runtime_s
        assert sres.normalized_time == co.normalized_time
        assert sres.bg_relative_rates == co.bg_relative_rates
        assert sres.result.fg.by_region == co.fg.by_region
        # One simulation total: pairs live in the one scenario tier.
        assert session.stats.scenario_misses == 1
        assert session.stats.scenario_hits == 1
        assert again.result is sres.result

    def test_engine_pair_scenario_matches_co_run(self):
        engine = IntervalEngine()
        fg, bg = get_profile("G-CC"), get_profile("fotonik3d")
        co = engine.co_run(fg, bg, threads=4)
        scn = engine.scenario_run([fg, bg], [4, 4])
        assert scn.fg.runtime_s == co.fg.runtime_s
        assert scn.bg_relative_rates == co.bg_relative_rates
        assert scn.normalized_time == co.normalized_time

    def test_fig5_cells_equal_pair_scenarios(self):
        config = make_config()
        session = Session(config)
        matrix = session.run("fig5").result
        fresh = Session(config)
        for fg in SUBSET:
            for bg in SUBSET:
                sres = fresh.run_scenario(Scenario.pair(fg, bg, threads=4))
                solo = fresh.solo_runtime(fg, threads=4)
                assert sres.result.fg.runtime_s / solo == pytest.approx(
                    matrix.value(fg, bg), abs=0.0
                )

    def test_warm_store_pre_redesign_pair_keys_are_reused(self, tmp_path):
        from repro.store import ResultStore

        config = make_config(workloads=("G-CC", "fotonik3d"))
        # A pre-redesign writer: put_corun under the pair key.
        writer = Session(config)
        legacy = legacy_co_run(writer, "G-CC", "fotonik3d", 4)
        ResultStore(tmp_path / "st").put_corun(
            writer.engine_fingerprint(), "G-CC", "fotonik3d", 4, 4, legacy
        )
        # A cold process running the *scenario* API over the warm store.
        reader = Session(config, store=ResultStore(tmp_path / "st"))
        sres = reader.run_scenario(Scenario.pair("G-CC", "fotonik3d", threads=4))
        assert reader.stats.scenario_misses == 0
        assert reader.stats.scenario_disk_hits == 1
        assert sres.result.fg.runtime_s == legacy.fg.runtime_s
        assert sres.bg_relative_rates == legacy.bg_relative_rates
        # The fan-out path serves it too, counting the disk hit once.
        fanned = Session(config, store=ResultStore(tmp_path / "st"))
        fanned.run_scenarios([Scenario.pair("G-CC", "fotonik3d", threads=4)] * 2)
        assert fanned.stats.scenario_misses == 0
        assert fanned.stats.scenario_disk_hits == 1


class TestNWayScenarios:
    def test_three_way_runs_and_caches(self):
        session = Session(make_config())
        s = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        first = session.run_scenario(s)
        again = session.run_scenario(s)
        assert session.stats.scenario_misses == 1
        assert session.stats.scenario_hits == 1
        assert first.normalized_time > 1.0
        assert len(first.bg_relative_rates) == 2
        assert again.result is first.result

    def test_default_policy_shares_identity_with_explicit_default(self):
        # llc_policy=None and the engine's own policy are one cache
        # cell: a policy_ablation never re-simulates the default.
        session = Session(make_config())
        base = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        first = session.run_scenario(base)
        ablation = session.run_scenarios(ScenarioSet.policy_ablation(base))
        assert session.stats.scenario_misses == 3  # pressure reused, not 4
        assert ablation[0].result is first.result

    def test_cli_rejects_overrides_on_non_scenario_artifacts(self, usage_error):
        usage_error(["fig5", "--smt", "--workloads", "G-CC,swaptions"], "--smt")
        usage_error(["run-all", "--llc-policy", "static"], "--llc-policy")
        usage_error(["scenario", "ls", "--smt", "--store", "st"], "--smt")

    def test_llc_policy_ablation_orders_slowdowns(self):
        session = Session(make_config())
        base = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        static = session.run_scenario(base.with_policy("static"))
        pressure = session.run_scenario(base.with_policy("pressure"))
        # static = private-LLC idealization: strictly less interference.
        assert static.normalized_time < pressure.normalized_time
        # Distinct engine fingerprints: the ablation never shares cells.
        assert session.stats.scenario_misses == 2

    def test_smt_allows_oversubscription(self):
        session = Session(make_config())
        smt = session.run_scenario(Scenario.of("G-CC:4", "fotonik3d:4", "swaptions:4", smt=True))
        assert smt.normalized_time > 1.0
        with pytest.raises(EngineError):
            session.run_scenario(Scenario.of("G-CC:4", "fotonik3d:4", "swaptions:4"))

    def test_smt_pipeline_sharing_slows_solo(self):
        spec = small_test_machine(n_cores=2)
        prof = get_profile("swaptions")
        plain = IntervalEngine(spec=spec).solo_run(prof, threads=2)
        smt = IntervalEngine(spec=spec.smt_variant()).solo_run(prof, threads=4)
        # 4 threads on 2 SMT cores beat 2 threads (aggregate 1.3x/core),
        # but deliver far less than a true 4-core doubling.
        assert smt.runtime_s < plain.runtime_s
        assert smt.runtime_s > 0.55 * plain.runtime_s

    def test_store_round_trip(self, tmp_path):
        from repro.store import ResultStore

        config = make_config()
        s = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2", llc_policy="even")
        warm = Session(config, store=ResultStore(tmp_path / "st"))
        first = warm.run_scenario(s)
        cold = Session(config, store=ResultStore(tmp_path / "st"))
        second = cold.run_scenario(s)
        assert cold.stats.scenario_misses == 0
        assert cold.stats.scenario_disk_hits == 1
        assert second.result.fg.runtime_s == first.result.fg.runtime_s
        assert second.result.bg_relative_rates == first.result.bg_relative_rates
        assert second.result.apps[2].by_region == first.result.apps[2].by_region

    def test_executors_are_bit_identical(self):
        config = make_config()
        sweep = ScenarioSet.consolidations(SUBSET, n=3, threads=2)

        def run(executor):
            return [
                (r.normalized_time, tuple(r.bg_relative_rates))
                for r in Session(config, executor=executor).run_scenarios(sweep)
            ]

        serial = run(None)
        assert run(ParallelExecutor(2)) == serial
        assert run(ThreadExecutor(2)) == serial

    def test_run_scenarios_deduplicates(self):
        session = Session(make_config(), executor=ParallelExecutor(2))
        s = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        results = session.run_scenarios([s, s, s])
        assert session.stats.scenario_misses == 1
        assert len({id(r.result) for r in results}) == 1


class TestNWayRunner:
    def test_consolidate_n_degradation_table(self):
        session = Session(make_config())
        table = session.run("consolidate-n").result
        assert table.n == 3
        assert len(table.cells) == 3  # each app takes a turn as fg
        assert {c.fg for c in table.cells} == set(SUBSET)
        worst = table.worst()
        assert worst.fg_slowdown >= max(c.fg_slowdown for c in table.cells)
        # The 3-way cells agree with direct scenario runs.
        direct = session.run_scenario(
            Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        )
        assert table.cell("G-CC", ("fotonik3d", "swaptions")).fg_slowdown == (
            direct.normalized_time
        )

    def test_scenario_runner_roundtrips_record(self):
        import json

        from repro.session import RunRecord

        session = Session(make_config())
        record = session.run(
            "scenario", scenario=Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        )
        clone = RunRecord.from_json(record.to_json())
        assert clone.result.scenario == record.result.scenario
        assert clone.result.normalized_time == record.result.normalized_time
        json.loads(record.to_json())  # payload is JSON-native

    def test_default_scenario_fits_machine(self):
        session = Session(make_config())
        s = default_scenario(session)
        assert s.total_threads <= session.spec.n_slots
        assert len(s.placements) == 3
        smt = default_scenario(session, smt=True)
        assert smt.smt and smt.total_threads <= session.spec.n_slots * 2


class TestScenarioPayloadHelpers:
    def test_from_payload_roundtrip(self):
        for s in (
            Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2"),
            Scenario.pair("G-CC", "swaptions", llc_policy="static"),
            Scenario.of("G-CC:8", "fotonik3d:8", smt=True),
        ):
            assert Scenario.from_payload(s.payload()) == s
            assert Scenario.from_payload(s.payload()).fingerprint == s.fingerprint

    def test_shard_disjoint_and_covering(self):
        sweep = ScenarioSet.pairwise(SUBSET, threads=2)
        shards = [sweep.shard(i, 3) for i in (1, 2, 3)]
        flat = [s for piece in shards for s in piece]
        assert sorted(s.fingerprint for s in flat) == sorted(
            s.fingerprint for s in sweep
        )
        with pytest.raises(ScenarioError):
            sweep.shard(0, 3)
        with pytest.raises(ScenarioError):
            sweep.shard(4, 3)


class TestScenarioSetRunner:
    def test_default_sweep_reuses_fig5_and_consolidate_cells(self):
        """Inside a campaign the sweep artifact is pure provenance: its
        pair cells are fig5's and its rotations consolidate-n's, so it
        simulates nothing new."""
        session = Session(make_config())
        session.run("fig5")
        session.run("consolidate-n")
        before = session.stats.snapshot()
        sweep = session.run("scenario-set").result
        delta = session.stats.delta_since(before)
        assert delta["solo_misses"] == 0
        assert delta["scenario_misses"] == 0
        assert len(sweep.cells) == len(SUBSET) ** 2 + 3  # pairwise + rotations
        tiers = sweep.by_tier()
        assert tiers == {"corun": len(SUBSET) ** 2, "scenario": 3}

    def test_cells_carry_persistent_identity(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "st")
        session = Session(make_config(), store=store)
        sweep = session.run("scenario-set").result
        engine_fp = session.engine_fingerprint()
        default_policy = session.config.engine_config.llc_policy
        for cell in sweep.cells:
            assert cell.engine_fingerprint == engine_fp
            # The recorded fingerprint is the *canonical* cache identity:
            # llc_policy=None collapses onto the effective engine policy.
            assert (
                cell.fingerprint
                == cell.scenario.with_policy(default_policy).fingerprint
            )
            assert cell.tier == (
                "corun" if len(cell.scenario.placements) == 2 else "scenario"
            )
        # Every declared cell really is persisted under that identity:
        # a cold session over the store re-reads the whole sweep with
        # zero simulations.
        cold = Session(make_config(), store=ResultStore(tmp_path / "st"))
        cold.run("scenario-set")
        assert cold.stats.solo_misses == 0
        assert cold.stats.scenario_misses == 0

    def test_record_roundtrips_through_store(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "st")
        session = Session(make_config(), store=store)
        record = session.run("scenario-set")
        loaded = ResultStore(tmp_path / "st").latest("scenario-set")
        assert loaded.result.cells == record.result.cells
        assert loaded.result.pool == record.result.pool
        assert loaded.provenance == record.provenance

    def test_explicit_scenarios_and_overrides(self):
        session = Session(make_config())
        sweep = session.run(
            "scenario-set",
            scenarios=(Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2"),),
            llc_policy="static",
        ).result
        # Explicit scenarios are taken as-is (the override kwargs only
        # shape the default sweep).
        assert len(sweep.cells) == 1
        assert sweep.cells[0].tier == "scenario"
        direct = session.run_scenario(
            Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")
        )
        assert sweep.cells[0].fg_slowdown == direct.normalized_time

    def test_uncacheable_scenarios_rejected(self):
        session = Session(make_config())
        balloon = AppPlacement(
            "balloon", 2, profile=get_profile("G-CC"), solo_rate_override=1.0
        )
        with pytest.raises(ScenarioError):
            session.run(
                "scenario-set",
                scenarios=(Scenario((AppPlacement("G-CC", 2), balloon)),),
            )

    def test_cli_scenario_set_accepts_overrides(self, capsys):
        from repro.cli import main

        assert main([
            "scenario-set", "--workloads", "G-CC,swaptions", "--llc-policy", "even",
        ]) == 0
        out = capsys.readouterr().out
        assert "ScenarioSet sweep" in out and "worst hit" in out

    def test_empty_sweep_rejected(self):
        with pytest.raises(ScenarioError):
            Session(make_config()).run("scenario-set", scenarios=())
