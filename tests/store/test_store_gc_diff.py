"""Tests for store maintenance: ``store gc`` and ``store diff``."""

import json

import pytest

from repro.cli import main
from repro.core import ExperimentConfig
from repro.errors import StoreError
from repro.session import Scenario, Session
from repro.store import ResultStore, diff_manifests, load_manifest, render_diff

SUBSET = ("G-CC", "swaptions")


def make_config(**kw):
    kw.setdefault("workloads", SUBSET)
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


def populate(store_dir):
    store = ResultStore(store_dir)
    session = Session(make_config(), store=store)
    session.run_scenario(Scenario.pair("G-CC", "swaptions", threads=4))
    session.run_scenario(Scenario.of("G-CC:2", "swaptions:2", "G-CC:2"))
    return store, session


#: One whole entry in a segment, as the store's listing (and gc's counts)
#: see it; no reader would serve it.
FORGED = b'{"keyfp": "000000000000", "schema": 2}\nAAAA\n'


class TestStoreGc:
    def test_gc_prunes_only_orphaned_shards(self, tmp_path):
        store, session = populate(tmp_path / "st")
        live_fp = session.engine_fingerprint()
        # Forge shards under a fingerprint no config can reach.
        for section in ("solo", "corun", "scenario"):
            orphan = store.root / section / "deadbeef0000"
            orphan.mkdir(parents=True)
            (orphan / "1-00000000.jsonl").write_bytes(FORGED)
        before = store.describe()

        dry = store.gc({live_fp}, dry_run=True)
        assert dry["dry_run"] and dry["removed_entries"] == 3
        assert store.describe() == before  # dry run touched nothing

        summary = store.gc({live_fp})
        assert summary["removed_entries"] == 3
        assert sorted(summary["removed_dirs"]) == [
            "corun/deadbeef0000", "scenario/deadbeef0000", "solo/deadbeef0000",
        ]
        after = store.describe()
        assert after["solo_entries"] == before["solo_entries"] - 1
        assert after["corun_entries"] == before["corun_entries"] - 1
        assert after["scenario_entries"] == before["scenario_entries"] - 1
        # Live entries still serve a cold session with zero simulations.
        cold = Session(make_config(), store=ResultStore(store.root))
        cold.run_scenario(Scenario.pair("G-CC", "swaptions", threads=4))
        assert cold.stats.scenario_misses == 0

    def test_gc_never_touches_records(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        session = Session(make_config(), store=store)
        session.run("table1")
        summary = store.gc(set())  # nothing is live
        assert summary["kept_entries"] == 0
        assert store.describe()["records"] == 1
        assert store.describe()["index_lines"] == 1

    def test_live_fingerprints_cover_runner_ablations(self):
        # fig4 runs solos with prefetchers_on=False; scenario runs vary
        # llc_policy and the SMT spec.  All of them must be live, or gc
        # would eat warm cells a plain `repro fig4` can still hit.
        from dataclasses import replace

        from repro.session import Session, fingerprint
        from repro.store import live_engine_fingerprints

        config = make_config()
        live = live_engine_fingerprints(config.spec, config.engine_config)
        session = Session(config)
        assert session.engine_fingerprint() in live
        off = replace(config.engine_config, prefetchers_on=False)
        assert fingerprint(config.spec, off) in live
        assert fingerprint(config.spec.smt_variant(), off) in live
        static = replace(config.engine_config, llc_policy="static")
        assert fingerprint(config.spec, static) in live
        # ...while a different machine is not.
        from repro.machine.spec import small_test_machine

        assert fingerprint(small_test_machine(), config.engine_config) not in live

    def test_gc_keeps_cat_sweep_and_pinned_shards(self, tmp_path, capsys):
        """Regression for the CAT redesign: way-mask and pinning
        variants persist under engine fingerprints that
        ``live_engine_fingerprints`` must cover — a freshly written
        cat-sweep must survive ``store gc`` with zero prunable shards.
        """
        from repro.store import live_engine_fingerprints

        config = make_config(workloads=("xalancbmk",))
        store = ResultStore(tmp_path / "st")
        session = Session(config, store=store)
        session.run("cat-sweep")
        masked = Scenario.pair("xalancbmk", "Stream", threads=4).with_ways(
            [0xF0, 0x0F]
        )
        session.run_scenario(masked)
        pinned = Scenario.pair("xalancbmk", "Stream", threads=1, smt=True)
        session.run_scenario(pinned.with_pinning([(0,), (0,)]))
        assert store.describe()["scenario_entries"] > 0

        # Every persisted shard (solo/corun/scenario) must be live.
        live = live_engine_fingerprints(config.spec, config.engine_config)
        for section in ("solo", "corun", "scenario"):
            base = store.root / section
            if not base.exists():
                continue
            for shard in base.iterdir():
                assert shard.name in live, f"{section}/{shard.name} would be pruned"
        summary = store.gc(live, dry_run=True)
        assert summary["removed_entries"] == 0
        assert summary["removed_dirs"] == []

        # And through the CLI: a dry-run gc right after the sweep
        # reports zero prunable entries, then the warm cells still
        # serve a cold session without simulation.
        assert main(["store", "gc", "--store", str(store.root), "--dry-run"]) == 0
        assert "would prune 0 cache entr(ies)" in capsys.readouterr().out
        cold = Session(config, store=ResultStore(store.root))
        cold.run_scenario(masked)
        assert cold.stats.scenario_misses == 0
        assert cold.stats.scenario_disk_hits == 1

    def test_cli_gc_keeps_current_config_shards(self, tmp_path, capsys):
        st = str(tmp_path / "st")
        populate(st)
        orphan = tmp_path / "st" / "corun" / "feedfacecafe"
        orphan.mkdir(parents=True)
        (orphan / "1-00000000.jsonl").write_bytes(FORGED)
        assert main(["store", "gc", "--store", st, "--dry-run"]) == 0
        assert "would prune 1" in capsys.readouterr().out
        assert orphan.exists()
        assert main(["store", "gc", "--store", st]) == 0
        out = capsys.readouterr().out
        assert "pruned 1" in out and "corun/feedfacecafe" in out
        assert not orphan.exists()
        # The current config's shards survived (solo+corun+scenario).
        cold = Session(make_config(), store=ResultStore(st))
        cold.run_scenario(Scenario.of("G-CC:2", "swaptions:2", "G-CC:2"))
        assert cold.stats.scenario_misses == 0


def write_campaign(tmp_path, name, workloads):
    st = tmp_path / name
    assert main(["run-all", "--store", str(st), "--workloads", ",".join(workloads)]) == 0
    return st


class TestStoreDiff:
    @pytest.mark.slow
    def test_identical_campaigns_diff_empty(self, tmp_path, capsys):
        a = write_campaign(tmp_path, "a", SUBSET)
        b = write_campaign(tmp_path, "b", SUBSET)
        capsys.readouterr()
        diff = diff_manifests(load_manifest(a), load_manifest(b))
        assert not diff["changed"] and not diff["only_in_a"] and not diff["only_in_b"]
        assert not diff["config_changes"]
        assert len(diff["identical"]) > 0
        assert main(["store", "diff", str(a), str(b)]) == 0
        assert "0 changed" in capsys.readouterr().out

    @pytest.mark.slow
    def test_changed_and_missing_artifacts_reported(self, tmp_path, capsys):
        a = write_campaign(tmp_path, "a", SUBSET)
        b = write_campaign(tmp_path, "b", SUBSET)
        manifest = json.loads((b / "manifest.json").read_text())
        dropped = manifest["artifacts"].pop("table4")
        manifest["artifacts"]["fig5"]["run_id"] = "fig5-differs"
        manifest["artifacts"]["extra"] = dropped
        manifest["config"]["seed"] = 99
        (b / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        diff = diff_manifests(load_manifest(a), load_manifest(b))
        assert diff["only_in_a"] == ["table4"]
        assert diff["only_in_b"] == ["extra"]
        assert "run_id" in diff["changed"]["fig5"]
        assert diff["config_changes"]["seed"] == [0, 99]
        text = render_diff(diff)
        assert "changed fig5" in text and "only in A: table4" in text
        assert main(["store", "diff", str(a), str(b)]) == 1  # differences -> exit 1

    def test_load_manifest_errors(self, tmp_path):
        with pytest.raises(StoreError):
            load_manifest(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": 99}")
        with pytest.raises(StoreError):
            load_manifest(bad)
        with pytest.raises(StoreError):
            main_path = tmp_path / "torn.json"
            main_path.write_text("{not json")
            load_manifest(main_path)

    def test_cli_diff_requires_two_paths(self, usage_error):
        usage_error(["store", "diff", "just-one"], "required: B")
        usage_error(["store", "diff"], "required: A, B")
        usage_error(["store", "diff", "a", "b", "c"], "unrecognized arguments: c")
