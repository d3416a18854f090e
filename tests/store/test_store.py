"""Tests for the persistent result store (repro.store).

Covers the codec's exact round-trip, atomic-write crash safety, the
record index (append / query / latest), Session read-through +
write-behind with disk-hit counters, the warm-store bit-identical
regression (the determinism trap: store keys reuse
``session.fingerprint`` exactly), and the ``run-all`` campaign
manifest.
"""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ExperimentConfig
from repro.errors import StoreError
from repro.session import ParallelExecutor, Scenario, Session, runner_names
from repro.store import (
    RECORD_SCHEMA,
    SCHEMA_VERSION,
    ResultStore,
    decode_corun,
    decode_solo,
    encode_corun,
    encode_solo,
)
from repro.workloads.registry import get_profile

SUBSET = ("G-CC", "fotonik3d", "swaptions")


def make_config(**overrides) -> ExperimentConfig:
    kwargs = dict(workloads=SUBSET, jitter=0.02, seed=7)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class TestCodec:
    def test_solo_roundtrip_exact(self):
        engine = make_config().make_engine()
        solo = engine.solo_run(get_profile("G-CC"), threads=4)
        again = decode_solo(json.loads(json.dumps(encode_solo(solo))))
        assert again == solo  # dataclass equality: every float bit-identical
        assert again.metrics.total.instructions == solo.metrics.total.instructions

    def test_corun_roundtrip_exact(self):
        config = make_config()
        engine = config.make_engine()
        fg_solo = engine.solo_run(get_profile("G-CC"), threads=4)
        bg_solo = engine.solo_run(get_profile("fotonik3d"), threads=4)
        co = engine.co_run(
            get_profile("G-CC"),
            get_profile("fotonik3d"),
            threads=4,
            fg_solo_runtime_s=fg_solo.runtime_s,
            bg_solo_rate=bg_solo.metrics.total.instructions / bg_solo.runtime_s,
        )
        again = decode_corun(json.loads(json.dumps(encode_corun(co))))
        assert again == co
        assert again.normalized_time == co.normalized_time
        # Region accumulation order survives (float sums depend on it).
        assert list(again.fg.by_region) == list(co.fg.by_region)


class TestResultStoreCache:
    def test_get_on_empty_store_is_none(self, store):
        assert store.get_solo("abc123", "G-CC", 4) is None
        assert store.get_corun("abc123", "G-CC", "fotonik3d", 4, 4) is None

    def test_solo_put_get_roundtrip(self, store):
        session = Session(make_config())
        solo = session.solo("G-CC", threads=4)
        fp = session.engine_fingerprint()
        store.put_solo(fp, "G-CC", 4, solo)
        assert store.get_solo(fp, "G-CC", 4) == solo
        # Different engine fingerprint never serves the entry.
        assert store.get_solo("other-fp-0000", "G-CC", 4) is None

    def test_corun_put_get_roundtrip(self, store):
        session = Session(make_config())
        co = session.run_scenario(Scenario.pair("G-CC", "fotonik3d", threads=4)).result
        fp = session.engine_fingerprint()
        store.put_corun(fp, "G-CC", "fotonik3d", 4, 4, co)
        assert store.get_corun(fp, "G-CC", "fotonik3d", 4, 4) == co
        assert store.get_corun(fp, "fotonik3d", "G-CC", 4, 4) is None

    def test_partial_file_is_a_miss(self, store):
        """A segment whose only entry a crash tore mid-write costs a
        re-simulation, never bad data."""
        session = Session(make_config())
        fp = session.engine_fingerprint()
        store.put_solo(fp, "G-CC", 4, session.solo("G-CC", threads=4))
        [segment] = Path(store.root, "solo", fp).iterdir()
        data = segment.read_bytes()
        for cut in (len(data) - 1, data.index(b"\n") + 1, 40):
            segment.write_bytes(data[:cut])
            assert ResultStore(store.root).get_solo(fp, "G-CC", 4) is None

    def test_tmp_sibling_is_ignored(self, store):
        session = Session(make_config())
        solo = session.solo("G-CC", threads=4)
        fp = session.engine_fingerprint()
        store.put_solo(fp, "G-CC", 4, solo)
        # Leftovers in the shard: a migrate cut short before it published
        # its segment, and a crashed earlier-version writer's tmp file.
        [segment] = Path(store.root, "solo", fp).iterdir()
        segment.with_name(segment.name + ".tmp").write_bytes(segment.read_bytes())
        (segment.parent / "G-CC-t4-000000000000.json.tmp-999").write_text("garbage")
        fresh = ResultStore(store.root)
        assert fresh.get_solo(fp, "G-CC", 4) == solo
        assert len(fresh.cache_entries("solo")) == 1

    def test_corrupt_but_parseable_entry_is_a_miss(self, store):
        """A whole entry with its digest intact whose numbers do not fit
        its shape: still a miss."""
        session = Session(make_config(workloads=("swaptions",)))
        fp = session.engine_fingerprint()
        store.put_solo(fp, "swaptions", 4, session.solo("swaptions", threads=4))
        [segment] = Path(store.root, "solo", fp).iterdir()
        line1, line2 = segment.read_bytes().split(b"\n")[:2]
        envelope = json.loads(line1)
        envelope["shape"]["apps"][0][2].append("extra-region")  # six numbers short
        segment.write_bytes(json.dumps(envelope).encode() + b"\n" + line2 + b"\n")
        assert ResultStore(store.root).get_solo(fp, "swaptions", 4) is None
        # A session over the damaged store transparently re-simulates.
        warm = Session(make_config(workloads=("swaptions",)), store=store.root)
        warm.solo("swaptions", threads=4)
        assert warm.stats.solo_misses == 1

    def test_foreign_schema_file_is_a_miss(self, store):
        session = Session(make_config())
        fp = session.engine_fingerprint()
        store.put_solo(fp, "G-CC", 4, session.solo("G-CC", threads=4))
        [segment] = Path(store.root, "solo", fp).iterdir()
        data = segment.read_bytes()
        segment.write_bytes(data.replace(b'"schema": 2,', b'"schema": 9,', 1))
        assert ResultStore(store.root).get_solo(fp, "G-CC", 4) is None

    def test_store_schema_mismatch_raises(self, tmp_path):
        root = tmp_path / "old-store"
        ResultStore(root)
        (root / "store.json").write_text(json.dumps({"schema": SCHEMA_VERSION + 1}))
        with pytest.raises(StoreError):
            ResultStore(root)

    def test_reopen_same_store_ok(self, tmp_path):
        root = tmp_path / "st"
        ResultStore(root)
        ResultStore(root)  # idempotent


class TestSessionReadThrough:
    def test_disk_hit_counters(self, tmp_path):
        cold = Session(make_config(), store=tmp_path / "st")
        cold.run("fig5")
        assert cold.stats.solo_disk_hits == 0
        assert cold.stats.scenario_disk_hits == 0

        warm = Session(make_config(), store=tmp_path / "st")  # fresh process stand-in
        warm.run("fig5")
        assert warm.stats.solo_misses == 0
        assert warm.stats.scenario_misses == 0
        assert warm.stats.solo_disk_hits == len(SUBSET)
        assert warm.stats.scenario_disk_hits == len(SUBSET) ** 2

    def test_warm_store_fig5_table3_bit_identical(self, tmp_path):
        """Determinism-trap regression: a round-tripped store reproduces
        Fig 5 and Table III cell-for-cell (keys reuse session.fingerprint)."""
        pairs = (("G-CC", "fotonik3d"), ("G-CC", "swaptions"))
        cold = Session(make_config(), store=tmp_path / "st")
        fig5_cold = cold.run("fig5").result
        table3_cold = cold.run("table3", pairs=pairs).result

        warm = Session(make_config(), store=tmp_path / "st")
        fig5_warm = warm.run("fig5").result
        table3_warm = warm.run("table3", pairs=pairs).result
        assert fig5_warm.cells == fig5_cold.cells  # exact float equality
        assert table3_warm.rows == table3_cold.rows
        assert warm.stats.scenario_disk_hits > 0

    def test_store_paths_keyed_by_session_fingerprint(self, tmp_path):
        session = Session(make_config(workloads=("swaptions",)), store=tmp_path / "st")
        session.solo("swaptions", threads=4)
        fp = session.engine_fingerprint()
        [entry] = session.store.cache_entries("solo")
        assert entry.engine_fp == fp
        assert entry.path.startswith(f"solo/{fp}/") and entry.path.endswith(".jsonl")
        key = session.store.entry_head(entry)["key"]
        assert key == {"engine_fingerprint": fp, "workload": "swaptions", "threads": 4}

    def test_different_engine_config_does_not_hit_warm_store(self, tmp_path):
        session = Session(make_config(workloads=("swaptions",)), store=tmp_path / "st")
        session.solo("swaptions", threads=4)

        warm = Session(make_config(workloads=("swaptions",)), store=tmp_path / "st")
        off = replace(warm.config.engine_config, prefetchers_on=False)
        warm.solo("swaptions", threads=4, engine_config=off)
        assert warm.stats.solo_disk_hits == 0
        assert warm.stats.solo_misses == 1

    def test_warm_fanout_counts_each_disk_serve_once(self, tmp_path):
        """Pair entries in the ``corun/`` format every earlier store
        holds serve a warm fan-out: a disk-promoted cell consumed by the
        planner is one disk hit, not a disk hit plus a memory hit."""
        from repro.session import ThreadExecutor

        config = make_config(workloads=("G-CC", "fotonik3d"))
        splits = [(t, 8 - t) for t in range(1, 8)]
        writer = Session(config)
        store = ResultStore(tmp_path / "st")
        written = []
        for fg_t, bg_t in splits:
            co = writer.engine().co_run(
                get_profile("G-CC"),
                get_profile("fotonik3d"),
                threads=fg_t,
                bg_threads=bg_t,
                fg_solo_runtime_s=writer.solo_runtime("G-CC", threads=fg_t),
                bg_solo_rate=writer.solo_rate("fotonik3d", threads=bg_t),
            )
            fp = writer.engine_fingerprint()
            store.put_corun(fp, "G-CC", "fotonik3d", fg_t, bg_t, co)
            written.append(co)

        warm = Session(config, executor=ThreadExecutor(2), store=tmp_path / "st")
        results = warm.run_scenarios(
            Scenario.pair("G-CC", "fotonik3d", threads=f, bg_threads=b)
            for f, b in splits
        )
        assert warm.stats.scenario_disk_hits == 7
        assert warm.stats.scenario_hits == 0
        assert warm.stats.scenario_misses == 0
        assert [r.result for r in results] == written

    def test_parallel_sweep_persists_worker_results(self, tmp_path):
        par = Session(
            make_config(jitter=0.0), executor=ParallelExecutor(2), store=tmp_path / "st"
        )
        expected = par.run("fig5").result

        warm = Session(make_config(jitter=0.0), store=tmp_path / "st")
        assert warm.run("fig5").result.cells == expected.cells
        assert warm.stats.scenario_misses == 0

    def test_explicit_profile_bypasses_disk(self, tmp_path):
        session = Session(make_config(workloads=("swaptions",)), store=tmp_path / "st")
        session.solo("swaptions", threads=4, profile=get_profile("swaptions"))
        assert not (tmp_path / "st" / "solo").exists()

    def test_store_accepts_path_or_instance(self, tmp_path):
        a = Session(make_config(), store=tmp_path / "st")
        b = Session(make_config(), store=ResultStore(tmp_path / "st"))
        assert a.store.root == b.store.root
        assert Session(make_config()).store is None


class TestIndexAndQuery:
    def test_records_streamed_and_queryable(self, store):
        session = Session(make_config(), store=store)
        record = session.run("fig5")
        entries = store.query(artifact="fig5")
        assert len(entries) == 1
        entry = entries[0]
        assert entry.run_id == store.run_id_for(record)
        assert entry.spec_fingerprint == session.spec_fingerprint()
        assert entry.engine_fingerprint == session.engine_fingerprint()
        assert (store.root / entry.path).is_file()
        assert entry.cache["scenario_misses"] == len(SUBSET) ** 2

    def test_query_filters(self, store):
        session = Session(make_config(), store=store)
        session.run("fig5")
        session.run("table3", pairs=(("G-CC", "fotonik3d"),))
        assert {e.artifact for e in store.query()} == {"fig5", "table3"}
        assert [e.artifact for e in store.query(artifact="table3")] == ["table3"]
        assert store.query(spec_fp="nope") == []
        assert store.query(spec_fp=session.spec_fingerprint(), artifact="fig5")

    def test_load_by_run_id_and_latest(self, store):
        session = Session(make_config(), store=store)
        record = session.run("fig5")
        by_id = store.load(store.run_id_for(record))
        assert by_id.result.cells == record.result.cells
        assert by_id.provenance == record.provenance
        assert store.latest("fig5").result.cells == record.result.cells

    def test_latest_prefers_canonical_over_subset_run(self, store):
        session = Session(make_config(), store=store)
        full = session.run("fig5")
        session.run("fig5", foregrounds=("G-CC",), backgrounds=("swaptions",))
        latest = store.latest("fig5")
        assert latest.result.cells == full.result.cells
        # Both runs are still in the index.
        assert len(store.query(artifact="fig5")) == 2

    def test_rerun_is_idempotent_on_disk(self, store):
        for _ in range(2):
            Session(make_config(), store=store).run("fig5")
        entries = store.query(artifact="fig5")
        assert len(entries) == 2  # append-only history...
        assert entries[0].run_id == entries[1].run_id  # ...same content address
        assert store.describe()["records"] == 1  # one record file

    def test_torn_index_line_is_skipped(self, store):
        session = Session(make_config(), store=store)
        session.run("fig5")
        with open(store.sink.index_path, "a") as fh:
            fh.write('{"schema": 1, "run_id": "torn')  # crash mid-append
        assert [e.artifact for e in store.query()] == ["fig5"]

    def test_failed_record_write_leaves_no_tmp_file(self, store, monkeypatch):
        """A record write whose rename fails (ENOSPC, EIO) raises and
        removes its temporary file; nothing else would ever delete it."""
        record = Session(make_config()).run("table1")

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="No space"):
            store.sink.append(record)
        assert not list(store.root.rglob("*.tmp-*"))

    def test_missing_lookups_raise(self, store):
        with pytest.raises(StoreError):
            store.latest("fig5")
        with pytest.raises(StoreError):
            store.load("fig5-doesnotexist")


class TestRunAllManifest:
    @pytest.mark.slow
    def test_run_all_manifest_and_warm_second_process(self, tmp_path, capsys):
        """The acceptance path: two `repro run-all --store DIR` passes,
        the second warm from disk and bit-identical."""
        st = str(tmp_path / "st")
        args = ["run-all", "--store", st, "--workloads", "G-CC,swaptions"]
        assert main(args) == 0
        capsys.readouterr()
        manifest_path = tmp_path / "st" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == RECORD_SCHEMA
        # Every registered runner is in the campaign with provenance.
        assert sorted(manifest["artifacts"]) == sorted(runner_names())
        for name, row in manifest["artifacts"].items():
            assert row["run_id"].startswith(name)
            assert row["path"].startswith("results/")
            prov = row["provenance"]
            assert prov["spec_fingerprint"] and prov["engine_fingerprint"]
            assert "cache" in prov and "duration_s" in prov
        assert manifest["cache"]["solo_disk_hits"] == 0

        store = ResultStore(st)
        first_fig5 = store.latest("fig5").result.cells

        assert main(args) == 0
        out = capsys.readouterr().out
        manifest2 = json.loads(manifest_path.read_text())
        # Warm pass: >0 disk hits reported, bit-identical artifact cells.
        assert manifest2["cache"]["solo_disk_hits"] > 0
        assert manifest2["cache"]["scenario_disk_hits"] > 0
        assert manifest2["cache"]["scenario_misses"] == 0
        assert "disk hits:" in out
        assert ResultStore(st).latest("fig5").result.cells == first_fig5
        assert (
            manifest2["artifacts"]["fig5"]["run_id"]
            == manifest["artifacts"]["fig5"]["run_id"]
        )

    def test_run_all_without_store_writes_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        assert main([
            "run-all", "--workloads", "swaptions,nab",
            "--manifest", str(manifest_path),
        ]) == 0
        manifest = json.loads(manifest_path.read_text())
        assert sorted(manifest["artifacts"]) == sorted(runner_names())
        assert "run_id" not in manifest["artifacts"]["fig5"]  # no store attached


class TestStoreCli:
    def test_store_requires_store_flag(self, capsys):
        assert main(["store", "ls"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_store_ls_and_show(self, tmp_path, capsys):
        st = str(tmp_path / "st")
        assert main(["fig5", "--store", st, "--workloads", "swaptions,nab"]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", st]) == 0
        out = capsys.readouterr().out
        assert "2 solo, 4 co-run" in out and "fig5-" in out

        assert main(["store", "show", "fig5", "--store", st]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out and '"spec_fingerprint"' in out

    def test_store_show_by_run_id(self, tmp_path, capsys):
        st = str(tmp_path / "st")
        assert main(["table1", "--store", st, "--workloads", "swaptions"]) == 0
        capsys.readouterr()
        run_id = ResultStore(st).query(artifact="table1")[0].run_id
        assert main(["store", "show", run_id, "--store", st]) == 0
        assert "swaptions" in capsys.readouterr().out

    def test_store_show_runner_without_decode(self, tmp_path, capsys):
        """Artifacts whose runner keeps the default decode (raw payload)
        show the stored JSON instead of crashing."""
        st = str(tmp_path / "st")
        assert main(["fig2", "--store", st, "--workloads", "swaptions,nab"]) == 0
        assert main(["table3", "--store", st, "--workloads", "swaptions,nab"]) == 0
        capsys.readouterr()
        assert main(["store", "show", "fig2", "--store", st]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out and '"spec_fingerprint"' in out
        assert main(["store", "show", "table3", "--store", st]) == 0
        assert "fotonik3d" in capsys.readouterr().out

    def test_stray_positional_rejected(self, usage_error):
        usage_error(["table1", "bogus-extra", "--workloads", "swaptions"], "bogus-extra")
        usage_error(["store", "ls", "bogus-extra", "--store", "st"], "bogus-extra")
        usage_error(["store", "show", "fig5", "fig2", "--store", "st"], "fig2")
        usage_error(["store", "show", "--store", "st"], "TARGET")

    def test_store_show_unknown_subcommand(self, usage_error, tmp_path):
        usage_error(["store", "frobnicate", "--store", str(tmp_path / "st")], "'frobnicate'")

    def test_single_artifact_warm_store(self, tmp_path, capsys):
        st = str(tmp_path / "st")
        assert main(["fig5", "--store", st, "--workloads", "swaptions,nab", "--csv"]) == 0
        first = capsys.readouterr().out
        assert main(["fig5", "--store", st, "--workloads", "swaptions,nab", "--csv"]) == 0
        assert capsys.readouterr().out == first  # warm pass, identical bits
