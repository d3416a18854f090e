"""Tests for multi-process campaigns: sharded ``run-all``, the
``repro campaign`` driver, claim-file work stealing, crashed-worker
recovery, and manifest reconstruction from the store's merged index."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ExperimentConfig
from repro.errors import CampaignError
from repro.session import Session, runner_names
from repro.store import (
    ResultStore,
    build_manifest_from_store,
    diff_manifests,
    load_manifest,
    parse_shard,
    run_campaign,
    shard_names,
)
from repro.store.campaign import _claim, _claim_owner, _pid_alive

SUBSET = ("G-CC", "swaptions")
WORKLOADS_ARG = ",".join(SUBSET)


def make_config(**kw):
    kw.setdefault("workloads", SUBSET)
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard("3/3") == (3, 3)
        for bad in ("0/2", "3/2", "x/2", "2", "1/0", "-1/2"):
            with pytest.raises(CampaignError):
                parse_shard(bad)

    def test_shards_are_disjoint_and_cover(self):
        names = runner_names()
        pieces = [shard_names(names, i, 3) for i in (1, 2, 3)]
        flat = [n for piece in pieces for n in piece]
        assert sorted(flat) == sorted(names)
        assert len(flat) == len(set(flat))

    def test_claim_is_exclusive(self, tmp_path):
        assert _claim(tmp_path, "fig5") is True
        assert _claim(tmp_path, "fig5") is False
        assert _claim(tmp_path, "fig6") is True
        assert (tmp_path / "fig5.claim").read_text().strip().isdigit()

    def test_scenario_set_shards_at_cell_granularity(self):
        """``scenario-set`` with ``shard="I/N"`` executes a disjoint
        round-robin slice of the sweep's cells; the slices cover the
        full sweep exactly."""
        from repro.core.nway import default_sweep
        from repro.errors import ScenarioError

        session = Session(make_config())
        full = session.run("scenario-set").result
        slices = [
            session.run("scenario-set", shard=f"{i}/2").result for i in (1, 2)
        ]
        expected = len(default_sweep(session))
        assert len(full.cells) == expected
        got = [c.fingerprint for s in slices for c in s.cells]
        assert sorted(got) == sorted(c.fingerprint for c in full.cells)
        assert len(set(got)) == len(got)  # disjoint
        with pytest.raises(CampaignError):
            session.run("scenario-set", shard="3/2")
        with pytest.raises(ScenarioError):
            # More shards than cells: some slice must come up empty.
            session.run("scenario-set", shard=f"{expected + 1}/{expected + 1}")


class TestCrashedWorkerRecovery:
    def test_pid_alive_probe(self):
        assert _pid_alive(os.getpid()) is True
        assert _pid_alive(0) is False
        assert _pid_alive(-1) is False
        # A child that has fully exited (waited on) is verifiably dead.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        assert _pid_alive(proc.pid) is False

    def test_claim_owner_parsing(self, tmp_path):
        _claim(tmp_path, "fig5")
        assert _claim_owner(tmp_path / "fig5.claim") == os.getpid()
        # Empty file: a worker that died between create and write.
        (tmp_path / "torn.claim").write_text("")
        assert _claim_owner(tmp_path / "torn.claim") is None
        assert _claim_owner(tmp_path / "missing.claim") is None

    @pytest.mark.slow
    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="the monkeypatched Session.run reaches pool workers only "
        "under the fork start method",
    )
    def test_killed_worker_is_requeued(self, tmp_path, monkeypatch):
        """A worker that dies mid-claim (here: hard os._exit while
        running its first artifact) no longer fails the campaign — the
        driver re-queues the dead claim and the manifest still covers
        every artifact."""
        config = ExperimentConfig(workloads=("G-CC", "swaptions"), jitter=0.0)
        parent = os.getpid()
        marker = tmp_path / "killed-once"
        real_run = Session.run

        def flaky_run(self, name, **kwargs):
            # Die exactly once, in a pool worker, while holding a claim.
            if os.getpid() != parent and not marker.exists():
                marker.touch()
                os._exit(13)
            return real_run(self, name, **kwargs)

        monkeypatch.setattr(Session, "run", flaky_run)
        summary = run_campaign(config, tmp_path / "st", workers=2)
        assert marker.exists()  # a worker really died
        names = runner_names(artifact_only=False)
        assert summary["artifacts"] == sorted(names)
        assert summary["recovered"]  # at least the killed claim re-ran
        claimed = [n for w in summary["workers"] for n in w["done"]]
        assert sorted(claimed) == sorted(names)
        # The recovered campaign is still cell-for-cell identical to a
        # clean serial run.
        monkeypatch.setattr(Session, "run", real_run)
        serial_root = tmp_path / "serial"
        serial = Session(config, store=ResultStore(serial_root))
        serial.run_all(include_extensions=True)
        from repro.store import write_manifest

        write_manifest(serial, serial_root / "manifest.json", serial.store)
        diff = diff_manifests(
            load_manifest(serial_root), load_manifest(tmp_path / "st")
        )
        assert not diff["changed"] and not diff["only_in_a"] and not diff["only_in_b"]

    def test_live_claim_is_never_stolen(self, tmp_path, monkeypatch):
        """A missing artifact whose claim is held by a *live* pid fails
        the campaign instead of risking a concurrent double-run."""
        import repro.store.campaign as campaign_mod

        config = ExperimentConfig(workloads=("swaptions", "nab"), jitter=0.0)
        # Simulate: worker reports lose one artifact, but its claim is
        # owned by this (alive) process.
        real_worker = campaign_mod._campaign_worker

        def lossy_worker(task):
            report = real_worker(task)
            report["done"] = [n for n in report["done"] if n != "table1"]
            return report

        monkeypatch.setattr(campaign_mod, "_campaign_worker", lossy_worker)
        with pytest.raises(CampaignError, match="live pid"):
            run_campaign(config, tmp_path / "st", workers=1)

    def test_recovery_summary_empty_on_clean_run(self, tmp_path):
        config = ExperimentConfig(workloads=("swaptions", "nab"), jitter=0.0)
        summary = run_campaign(config, tmp_path / "st", workers=1)
        assert summary["recovered"] == []


class TestCampaign:
    @pytest.mark.slow
    def test_two_worker_campaign_matches_serial(self, tmp_path, capsys):
        """The acceptance path: a 2-process campaign over one store is
        ``store diff``-identical to a serial run-all, every artifact is
        claimed exactly once, and a second campaign is all disk hits."""
        serial_root = tmp_path / "serial"
        assert main([
            "run-all", "--store", str(serial_root), "--workloads", WORKLOADS_ARG,
        ]) == 0
        capsys.readouterr()

        camp_root = tmp_path / "camp"
        # Mirror the CLI's config exactly (same jitter/seed defaults):
        # run ids are content-addressed, so any config drift would show
        # up as a manifest diff below.
        summary = run_campaign(ExperimentConfig(workloads=SUBSET), camp_root, workers=2)
        names = runner_names(artifact_only=False)
        claimed = [n for w in summary["workers"] for n in w["done"]]
        assert sorted(claimed) == sorted(names)  # exactly once, no dupes
        assert len(summary["workers"]) == 2
        assert summary["artifacts"] == sorted(names)
        assert not list((camp_root / "campaign").iterdir())  # claims cleaned

        diff = diff_manifests(
            load_manifest(serial_root), load_manifest(camp_root)
        )
        assert not diff["changed"] and not diff["only_in_a"] and not diff["only_in_b"]
        assert not diff["config_changes"]

        # Warm second campaign: the shared cache proves reuse — no
        # *cacheable* cell is re-simulated anywhere across both workers.
        # (The predictor's in-band bubble reporter is uncacheable by
        # design, so its solo reference may cost one simulation per
        # worker process that characterizes against it.)
        again = run_campaign(ExperimentConfig(workloads=SUBSET), camp_root, workers=2)
        cache = again["cache"]
        assert cache.get("solo_misses", 0) <= 2  # <= 1 per worker, in-band only
        assert cache.get("scenario_misses", 0) == 0
        assert cache.get("solo_disk_hits", 0) + cache.get("scenario_disk_hits", 0) > 0

    @pytest.mark.slow
    def test_sharded_run_all_matches_serial(self, tmp_path, capsys):
        """Two `run-all --shard` passes over one store reproduce the
        serial campaign manifest cell-for-cell."""
        serial_root = tmp_path / "serial"
        assert main([
            "run-all", "--store", str(serial_root), "--workloads", WORKLOADS_ARG,
        ]) == 0
        shard_root = tmp_path / "sharded"
        for spec in ("1/2", "2/2"):
            assert main([
                "run-all", "--store", str(shard_root),
                "--workloads", WORKLOADS_ARG, "--shard", spec,
            ]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2:" in out and "shard 2/2:" in out
        assert main([
            "store", "diff",
            str(serial_root / "manifest.json"), str(shard_root / "manifest.json"),
        ]) == 0
        assert "0 changed" in capsys.readouterr().out
        # The final shard's manifest covers the whole registry.
        manifest = json.loads((shard_root / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == sorted(runner_names())

    def test_single_worker_campaign_runs_inline(self, tmp_path):
        config = make_config(workloads=("swaptions", "nab"))
        summary = run_campaign(config, tmp_path / "st", workers=1)
        assert len(summary["workers"]) == 1
        assert summary["workers"][0]["done"]  # claimed everything inline
        assert Path(summary["manifest_path"]).is_file()

    def test_build_manifest_from_store_prefers_canonical(self, tmp_path):
        from repro.session import Session

        store = ResultStore(tmp_path / "st")
        config = make_config()
        session = Session(config, store=store)
        full = session.run("fig5")
        session.run("fig5", foregrounds=("G-CC",), backgrounds=("swaptions",))
        manifest = build_manifest_from_store(store, config)
        row = manifest["artifacts"]["fig5"]
        assert row["run_id"] == store.run_id_for(full)
        assert row["provenance"]["arguments"] == {}
        assert manifest["spec_fingerprint"] == session.spec_fingerprint()
        assert manifest["engine_fingerprint"] == session.engine_fingerprint()
        # Only artifacts with records appear: a partial store freezes a
        # partial manifest rather than inventing rows.
        assert sorted(manifest["artifacts"]) == ["fig5"]

    def test_workers_validation(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(make_config(), tmp_path / "st", workers=0)


class TestCampaignCli:
    def test_campaign_requires_store(self, capsys):
        assert main(["campaign"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_shard_only_applies_to_run_all(self, usage_error):
        usage_error(["fig5", "--shard", "1/2", "--workloads", WORKLOADS_ARG], "--shard")
        usage_error(["campaign", "--shard", "1/2", "--store", "st"], "--shard")

    def test_shard_requires_store(self, capsys):
        # Without a shared store a shard would freeze a silently
        # partial manifest: refuse instead.
        assert main(["run-all", "--shard", "1/2", "--workloads", WORKLOADS_ARG]) == 2
        assert "--store" in capsys.readouterr().err

    def test_bad_shard_spec_is_a_store_error(self, tmp_path, capsys):
        assert main([
            "run-all", "--store", str(tmp_path / "st"),
            "--workloads", WORKLOADS_ARG, "--shard", "5/2",
        ]) == 2
        assert "shard" in capsys.readouterr().err

    @pytest.mark.slow
    def test_cli_campaign_end_to_end(self, tmp_path, capsys):
        st = str(tmp_path / "st")
        assert main([
            "campaign", "--store", st, "--workers", "2",
            "--workloads", WORKLOADS_ARG,
        ]) == 0
        out = capsys.readouterr().out
        assert "worker pid=" in out and "manifest.json" in out
        manifest = json.loads((tmp_path / "st" / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == sorted(runner_names())
        assert manifest["executor"] == "campaign[2]"
