"""Tests for the unified Session/Runner experiment API."""

import json

import pytest

from repro.core import ExperimentConfig
from repro.errors import ExperimentError
from repro.session import (
    ParallelExecutor,
    RunRecord,
    Scenario,
    SerialExecutor,
    Session,
    ThreadExecutor,
    get_runner,
    resolve_executor,
    runner_names,
)

SUBSET = ("G-CC", "fotonik3d", "swaptions", "CIFAR", "IRSmk")


def make_config(**overrides) -> ExperimentConfig:
    kwargs = dict(workloads=SUBSET, jitter=0.02, seed=7)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        names = runner_names(artifact_only=True)
        assert names == [
            "table1", "fig2", "table2", "fig3", "fig4", "fig5",
            "table3", "fig6", "fig7", "fig8", "table4",
        ]

    def test_extensions_registered(self):
        assert {"solo", "insights", "predict", "efficiency", "allocation"} <= set(
            runner_names()
        )

    def test_unknown_artifact_raises(self):
        with pytest.raises(ExperimentError):
            get_runner("fig99")
        session = Session(make_config())
        with pytest.raises(ExperimentError):
            session.run("fig99")

    def test_runner_metadata(self):
        runner = get_runner("fig5")
        assert runner.name == "fig5"
        assert runner.artifact
        assert runner.title


class TestLegacyEquivalence:
    def test_different_seed_changes_jittered_cells(self):
        a = Session(make_config(seed=7)).run("fig5").result
        b = Session(make_config(seed=8)).run("fig5").result
        assert a.cells != b.cells

    def test_cells_independent_of_sweep_subset(self):
        # Keyed jitter: a cell's value does not depend on which other
        # cells were swept alongside it.
        full = Session(make_config()).run("fig5").result
        sub = Session(make_config()).run(
            "fig5", foregrounds=("G-CC",), backgrounds=("fotonik3d",)
        ).result
        assert sub.value("G-CC", "fotonik3d") == full.value("G-CC", "fotonik3d")


class TestSharedCaches:
    def test_solo_cache_shared_across_runners(self):
        session = Session(make_config(jitter=0.0))
        session.run("fig5")
        misses_after_fig5 = session.stats.solo_misses
        assert misses_after_fig5 > 0
        session.run(
            "table3",
            pairs=(("CIFAR", "fotonik3d"), ("G-CC", "IRSmk")),
        )
        # Every solo reference table3 needs was already measured by fig5.
        assert session.stats.solo_misses == misses_after_fig5
        assert session.stats.solo_hits > 0

    def test_pair_cache_shared_across_runners(self):
        session = Session(make_config(jitter=0.0))
        session.run("fig5")
        misses = session.stats.scenario_misses
        session.run("table3", pairs=(("G-CC", "fotonik3d"), ("G-CC", "CIFAR")))
        # Both pair co-runs were cells of the fig5 sweep.
        assert session.stats.scenario_misses == misses
        assert session.stats.scenario_hits >= 2

    def test_prefetch_off_engine_is_separate_cache_entry(self):
        session = Session(make_config(workloads=("IRSmk",), jitter=0.0))
        session.run("fig4")
        result = session.run("fig4").result
        assert 0.0 < result.ratios["IRSmk"] <= 1.0
        # on + off solos, plus nothing shared between the two engines.
        assert session.stats.solo_misses == 2

    def test_artifact_records_memoized(self):
        session = Session(make_config(jitter=0.0))
        first = session.run("fig5")
        second = session.run("fig5")
        assert second is first
        assert len([r for r in session.records if r.artifact == "fig5"]) == 1

    def test_explicit_default_kwargs_share_memo(self):
        session = Session(make_config(jitter=0.0))
        a = session.run("fig2")
        b = session.run("fig2", max_threads=8)  # restates the default
        assert b is a

    def test_table2_reuses_fig2_record(self):
        session = Session(make_config(workloads=("swaptions", "nab"), jitter=0.0))
        session.run("fig2")
        session.run("table2")
        assert [r.artifact for r in session.records] == ["fig2", "table2"]

    def test_parallel_sweep_populates_pair_cache(self):
        session = Session(make_config(jitter=0.0), executor=ParallelExecutor(2))
        session.run("fig5")
        misses = session.stats.scenario_misses
        assert misses == len(SUBSET) ** 2
        session.run("table3", pairs=(("G-CC", "fotonik3d"), ("G-CC", "CIFAR")))
        # Worker-computed co-runs were stored: table3 is pure cache hits.
        assert session.stats.scenario_misses == misses

    def test_predict_measures_through_session(self):
        session = Session(make_config(workloads=("swaptions", "nab"), jitter=0.0))
        session.run("fig5")
        hits_before = session.stats.solo_hits
        session.run("predict")
        # The predictor's baseline solos came from the shared cache.
        assert session.stats.solo_hits > hits_before


class TestParallelExecutor:
    def test_parallel_fig5_bit_identical_to_serial(self):
        serial = Session(make_config()).run("fig5").result
        parallel = Session(
            make_config(), executor=ParallelExecutor(max_workers=2)
        ).run("fig5").result
        assert serial.cells == parallel.cells  # exact float equality

    def test_parallel_table3_bit_identical_to_serial(self):
        serial = Session(make_config()).run("table3").result
        parallel = Session(make_config(), executor="parallel").run("table3").result
        assert serial.rows == parallel.rows

    def test_resolve_executor(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("parallel"), ParallelExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        ex = ParallelExecutor(max_workers=3)
        assert resolve_executor(ex) is ex
        with pytest.raises(ExperimentError):
            resolve_executor("quantum")
        with pytest.raises(ExperimentError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ExperimentError):
            ThreadExecutor(max_workers=0)

    def test_executor_recorded_in_provenance(self):
        record = Session(make_config(), executor="parallel").run("fig5")
        assert record.provenance["executor"].startswith("process-pool")


class TestThreadExecutor:
    def test_thread_fig5_bit_identical_to_serial(self):
        serial = Session(make_config()).run("fig5").result
        threaded = Session(
            make_config(), executor=ThreadExecutor(max_workers=3)
        ).run("fig5").result
        assert serial.cells == threaded.cells  # exact float equality

    def test_thread_executor_name_in_provenance(self):
        record = Session(make_config(), executor="thread").run("fig5")
        assert record.provenance["executor"].startswith("thread-pool")


class TestExtensionFanOut:
    """The predictor's O(N) characterizations and the allocation
    sweep's core splits go through the session executor."""

    def test_predict_parallel_bit_identical_to_serial(self):
        cfg = dict(workloads=("G-CC", "fotonik3d", "swaptions"))
        serial = Session(make_config(**cfg)).run("predict").result
        threaded = Session(
            make_config(**cfg), executor=ThreadExecutor(3)
        ).run("predict").result
        pooled = Session(
            make_config(**cfg), executor=ParallelExecutor(2)
        ).run("predict").result
        assert serial.pressure == threaded.pressure == pooled.pressure
        assert serial.scores == threaded.scores == pooled.scores

    def test_allocation_parallel_bit_identical_to_serial(self):
        cfg = dict(workloads=("G-CC", "fotonik3d"))
        serial = Session(make_config(**cfg)).run("allocation").result
        threaded = Session(
            make_config(**cfg), executor=ThreadExecutor(3)
        ).run("allocation").result
        pooled = Session(
            make_config(**cfg), executor=ParallelExecutor(2)
        ).run("allocation").result
        assert serial.points == threaded.points == pooled.points
        assert len(serial.points) == 7  # the paper's 8-core socket: 1+7 ... 7+1

    def test_allocation_fanout_populates_pair_cache(self):
        session = Session(
            make_config(workloads=("G-CC", "fotonik3d"), jitter=0.0),
            executor=ThreadExecutor(3),
        )
        session.run("allocation")
        misses = session.stats.scenario_misses
        assert misses >= 7
        # Re-running a split's co-run is now a pure cache hit.
        session.run_scenario(Scenario.pair("G-CC", "fotonik3d", threads=2, bg_threads=6))
        assert session.stats.scenario_misses == misses


class TestRunRecord:
    def test_fig5_json_roundtrip(self):
        record = Session(make_config()).run("fig5")
        restored = RunRecord.from_json(record.to_json())
        assert restored.artifact == "fig5"
        assert restored.result.workloads == record.result.workloads
        assert restored.result.cells == record.result.cells
        assert restored.provenance == record.provenance

    def test_provenance_contents(self):
        record = Session(make_config()).run("fig5")
        prov = record.provenance
        assert prov["seed"] == 7
        assert prov["workloads"] == list(SUBSET)
        assert prov["executor"] == "serial"
        assert prov["duration_s"] > 0
        assert prov["cache"]["scenario_misses"] == len(SUBSET) ** 2
        assert len(prov["spec_fingerprint"]) == 12

    def test_payload_is_json_native(self):
        record = Session(make_config(workloads=("swaptions", "nab"))).run("table3",
            pairs=(("swaptions", "nab"),))
        data = json.loads(record.to_json())
        assert data["artifact"] == "table3"
        assert data["payload"]["rows"][0]["app_a"] == "swaptions"


class TestRunAll:
    @pytest.mark.slow
    def test_run_all_produces_every_artifact(self):
        session = Session(
            ExperimentConfig(workloads=("G-CC", "fotonik3d", "swaptions"), jitter=0.0)
        )
        records = session.run_all()
        assert sorted(records) == sorted(runner_names(artifact_only=True))
        assert records["fig5"].result.value("G-CC", "fotonik3d") > 1.3
        # run_all shares one substrate: later artifacts hit the caches.
        assert session.stats.solo_hits > 0
        assert session.stats.scenario_hits > 0


class TestSpecFingerprint:
    def test_fingerprint_distinguishes_engine_configs(self):
        from dataclasses import replace

        session = Session(make_config())
        on = session.engine_fingerprint()
        off = session.engine_fingerprint(
            replace(session.config.engine_config, prefetchers_on=False)
        )
        assert on != off
        assert session.engine() is session.engine()  # memoized
