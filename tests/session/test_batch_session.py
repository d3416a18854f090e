"""Session-level batch engine contract.

``Session.run_scenarios`` with the batch path (the default) must be
bit-identical to the scalar reference (``engine_batch=False``) — same
encoded results, same store bytes, same warm-cache behaviour — and the
scalar reference must really solve in process, whatever the executor.
The scheduler's ``slowdowns_many`` must score exactly what per-layout
``slowdowns`` calls score.
"""

import json

import pytest

from repro.core import ExperimentConfig
from repro.machine.spec import xeon_e5_4650
from repro.session import (
    MIN_PARALLEL_CELLS,
    AppPlacement,
    ParallelExecutor,
    ScenarioSet,
    SerialExecutor,
    Session,
    ThreadExecutor,
)
from repro.store import ResultStore
from repro.store.codec import encode_scenario_result
from tests.store.layouts import SECTIONS, entry_lines

SUBSET = ("G-CC", "fotonik3d", "swaptions", "Stream")


def make_config(**kw) -> ExperimentConfig:
    kwargs = dict(workloads=SUBSET, jitter=0.0, threads=2)
    kwargs.update(kw)
    return ExperimentConfig(**kwargs)


def sweep():
    return ScenarioSet.pairwise(SUBSET, threads=2) + ScenarioSet.consolidations(
        SUBSET[:3], n=3, threads=1
    )


def canon(results):
    return [
        json.dumps(encode_scenario_result(r.result), sort_keys=True) for r in results
    ]


#: Where :class:`ParallelExecutor` looks the process pool up: it imports
#: it when a map fans out, so a test swaps it there.
POOL = "concurrent.futures.process.ProcessPoolExecutor"


class TestBatchPath:
    def test_batch_matches_scalar_bit_for_bit(self):
        scalar = Session(make_config(), engine_batch=False).run_scenarios(sweep())
        batched = Session(make_config(), engine_batch=True).run_scenarios(sweep())
        assert canon(batched) == canon(scalar)

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ThreadExecutor(2), ParallelExecutor(2)]
    )
    def test_every_executor_agrees(self, executor):
        reference = Session(make_config(), engine_batch=False).run_scenarios(sweep())
        got = Session(
            make_config(), executor=executor, engine_batch=True
        ).run_scenarios(sweep())
        assert canon(got) == canon(reference)

    def test_scalar_reference_solves_in_process_on_a_pool(self, monkeypatch):
        batched = Session(make_config()).run_scenarios(sweep())
        assert len(batched) > MIN_PARALLEL_CELLS  # big enough for a pool

        class Boom:
            def __init__(self, *a, **kw):
                raise AssertionError("scalar reference spawned a process pool")

        monkeypatch.setattr(POOL, Boom)
        scalar = Session(
            make_config(), executor=ParallelExecutor(2), engine_batch=False
        ).run_scenarios(sweep())
        assert canon(scalar) == canon(batched)

    def test_batch_results_cached_like_scalar(self, tmp_path):
        cold = Session(make_config(), store=tmp_path / "st", engine_batch=True)
        cold.run_scenarios(sweep())
        assert cold.stats.scenario_misses > 0
        # A warm session over the same store re-simulates nothing.
        warm = Session(make_config(), store=tmp_path / "st", engine_batch=True)
        warm.run_scenarios(sweep())
        assert warm.stats.scenario_misses == 0

    def test_batch_and_scalar_store_bytes_identical(self, tmp_path):
        Session(
            make_config(), store=tmp_path / "a", engine_batch=True
        ).run_scenarios(sweep())
        Session(
            make_config(), store=tmp_path / "b", engine_batch=False
        ).run_scenarios(sweep())
        lines = {}
        for name in ("a", "b"):
            store = ResultStore(tmp_path / name)
            lines[name] = {
                (section, entry.engine_fp, entry.keyfp): entry_lines(store.root, entry)
                for section in SECTIONS
                for entry in store.cache_entries(section)
            }
        assert {section for section, _, _ in lines["a"]} == set(SECTIONS)
        assert lines["a"] == lines["b"]  # same keys, byte-identical lines 1 and 2

    def test_uncacheable_scenarios_take_batch_path_too(self):
        from repro.workloads.registry import get_profile

        balloon = get_profile("Stream")
        scens = [
            ScenarioSet.pairwise(SUBSET[:2], threads=2).scenarios[0],
            # An in-band profile makes the scenario uncacheable.
            type(ScenarioSet.pairwise(SUBSET[:2]).scenarios[0])(
                (
                    AppPlacement("G-CC", 2),
                    AppPlacement("balloon", 2, profile=balloon),
                )
            ),
        ]
        scalar = Session(make_config(), engine_batch=False).run_scenarios(scens)
        batched = Session(make_config(), engine_batch=True).run_scenarios(scens)
        assert canon(batched) == canon(scalar)


class TestSoloReferences:
    """A cold pass solves its missing solo references together, as the
    1-app cells of one ``solve_batch`` call, with the scalar path's
    counts and store bytes."""

    def test_missing_references_are_one_batch_of_one_app_cells(
        self, monkeypatch, tmp_path
    ):
        import repro.engine
        from repro.engine.interval import IntervalEngine

        solve_batch = repro.engine.solve_batch
        widths = []

        def recording(engine, cells):
            widths.append([len(cell.profiles) for cell in cells])
            return solve_batch(engine, cells)

        def no_solo_run(*args, **kwargs):
            raise AssertionError("a solo reference went to the scalar solo_run")

        monkeypatch.setattr(repro.engine, "solve_batch", recording)
        monkeypatch.setattr(IntervalEngine, "solo_run", no_solo_run)
        batched = Session(make_config(), store=tmp_path / "a")
        got = batched.run_scenarios(sweep())
        monkeypatch.undo()

        # SUBSET at 2 threads for the pairs, its first three at 1
        # thread for the 3-ways: 7 distinct references.
        solo_calls = [w for w in widths if set(w) == {1}]
        assert solo_calls == [[1] * 7]
        assert widths.index(solo_calls[0]) == 0  # before any cell is solved

        scalar = Session(make_config(), store=tmp_path / "b", engine_batch=False)
        want = scalar.run_scenarios(sweep())
        assert canon(got) == canon(want)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.stats.solo_misses == 7
        solo = {}
        for name in ("a", "b"):
            store = ResultStore(tmp_path / name)
            solo[name] = {
                (entry.engine_fp, entry.keyfp): entry_lines(store.root, entry)
                for entry in store.cache_entries("solo")
            }
        assert len(solo["a"]) == 7
        assert solo["a"] == solo["b"]

    def test_batched_references_equal_solo_run(self):
        from repro.store.codec import encode_solo

        pairs = ScenarioSet.pairwise(SUBSET, threads=2)
        batched = Session(make_config())
        batched.run_scenarios(pairs)
        scalar = Session(make_config(), engine_batch=False)
        for name in SUBSET:
            assert encode_solo(batched.solo(name, threads=2)) == encode_solo(
                scalar.solo(name, threads=2)
            )
        assert batched.stats.solo_misses == len(SUBSET)


class TestEvaluatorBatching:
    def layouts(self):
        return [
            (AppPlacement("G-CC", 2), AppPlacement("Stream", 2)),
            (AppPlacement("fotonik3d", 2), AppPlacement("swaptions", 2)),
            (AppPlacement("G-CC", 2),),  # single tenant: exactly (1.0,)
            (
                AppPlacement("G-CC", 2, llc_ways=0xF0),
                AppPlacement("Stream", 2, llc_ways=0x0F),
            ),
        ]

    def test_slowdowns_many_matches_per_layout_calls(self):
        from repro.sched.score import PlacementEvaluator

        spec = xeon_e5_4650()
        one_by_one = PlacementEvaluator(Session(make_config()))
        expected = [one_by_one.slowdowns(spec, lay) for lay in self.layouts()]
        batched = PlacementEvaluator(Session(make_config()))
        got = batched.slowdowns_many([(spec, lay) for lay in self.layouts()])
        assert got == expected
        # And the batched call warmed the same memo slowdowns reads.
        assert [batched.slowdowns(spec, lay) for lay in self.layouts()] == expected

    def test_slowdowns_many_handles_empty_and_duplicates(self):
        from repro.sched.score import PlacementEvaluator

        spec = xeon_e5_4650()
        ev = PlacementEvaluator(Session(make_config()))
        lay = self.layouts()[0]
        got = ev.slowdowns_many([(spec, ()), (spec, lay), (spec, lay)])
        assert got[0] == ()
        assert got[1] == got[2] == ev.slowdowns(spec, lay)


class TestExecutorFallback:
    def test_small_maps_never_touch_the_pool(self, monkeypatch):
        class Boom:
            def __init__(self, *a, **kw):
                raise AssertionError("pool spawned for a tiny sweep")

        monkeypatch.setattr(POOL, Boom)
        assert ParallelExecutor(2).map_batches(len, [[1, 2], [3]]) == [2, 1]

    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ThreadExecutor(2), ParallelExecutor(2)],
        ids=lambda e: e.name,
    )
    def test_map_batches_keeps_shard_order(self, executor):
        # Uneven shards, enough cells that the pools really fan out:
        # the session scatters results back by position.
        bounds = [(0, 9), (9, 10), (10, 17), (17, 21)]
        shards = [tuple(range(a, b)) for a, b in bounds]
        assert sum(map(len, shards)) >= MIN_PARALLEL_CELLS
        assert executor.map_batches(list, shards) == [list(s) for s in shards]

    def test_a_dead_worker_is_an_experiment_error(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.errors import ExperimentError

        class DeadPool:
            def __init__(self, *a, **kw):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, *a, **kw):
                raise BrokenProcessPool("a worker was killed")

        monkeypatch.setattr(POOL, DeadPool)
        shards = [tuple(range(MIN_PARALLEL_CELLS))] * 2
        with pytest.raises(ExperimentError, match="worker process died"):
            ParallelExecutor(2).map_batches(list, shards)

    def test_scalar_reference_never_calls_the_executor(self):
        class Spy(SerialExecutor):
            def __init__(self):
                self.calls = 0

            def map_batches(self, fn, batches):
                self.calls += 1
                return super().map_batches(fn, batches)

        scalar_spy, batch_spy = Spy(), Spy()
        scalar = Session(
            make_config(), executor=scalar_spy, engine_batch=False
        ).run_scenarios(sweep())
        batched = Session(make_config(), executor=batch_spy).run_scenarios(sweep())
        assert scalar_spy.calls == 0
        assert batch_spy.calls == 1  # one engine group, one serial shard
        assert canon(scalar) == canon(batched)
