"""Concurrent store sharing: advisory locks, per-process index
segments, multi-process writers, and the reader-hardening fixes.

The contract under test: any number of processes may stream records and
cache entries into one store — the merged index contains every entry
exactly once (no lost, duplicated, interleaved or torn non-tail lines),
a warm run over the shared store never re-simulates, and ``store gc``
can never prune a shard out from under a mid-write campaign process.
"""

import json
import multiprocessing
import sys
import threading
import time
import warnings

import pytest

from repro.core import ExperimentConfig
from repro.errors import StoreWarning
from repro.session import Scenario, Session
from repro.session.record import RunRecord
from repro.store import RECORD_SCHEMA, FileLock, ResultStore, store_lock
from repro.store import locking
from repro.store.locking import HAVE_FILE_LOCKS

SUBSET = ("G-CC", "swaptions")

needs_locks = pytest.mark.skipif(
    not HAVE_FILE_LOCKS, reason="no fcntl/msvcrt on this platform"
)


def make_config(**kw):
    kw.setdefault("workloads", SUBSET)
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


def _writer_process(store_root: str, artifacts: tuple) -> None:
    """One campaign process: stream records + cache entries."""
    session = Session(make_config(), store=ResultStore(store_root))
    for name in artifacts:
        session.run(name)


class TestFileLock:
    @needs_locks
    def test_shared_locks_coexist(self, tmp_path):
        a = store_lock(tmp_path, exclusive=False)
        b = store_lock(tmp_path, exclusive=False)
        assert a.acquire(blocking=False) and b.acquire(blocking=False)
        a.release(), b.release()

    @needs_locks
    def test_shared_excludes_exclusive_and_back(self, tmp_path):
        writer = store_lock(tmp_path, exclusive=False)
        gc = store_lock(tmp_path, exclusive=True)
        with writer:
            assert gc.acquire(blocking=False) is False
        assert gc.acquire(blocking=False) is True
        # ...and an exclusive holder blocks new shared acquirers.
        assert writer.acquire(blocking=False) is False
        gc.release()
        assert writer.acquire(blocking=False) is True
        writer.release()

    def test_context_manager_and_idempotent_release(self, tmp_path):
        lock = FileLock(tmp_path / "deep" / "dir" / ".lock")
        with lock:
            assert lock.held
            assert lock.acquire() is True  # re-acquire while held: no-op
        assert not lock.held
        lock.release()  # double release is harmless

    @needs_locks
    def test_gc_waits_for_in_flight_writer(self, tmp_path):
        """The satellite race: gc must not prune a shard between a
        writer's fingerprint computation and its entry publish.  A held
        shared lock (what every ``put_*`` takes around its write) must
        stall the exclusive-locked prune until the write lands."""
        store = ResultStore(tmp_path / "st")
        session = Session(make_config(), store=store)
        session.run_scenario(Scenario.pair("G-CC", "swaptions", threads=4))
        live_fp = session.engine_fingerprint()
        orphan = store.root / "scenario" / "deadbeef0000"
        orphan.mkdir(parents=True)
        (orphan / "x.json").write_text("{}")

        writer = store_lock(store.root, exclusive=False)
        assert writer.acquire()
        summaries = []
        gc_thread = threading.Thread(
            target=lambda: summaries.append(store.gc({live_fp}))
        )
        try:
            gc_thread.start()
            time.sleep(0.15)
            # The writer is still "mid-write": nothing pruned yet.
            assert orphan.exists()
            assert not summaries
        finally:
            writer.release()
        gc_thread.join(timeout=10)
        assert summaries and summaries[0]["removed_dirs"] == ["scenario/deadbeef0000"]
        assert not orphan.exists()
        # The live shard survived and still serves a cold session.
        cold = Session(make_config(), store=ResultStore(store.root))
        cold.run_scenario(Scenario.pair("G-CC", "swaptions", threads=4))
        assert cold.stats.scenario_misses == 0


class TestOneLockPerPass:
    """A session pass appends its fresh entries under one hold of the
    shared store lock, taken by this thread at the pass's first put."""

    WARM = [Scenario.pair("G-CC", "swaptions", threads=4), Scenario.of("G-CC:2", "swaptions:2")]
    COLD = [
        Scenario.pair("swaptions", "G-CC", threads=4),
        Scenario.pair("G-CC", "G-CC", threads=4),
        Scenario.of("G-CC:2", "swaptions:2", "G-CC:2"),
        Scenario.of("swaptions:2", "G-CC:2", "swaptions:2"),
    ]

    @pytest.fixture
    def session(self, tmp_path):
        """A session whose store already holds every solo reference, so
        the cold pass puts scenario entries only."""
        session = Session(make_config(), store=ResultStore(tmp_path / "st"))
        session.run_scenarios(self.WARM)
        return session

    def test_a_cold_pass_takes_the_shared_lock_once(self, session, monkeypatch):
        taken = []
        real = locking._acquire

        def counting(fh, *, exclusive, blocking):
            taken.append((exclusive, blocking))
            return real(fh, exclusive=exclusive, blocking=blocking)

        monkeypatch.setattr(locking, "_acquire", counting)
        session.run_scenarios(self.COLD)
        assert session.stats.scenario_misses == len(self.WARM) + len(self.COLD)
        assert taken == [(False, True)]
        session.run_scenarios(self.COLD)  # all memory hits: no put, no lock
        assert taken == [(False, True)]

    @needs_locks
    def test_gc_cannot_lock_while_the_pass_writes_and_a_second_thread_loses_nothing(
        self, session, monkeypatch
    ):
        store = session.store
        fp = session.engine_fingerprint()
        extra = Scenario.of("swaptions:2", "swaptions:2", "G-CC:2", llc_policy="pressure")
        extra_result = Session(make_config()).run_scenario(extra).result
        gc_locked, side = [], []
        put_extra = ResultStore.put_scenario

        def watching(real):
            def put(self, *args):
                if not side:
                    # Mid-pass, another thread puts through the same store.
                    t = threading.Thread(
                        target=lambda: side.append(put_extra(store, fp, extra, extra_result))
                    )
                    t.start()
                    t.join(timeout=10)
                    assert not t.is_alive()
                real(self, *args)
                gc = store_lock(store.root, exclusive=True)
                gc_locked.append(gc.acquire(blocking=False))
                gc.release()

            return put

        for name in ("put_scenario", "put_corun"):
            monkeypatch.setattr(ResultStore, name, watching(getattr(ResultStore, name)))
        results = session.run_scenarios(self.COLD)
        assert side == [None] and gc_locked == [False] * len(self.COLD)
        gc = store_lock(store.root, exclusive=True)
        assert gc.acquire(blocking=False)  # the pass released its hold
        gc.release()
        monkeypatch.undo()

        fresh = Session(make_config(), store=ResultStore(store.root))
        assert [r.result for r in fresh.run_scenarios(self.COLD + [extra])] == [
            r.result for r in results
        ] + [extra_result]
        assert fresh.stats.scenario_misses == 0
        assert fresh.stats.scenario_disk_hits == len(self.COLD) + 1


    @needs_locks
    def test_threads_interleaving_runs_lose_no_entry_and_leak_no_hold(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        solo = Session(make_config()).solo("G-CC", threads=4)
        fp = "feedbeef0001"

        def worker(k):
            for j in range(1, 11):
                with store.writing():
                    store.put_solo(fp, f"w{k}", j, solo)
                    with store.writing():  # nested: part of the outer run
                        store.put_solo(fp, f"w{k}", j + 10, solo)
                store.put_solo(fp, f"w{k}", j + 20, solo)  # outside any run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        gc = store_lock(store.root, exclusive=True)
        assert gc.acquire(blocking=False)  # every run released its hold
        gc.release()
        fresh = ResultStore(store.root)
        assert all(
            fresh.get_solo(fp, f"w{k}", t) == solo for k in range(4) for t in range(1, 31)
        )


class TestSegmentedIndex:
    def test_appends_land_in_private_segment(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        Session(make_config(), store=store).run("table1")
        segments = list((store.root / "index").glob("*.jsonl"))
        assert len(segments) == 1
        assert not (store.root / "index.jsonl").exists()  # legacy never written
        assert len(store.query(artifact="table1")) == 1

    def test_two_sinks_two_segments_merged(self, tmp_path):
        """Two store handles (= two processes' sinks) never share a
        segment file, and the merged view sees both."""
        root = tmp_path / "st"
        Session(make_config(), store=ResultStore(root)).run("table1")
        Session(make_config(), store=ResultStore(root)).run("fig2")
        segments = list((root / "index").glob("*.jsonl"))
        assert len(segments) == 2
        assert {e.artifact for e in ResultStore(root).query()} == {"table1", "fig2"}

    def test_legacy_index_merges_before_segments(self, tmp_path):
        """A pre-segment store's ``index.jsonl`` lines (no ts) sort
        oldest; `latest` prefers the newer segmented record."""
        store = ResultStore(tmp_path / "st")
        session = Session(make_config(), store=store)
        record = session.run("table1")
        entry = store.query(artifact="table1")[0]
        legacy = dict(json.loads(entry.to_line()))
        legacy.pop("ts")
        legacy["run_id"] = "table1-legacyrun"
        with open(store.sink.index_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(legacy) + "\n")
        merged = store.query(artifact="table1")
        assert [e.run_id for e in merged] == [
            "table1-legacyrun",
            store.run_id_for(record),
        ]
        assert store.latest("table1").provenance == record.provenance

    def test_entry_timestamps_order_across_segments(self, tmp_path):
        root = tmp_path / "st"
        Session(make_config(), store=ResultStore(root)).run("table1")
        Session(make_config(), store=ResultStore(root)).run("table1")
        a, b = ResultStore(root).query(artifact="table1")
        assert a.ts <= b.ts
        assert a.run_id == b.run_id  # content-addressed, bit-identical


class TestConcurrentWriters:
    @pytest.mark.slow
    def test_two_processes_share_one_store(self, tmp_path):
        """Two live processes stream records and cache entries into one
        store: the merged index holds every entry exactly once, and a
        warm run afterwards simulates nothing."""
        root = tmp_path / "st"
        ResultStore(root)
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_writer_process, args=(str(root), arts))
            for arts in (("fig5", "table1"), ("fig5", "fig3"))
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        store = ResultStore(root)
        entries = list(store.sink.entries())
        # Every streamed record indexed exactly once: 2x fig5 (one per
        # process, same content-addressed run id), 1x table1, 1x fig3.
        assert len(entries) == 4
        fig5 = store.query(artifact="fig5")
        assert len(fig5) == 2
        assert fig5[0].run_id == fig5[1].run_id
        assert len(store.query(artifact="table1")) == 1
        assert len(store.query(artifact="fig3")) == 1
        # No torn or lost lines: every index line in every segment parses.
        raw_lines = [
            line
            for seg in (root / "index").glob("*.jsonl")
            for line in seg.read_text().splitlines()
        ]
        assert len(raw_lines) == 4
        for line in raw_lines:
            assert json.loads(line)["schema"] == RECORD_SCHEMA
        # A warm run over the shared store serves everything from disk.
        warm = Session(make_config(), store=ResultStore(root))
        warm.run("fig5")
        warm.run("fig3")
        assert warm.stats.solo_misses == 0
        assert warm.stats.scenario_misses == 0
        assert warm.stats.scenario_disk_hits == len(SUBSET) ** 2

    def test_two_threads_publish_one_entry(self, tmp_path):
        """Writers in one process must not share a temporary file: one
        thread would rename it away from under the other, or publish it
        while the other is still rewriting it."""
        root = tmp_path / "st"
        ResultStore(root)
        session = Session(make_config(workloads=("G-CC",)))
        solo = session.solo("G-CC", threads=4)
        fp = session.engine_fingerprint()
        errors = []

        def writer():
            store = ResultStore(root)
            try:
                for _ in range(500):
                    store.put_solo(fp, "G-CC", 4, solo)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert ResultStore(root).get_solo(fp, "G-CC", 4) == solo
        assert not list(root.rglob("*.tmp-*"))


class TestReaderHardening:
    def test_none_provenance_fields_are_coerced(self, tmp_path):
        """Regression: a provenance field that is present but ``None``
        (seed, duration_s, fingerprints, cache) must index cleanly."""
        store = ResultStore(tmp_path / "st")
        record = Session(make_config(), store=store).run("table1")
        hollow = RunRecord(
            artifact="table1",
            result=record.result,
            provenance={
                "seed": None,
                "duration_s": None,
                "spec_fingerprint": None,
                "engine_fingerprint": None,
                "cache": None,
                "arguments": None,
            },
        )
        entry = store.record(hollow)
        assert entry.seed == 0
        assert entry.duration_s == 0.0
        assert entry.spec_fingerprint == "" and entry.engine_fingerprint == ""
        assert entry.cache == {} and entry.arguments == {}
        assert entry.is_canonical
        assert entry.run_id in {e.run_id for e in store.query(artifact="table1")}

    def test_foreign_schema_lines_warn_once_with_count(self, tmp_path):
        """Regression: a mixed-version store must not under-report
        silently — the first merge warns with the skipped count."""
        store = ResultStore(tmp_path / "st")
        Session(make_config(), store=store).run("table1")
        with open(store.sink.index_path, "a", encoding="utf-8") as fh:
            for _ in range(2):
                fh.write(json.dumps({"schema": 999, "run_id": "future"}) + "\n")
        with pytest.warns(StoreWarning, match="skipped 2 index line"):
            entries = list(store.sink.entries())
        assert [e.artifact for e in entries] == ["table1"]
        # One-time: the second merge through the same sink stays quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(store.sink.entries())) == 1

    def test_torn_segment_tail_is_skipped_silently(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        Session(make_config(), store=store).run("table1")
        segment = next((store.root / "index").glob("*.jsonl"))
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "run_id": "torn')  # crash mid-append
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # torn lines never warn
            assert [e.artifact for e in store.sink.entries()] == ["table1"]
