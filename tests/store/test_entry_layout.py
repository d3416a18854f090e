"""Cache entries: two lines appended to a per-process segment log.

Line 1 is the envelope, key fingerprint first, with the key, the
result's shape and its numbers packed as float64, plus a digest of the
rest of the entry; line 2 is the packed timeline, decoded lazily on
first use.  Each process appends to its own
``<section>/<engine_fp>/<pid>-<token>.jsonl`` segment.

Covers the layout, the failure rules (a torn tail, damaged numbers or a
bad line 2, a foreign or colliding entry and a failed write are misses,
never errors; a damaged copy re-published serves again; a fork child and
a writer whose shard gc pruned open segments of their own), the cost of
a miss, the :class:`LazyTimeline` contract, and that no scheduler path
decodes a timeline.  Earlier layouts are covered by ``test_migrate.py``.
"""

import base64
import gc
import json
import multiprocessing
import os
import pickle
import struct
import sys
import threading
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from repro.core import ExperimentConfig
from repro.sched import PlacementEvaluator, parse_trace, replay_trace
from repro.session import Scenario, Session, get_runner
from repro.store import SCHEMA_VERSION, ResultStore
from repro.store import store as store_mod
from repro.store.codec import (
    LazyTimeline,
    decode_timeline,
    encode_scenario_result,
    encode_solo,
    encode_timeline,
)
from tests.store.layouts import SECTIONS, encoded, entry_lines, read_back

SUBSET = ("G-CC", "fotonik3d", "swaptions")
PAIR = Scenario.pair("G-CC", "fotonik3d", threads=4)
TRIO = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")


def make_config(**kw):
    kw.setdefault("workloads", SUBSET)
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


def entries(root):
    """``(section, entry, key)`` of every cache entry under ``root``,
    through the store's listing; there must be some in every section."""
    store = ResultStore(root)
    rows = [
        (section, entry, store.entry_head(entry)["key"])
        for section in SECTIONS
        for entry in store.cache_entries(section)
    ]
    assert {section for section, _, _ in rows} == set(SECTIONS)
    return rows


def encoded_at(store, section, key):
    result = read_back(store, section, key)
    return None if result is None else encoded(section, result)


def segments(root):
    return sorted(Path(root).glob("*/*/*.jsonl"))


def overwrite(root, entry, line, data):
    """Overwrite line ``line`` (1 or 2) of a listed entry in place with
    ``data``, which must keep its length (and so the segment's framing)."""
    line1, line2 = entry_lines(root, entry)
    old = line1 if line == 1 else line2
    assert len(data) == len(old) and data != old
    with open(Path(root) / entry.path, "r+b") as fh:
        fh.seek(entry.offset + (0 if line == 1 else len(line1)))
        fh.write(data)


def garbled(line):
    """Same length, different bytes, still ending in a newline."""
    body = line[:-1]
    return (body.replace(b"e", b"E") if b"e" in body else b" " * len(body)) + b"\n"


@pytest.fixture
def warm(tmp_path):
    """A store holding solo, corun and scenario entries, plus the cold
    session's results to compare against."""
    root = tmp_path / "st"
    cold = Session(make_config(), store=root)
    expected = {
        "pair": cold.run_scenario(PAIR).result,
        "trio": cold.run_scenario(TRIO).result,
        "solo": cold.solo("G-CC", threads=4),
    }
    return root, expected


@pytest.fixture
def materialized(monkeypatch):
    """Counts lazy timelines decoded: a :class:`LazyTimeline` builds its
    samples in ``_decode``, once, on first use."""
    count = [0]
    real = LazyTimeline._decode

    def counting(self):
        count[0] += 1
        return real(self)

    monkeypatch.setattr(LazyTimeline, "_decode", counting)
    return count


def lookups(session):
    return (
        session.run_scenario(PAIR).result,
        session.run_scenario(TRIO).result,
        session.solo("G-CC", threads=4),
    )


class TestLayout:
    def test_every_section_appends_two_lines(self, warm):
        root, _ = warm
        for section, entry, key in entries(root):
            line1, line2 = entry_lines(root, entry)
            assert line1.startswith(b'{"keyfp": "%s", ' % entry.keyfp.encode())
            envelope = json.loads(line1)
            assert list(envelope) == ["keyfp", "schema", "kind", "key", "shape", "numbers", "sha256"]
            assert (envelope["schema"], envelope["kind"]) == (SCHEMA_VERSION, section)
            assert envelope["key"] == key and len(envelope["sha256"]) == 16
            apps = envelope["shape"]["apps"]
            regions = sum(len(app[2]) for app in apps)
            own = {"solo": 0, "corun": 2}.get(section, len(apps))
            assert len(base64.b64decode(envelope["numbers"])) == 8 * (own + len(apps) + 6 * regions)
            rows = base64.b64decode(line2[:-1], validate=True)
            assert rows and len(rows) % (8 * (1 + len(envelope["shape"]["timeline"]))) == 0

    def test_one_segment_per_shard_and_no_entry_files(self, warm):
        """One process wrote everything: each shard holds one segment,
        named after that process, and no per-entry file."""
        root, _ = warm
        shards = [p for s in SECTIONS for p in (root / s).iterdir()]
        assert len(shards) == 3
        for shard in shards:
            [segment] = shard.iterdir()
            assert segment.suffix == ".jsonl"
            assert segment.name.startswith(f"{os.getpid()}-")
        assert not [p for s in SECTIONS for p in (root / s).rglob("*.json")]

    def test_no_segment_before_the_first_put(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        assert store.get_solo("feedbeef0123", "G-CC", 4) is None
        assert sorted(p.name for p in store.root.iterdir()) == ["store.json"]

    def test_read_back_is_lazy_and_encodes_identically(self, warm):
        root, expected = warm
        fresh = Session(make_config(), store=root)
        encoders = (encode_scenario_result, encode_scenario_result, encode_solo)
        for got, want, encode in zip(lookups(fresh), expected.values(), encoders):
            assert isinstance(got.timeline, LazyTimeline)
            assert got == want
            assert json.dumps(encode(got)) == json.dumps(encode(want))
        assert fresh.stats.scenario_disk_hits == 2 and fresh.stats.solo_disk_hits == 1

    def test_scenario_listing_parses_line_one_only(self, warm):
        root, _ = warm
        store = ResultStore(root)
        before = store.scenarios()
        assert before
        assert all(row["path"].endswith(".jsonl") for row in before)
        for section, entry, _ in entries(root):
            if section == "scenario":
                line2 = entry_lines(root, entry)[1]
                overwrite(root, entry, 2, b"{" * (len(line2) - 1) + b"\n")
        assert store.scenarios() == before

    def test_get_scenario_builds_the_payload_once(self, warm, monkeypatch):
        root, expected = warm
        store = ResultStore(root)
        [key] = [key for section, _, key in entries(root) if section == "scenario"]
        scenario = Scenario.from_payload(key["scenario"])
        calls = []
        real = Scenario.payload
        monkeypatch.setattr(Scenario, "payload", lambda s: calls.append(1) or real(s))
        assert store.get_scenario(key["engine_fingerprint"], scenario) == expected["trio"]
        assert len(calls) == 1


class TestDamage:
    """Whatever a segment holds, a read is a hit with the right result
    or a miss, never an error or another key's result."""

    @pytest.mark.parametrize("where", ["line 1 shape", "line 1 numbers", "line 2"])
    def test_garbled_numbers_are_a_miss_and_resimulate(self, warm, where):
        """The digest covers the shape and every packed number: a changed
        byte in line 1's shape or numbers, or in line 2, is a miss."""
        root, expected = warm
        for _, entry, _ in entries(root):
            line1, line2 = entry_lines(root, entry)
            if where == "line 2":
                overwrite(root, entry, 2, garbled(line2))
                continue
            # The first letter of the first app's name, or of the numbers.
            at = line1.index(b'"numbers": "') + 14 if where == "line 1 numbers" else (
                line1.index(b'"apps": [["') + 11
            )
            flipped = b"B" if line1[at : at + 1] != b"B" else b"C"
            overwrite(root, entry, 1, line1[:at] + flipped + line1[at + 1 :])
        store = ResultStore(root)
        for section, _, key in entries(root):
            assert read_back(store, section, key) is None

        session = Session(make_config(), store=store)
        assert lookups(session) == tuple(expected.values())
        assert session.stats.scenario_disk_hits == 0
        assert session.stats.solo_disk_hits == 0
        assert session.stats.scenario_misses == 2

    def test_torn_tail_is_skipped_then_rescanned(self, warm):
        """A segment's incomplete tail is not indexed; the next refresh
        scans it again from its first byte, so an append that completes
        later serves."""
        root, _ = warm
        rows = [r for r in entries(root) if r[0] == "solo"]
        section, entry, key = max(rows, key=lambda r: r[1].offset)  # the tail
        want = encoded_at(ResultStore(root), section, key)
        path = root / entry.path
        whole = path.read_bytes()
        tail = whole[entry.offset:]
        for cut in (len(tail) - 1, len(tail) // 2, 3):
            path.write_bytes(whole[: entry.offset + cut])
            reader = ResultStore(root)
            assert read_back(reader, section, key) is None
            for _, other, other_key in rows:
                if other != entry:
                    assert encoded_at(reader, section, other_key) is not None
            with open(path, "ab") as fh:
                fh.write(tail[cut:])  # the writer finishes its append
            assert encoded_at(reader, section, key) == want

    def test_foreign_schema_and_colliding_entries_are_misses(self, warm, tmp_path):
        """An entry under a key's fingerprint whose envelope has another
        schema, or holds another key, is a miss for that key."""
        root, _ = warm
        rows = entries(root)
        pair = next(r for r in rows if r[0] == "corun")
        trio = next(r for r in rows if r[0] == "scenario")
        line1, line2 = entry_lines(root, pair[1])
        foreign = line1.replace(b'"schema": %d' % SCHEMA_VERSION, b'"schema": %d' % (SCHEMA_VERSION + 1))
        # The pair's entry under the trio's fingerprint.
        colliding = line1.replace(pair[1].keyfp.encode(), trio[1].keyfp.encode(), 1)
        other = tmp_path / "other"
        for (section, entry, _), head in ((pair, foreign), (trio, colliding)):
            shard = other / section / entry.engine_fp
            shard.mkdir(parents=True)
            (shard / "1-00000000.jsonl").write_bytes(head + line2)
        store = ResultStore(other)
        assert [e.keyfp for e in store.cache_entries("scenario")] == [trio[1].keyfp]
        for section, _, key in (pair, trio):
            assert read_back(store, section, key) is None

    def test_stray_lines_do_not_hide_later_entries(self, warm):
        """Lines that open no envelope, and an envelope whose line 2 is
        missing, are skipped; the entries after them still serve."""
        root, _ = warm
        section, entry, key = entries(root)[0]
        want = encoded_at(ResultStore(root), section, key)
        path = root / entry.path
        line1, line2 = entry_lines(root, entry)
        path.write_bytes(b"junk\n" + line1 + b"[1, 2]\n\n" + line1 + line1 + line2)
        assert encoded_at(ResultStore(root), section, key) == want

    def test_damaged_newest_copy_falls_back_to_an_older_one(self, warm):
        root, _ = warm
        section, entry, key = entries(root)[0]
        want = encoded_at(ResultStore(root), section, key)
        line1, line2 = entry_lines(root, entry)
        with open(root / entry.path, "ab") as fh:
            fh.write(line1 + garbled(line2))  # a newer, damaged copy
        store = ResultStore(root)
        assert encoded_at(store, section, key) == want
        assert encoded_at(store, section, key) == want  # the bad copy was dropped

    def test_rewritten_entry_serves_again(self, warm):
        """A damaged entry that a session re-simulates is re-published and
        serves again, in that process and in a fresh one."""
        root, expected = warm
        for _, entry, _ in entries(root):
            overwrite(root, entry, 2, garbled(entry_lines(root, entry)[1]))
        store = ResultStore(root)
        first = Session(make_config(), store=store)
        first.run_scenario(TRIO)  # re-simulates, re-publishes
        assert first.stats.scenario_misses == 1
        for again in (Session(make_config(), store=store), Session(make_config(), store=root)):
            assert again.run_scenario(TRIO).result == expected["trio"]
            assert again.stats.scenario_disk_hits == 1


class TestWriters:
    def test_failed_write_retires_the_segment(self, tmp_path, monkeypatch):
        """A short write leaves a torn tail and retires the segment: the
        next put opens a new one, so garbage only ever ends a segment."""
        store = ResultStore(tmp_path / "st")
        solo = Session(make_config()).solo("G-CC", threads=4)
        real = os.write
        monkeypatch.setattr(store_mod.os, "write", lambda fd, data: real(fd, data[:100]))
        with pytest.raises(OSError, match="short write"):
            store.put_solo("feedbeef0001", "G-CC", 4, solo)
        monkeypatch.setattr(store_mod.os, "write", real)
        store.put_solo("feedbeef0001", "G-CC", 2, solo)

        def boom(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_mod.os, "write", boom)
        with pytest.raises(OSError, match="No space"):
            store.put_solo("feedbeef0001", "G-CC", 1, solo)
        monkeypatch.setattr(store_mod.os, "write", real)
        store.put_solo("feedbeef0001", "G-CC", 8, solo)

        sizes = sorted(p.stat().st_size for p in segments(store.root))
        assert len(sizes) == 3 and sizes[0] == 100  # the torn one ends there
        fresh = ResultStore(store.root)
        assert fresh.get_solo("feedbeef0001", "G-CC", 4) is None
        assert fresh.get_solo("feedbeef0001", "G-CC", 1) is None
        assert fresh.get_solo("feedbeef0001", "G-CC", 2) == solo
        assert fresh.get_solo("feedbeef0001", "G-CC", 8) == solo

    def test_fork_child_writes_its_own_segment(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        solo = Session(make_config()).solo("G-CC", threads=4)
        store.put_solo("feedbeef0001", "G-CC", 4, solo)
        [parent_segment] = segments(store.root)
        size = parent_segment.stat().st_size

        def child():
            assert store.get_solo("feedbeef0001", "G-CC", 4) == solo
            store.put_solo("feedbeef0001", "G-CC", 2, solo)
            os._exit(0)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert parent_segment.stat().st_size == size
        assert [p.name.split("-")[0] for p in segments(store.root)].count(str(proc.pid)) == 1
        store.put_solo("feedbeef0001", "G-CC", 8, solo)  # still the parent's own
        assert parent_segment.stat().st_size > size
        assert store.get_solo("feedbeef0001", "G-CC", 2) == solo
        assert ResultStore(store.root).get_solo("feedbeef0001", "G-CC", 8) == solo

    def test_writer_whose_shard_gc_pruned_opens_a_new_segment(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        solo = Session(make_config()).solo("G-CC", threads=4)
        store.put_solo("feedbeef0001", "G-CC", 4, solo)
        reader = ResultStore(store.root)
        assert reader.get_solo("feedbeef0001", "G-CC", 4) == solo
        summary = ResultStore(store.root).gc(set())
        assert summary["removed_entries"] == 1 and not segments(store.root)

        store.put_solo("feedbeef0001", "G-CC", 2, solo)
        assert len(segments(store.root)) == 1  # a new segment, in a new shard
        fresh = ResultStore(store.root)
        assert fresh.get_solo("feedbeef0001", "G-CC", 2) == solo
        assert fresh.get_solo("feedbeef0001", "G-CC", 4) is None  # pruned
        # A reader may keep serving what it indexed from the unlinked segment.
        assert reader.get_solo("feedbeef0001", "G-CC", 4) == solo

    def test_threads_share_one_store(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        solo = Session(make_config()).solo("G-CC", threads=4)
        errors = []

        def work(i):
            try:
                for t in range(20):
                    fp = f"feedbeef{i:04d}"
                    store.put_solo(fp, "G-CC", t, solo)
                    assert store.get_solo(fp, "G-CC", t) == solo
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert len(ResultStore(store.root).cache_entries("solo")) == 80


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestDescriptors:
    def test_close_and_collection_release_descriptors(self, warm):
        root, _ = warm
        gc.collect()  # stores other tests left for collection
        before = open_descriptors()
        store = ResultStore(root)
        for section, _, key in entries(root):
            assert read_back(store, section, key) is not None
        assert open_descriptors() > before
        store.close()
        assert open_descriptors() == before
        assert read_back(store, section, key) is not None  # reopens
        del store
        gc.collect()
        assert open_descriptors() == before

    def test_read_descriptors_are_capped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_mod, "_MAX_READERS", 2)
        solo = Session(make_config()).solo("G-CC", threads=4)
        for t in range(5):  # five writers, five segments in one shard
            ResultStore(tmp_path / "st").put_solo("feedbeef0001", "G-CC", t, solo)
        gc.collect()
        before = open_descriptors()
        store = ResultStore(tmp_path / "st")
        for _ in range(2):
            for t in range(5):
                assert store.get_solo("feedbeef0001", "G-CC", t) == solo
                assert open_descriptors() <= before + 2


class TestLookupCost:
    def test_opening_a_store_lists_no_shard(self, warm, monkeypatch):
        """The index is built on a shard's first lookup, never when a
        store is opened."""
        root, _ = warm
        calls = []
        real = os.listdir
        monkeypatch.setattr(store_mod.os, "listdir", lambda p: calls.append(p) or real(p))
        ResultStore(root)
        assert calls == []

    @pytest.mark.parametrize("writer", ["another store", "this store"])
    def test_a_miss_lists_the_shard_once(self, tmp_path, monkeypatch, writer):
        """A miss in an indexed shard costs one listing, plus one stat of
        each segment another writer appends to; it opens nothing."""
        root = tmp_path / "st"
        solo = Session(make_config()).solo("G-CC", threads=4)
        store = ResultStore(root)
        (store if writer == "this store" else ResultStore(root)).put_solo(
            "feedbeef0001", "G-CC", 4, solo
        )
        assert store.get_solo("feedbeef0001", "G-CC", 4) == solo
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted, raising=False)

        for name in ("listdir", "stat", "fstat", "open"):
            spy(store_mod.os, name)
        monkeypatch.setattr(store_mod, "open", open, raising=False)
        spy(store_mod, "open")
        assert store.get_solo("feedbeef0001", "G-CC", 2) is None
        assert calls == (["listdir"] if writer == "this store" else ["listdir", "stat"])


class TestLazyTimeline:
    @pytest.fixture
    def pair(self, warm):
        """The pair's lazily read timeline and its eager decode."""
        root, expected = warm
        fp = Session(make_config()).engine_fingerprint()
        co = ResultStore(root).get_corun(fp, "G-CC", "fotonik3d", 4, 4)
        assert isinstance(co.timeline._source, bytes)  # as read, not yet decoded
        return co.timeline, expected["pair"].timeline

    def test_behaves_like_the_eager_list(self, pair):
        lazy, eager = pair
        assert isinstance(eager, list) and len(eager) > 1
        assert isinstance(lazy, Sequence) and not isinstance(lazy, list)
        assert lazy == eager and eager == lazy
        assert not (lazy != eager)
        assert len(lazy) == len(eager) and bool(lazy)
        assert lazy[0] == eager[0] and lazy[-1] == eager[-1]
        assert lazy[1:3] == eager[1:3]
        assert list(lazy) == eager
        assert json.dumps(encode_timeline(lazy)) == json.dumps(encode_timeline(eager))

    def test_is_not_a_list(self, pair):
        lazy, eager = pair
        with pytest.raises(TypeError):
            [] + lazy
        with pytest.raises(TypeError):
            list.copy(lazy)
        with pytest.raises(TypeError):
            hash(lazy)
        assert list(lazy) == eager  # the explicit conversion works

    def test_empty_timeline_is_falsy(self):
        lazy = LazyTimeline(b"", ("a", "b"))
        assert not lazy and len(lazy) == 0 and lazy == []
        assert lazy.encoded() == [] and lazy.packed() == (("a", "b"), b"")

    def test_decodes_once(self, materialized):
        encoded = [{"time_s": 0.5, "bytes_per_s": {"a": 1.0, "b": 2.5}}]
        lazy = LazyTimeline(base64.b64encode(struct.pack("<3d", 0.5, 1.0, 2.5)), ("a", "b"))
        assert materialized[0] == 0
        first = lazy[0]
        assert lazy[0] is first and list(lazy)[0] is first and len(lazy) == 1
        assert materialized[0] == 1
        assert lazy == decode_timeline(encoded)

    def test_rows_with_a_repeated_name_pack_like_the_scalar_dict(self):
        """A repeated name keeps its first position and its last rate,
        in the JSON form and in the packed one."""
        rows = (np.array([0.5, 1.0]), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        lazy = LazyTimeline(rows, ("a", "b", "a"))
        assert lazy.encoded() == [
            {"time_s": 0.5, "bytes_per_s": {"a": 3.0, "b": 2.0}},
            {"time_s": 1.0, "bytes_per_s": {"a": 6.0, "b": 5.0}},
        ]
        names, line2 = lazy.packed()
        assert names == ("a", "b")
        assert LazyTimeline(line2, names).encoded() == lazy.encoded()

    def test_concurrent_first_access_sees_a_whole_list(self, pair):
        lazy_read, eager = pair
        names, raw = lazy_read.packed()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                lazy = LazyTimeline(raw, names)
                seen = []
                barrier = threading.Barrier(4, timeout=10)

                def read():
                    barrier.wait()
                    seen.append((len(lazy), list(lazy)))

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert seen == [(len(eager), eager)] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_pickles_as_an_equal_timeline(self, pair):
        lazy, eager = pair
        assert pickle.loads(pickle.dumps(lazy)) == eager  # still encoded
        assert lazy == eager
        assert pickle.loads(pickle.dumps(lazy)) == eager  # decoded


class TestWhoDecodes:
    def test_scoring_a_warm_day_decodes_no_timeline(self, tmp_path, materialized):
        roster = ("G-CC", "fotonik3d", "swaptions")
        trace = parse_trace("seed:0:8:2:0.5", roster)
        config = make_config(workloads=roster)

        def replay():
            session = Session(config, store=tmp_path / "st")
            report = replay_trace(
                trace, PlacementEvaluator(session),
                machines=2, policy="interference", replan=True,
            )
            return session, json.dumps(report.payload(), sort_keys=True)

        _, cold = replay()
        materialized[0] = 0
        session, warm_report = replay()
        assert warm_report == cold
        assert session.stats.scenario_disk_hits > 0
        assert session.stats.scenario_misses == 0
        assert materialized[0] == 0

    def test_fig3_reads_solo_timelines_byte_identically(self, tmp_path, materialized):
        runner = get_runner("fig3")
        cold = Session(make_config(), store=tmp_path / "st").run("fig3")
        materialized[0] = 0
        warm_session = Session(make_config(), store=tmp_path / "st")
        warm = warm_session.run("fig3")
        assert warm_session.stats.solo_misses == 0
        assert warm_session.stats.solo_disk_hits > 0
        assert materialized[0] > 0  # fig3 does read the timelines
        assert json.dumps(runner.encode(warm.result)) == json.dumps(
            runner.encode(cold.result)
        )
