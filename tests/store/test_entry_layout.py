"""Cache entries: two lines appended to a per-process segment log.

Line 1 is the envelope, key fingerprint first, with the result minus its
bandwidth timeline plus a digest of line 2; line 2 is the encoded
timeline, decoded lazily on first use.  Each process appends to its own
``<section>/<engine_fp>/<pid>-<token>.jsonl`` segment.

Covers the layout, compatibility with the per-entry files of earlier
versions (one-line and two-line; both keep serving, also beside
segments), the failure rules (a torn tail, a bad line 2, a foreign or
colliding entry and a failed write are misses, never errors; a damaged
copy re-published serves again; a fork child and a writer whose shard gc
pruned open segments of their own), the cost of a miss, the
:class:`LazyTimeline` contract, and that no scheduler path decodes a
timeline.
"""

import gc
import json
import multiprocessing
import os
import pickle
import sys
import threading
from collections.abc import Sequence
from pathlib import Path

import pytest

from repro.core import ExperimentConfig
from repro.sched import PlacementEvaluator, parse_trace, replay_trace
from repro.session import Scenario, Session, get_runner
from repro.store import SCHEMA_VERSION, ResultStore
from repro.store import store as store_mod
from repro.store.codec import (
    LazyTimeline,
    decode_timeline,
    encode_corun,
    encode_scenario_result,
    encode_solo,
    encode_timeline,
)
from tests.store.layouts import LAYOUTS, SECTIONS, entry_file, entry_lines, explode

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


def read_back(store, section, key):
    """One entry through the public API, with its encoder."""
    fp = key["engine_fingerprint"]
    if section == "solo":
        return store.get_solo(fp, key["workload"], key["threads"]), encode_solo
    if section == "corun":
        args = (key["fg"], key["bg"], key["fg_threads"], key["bg_threads"])
        return store.get_corun(fp, *args), encode_corun
    scenario = Scenario.from_payload(key["scenario"])
    return store.get_scenario(fp, scenario), encode_scenario_result


def encoded(store, section, key):
    result, encode = read_back(store, section, key)
    return None if result is None else json.dumps(encode(result))


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


def served_from_disk(session):
    stats = session.stats
    return (stats.solo_misses, stats.scenario_misses) == (0, 0)


class TestLayout:
    def test_every_section_appends_two_lines(self, warm):
        root, _ = warm
        for _, entry, _ in entries(root):
            line1, line2 = entry_lines(root, entry)
            assert line1.startswith(b'{"keyfp": "%s", ' % entry.keyfp.encode())
            envelope = json.loads(line1)
            assert "timeline" not in envelope["result"]
            assert len(envelope["timeline_sha256"]) == 16
            assert isinstance(json.loads(line2), list)

    def test_one_segment_per_shard_and_no_entry_files(self, warm):
        """One process wrote everything: each shard holds one segment,
        named after that process, and no per-entry file, so an earlier
        version reading this store finds nothing and re-simulates."""
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


class TestEarlierLayouts:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_entry_files_keep_serving(self, warm, layout):
        root, expected = warm
        originals = {
            entry.keyfp: encoded(ResultStore(root), section, key)
            for section, entry, key in entries(root)
        }
        assert explode(root, layout) == len(originals)
        assert not segments(root)
        store = ResultStore(root)
        for section, entry, key in entries(root):
            assert entry.path.endswith(".json")
            assert entry_file(store, section, key) == root / entry.path
            result, encode = read_back(store, section, key)
            lazy = isinstance(result.timeline, LazyTimeline)
            assert lazy == (layout == "two-line")  # one-line decodes inline
            assert json.dumps(encode(result)) == originals[entry.keyfp]

        session = Session(make_config(), store=store)
        assert lookups(session) == tuple(expected.values())
        assert served_from_disk(session)
        assert session.stats.solo_disk_hits == 1 and session.stats.scenario_disk_hits == 2
        assert not segments(root)  # serving wrote nothing

    def test_crlf_line_endings_still_serve(self, warm):
        """A text-mode write on Windows ended each line of a per-entry
        file with CRLF; the digest covers line 2 without its terminator."""
        root, expected = warm
        explode(root, "two-line")
        for _, entry, _ in entries(root):
            path = root / entry.path
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        session = Session(make_config(), store=root)
        assert lookups(session) == tuple(expected.values())
        assert served_from_disk(session)

    def test_mixed_store_serves_from_both(self, warm):
        """Per-entry files of an earlier version and the segments this
        version appends beside them in the same shards both serve."""
        root, expected = warm
        explode(root, "two-line")
        extra = Scenario.of("G-CC:1", "swaptions:1", "fotonik3d:1")
        writer = Session(make_config(), store=root)
        want = writer.run_scenario(extra).result
        assert segments(root)  # the new cells went to segments
        store = ResultStore(root)
        assert {e.path[-5:] for s in SECTIONS for e in store.cache_entries(s)} == {
            ".json", "jsonl",
        }
        session = Session(make_config(), store=store)
        assert lookups(session) == tuple(expected.values())
        assert session.run_scenario(extra).result == want
        assert served_from_disk(session)


class TestDamage:
    """Whatever a segment holds, a read is a hit with the right result
    or a miss, never an error or another key's result."""

    @pytest.mark.parametrize("where", ["segment", "entry-file"])
    def test_garbled_line_two_is_a_miss_and_resimulates(self, warm, where):
        root, expected = warm
        if where == "entry-file":
            explode(root, "two-line")
        for _, entry, _ in entries(root):
            line2 = entry_lines(root, entry)[1]
            overwrite(root, entry, 2, garbled(line2))
        store = ResultStore(root)
        for section, _, key in entries(root):
            assert read_back(store, section, key)[0] is None

        session = Session(make_config(), store=store)
        assert lookups(session) == tuple(expected.values())
        assert session.stats.scenario_disk_hits == 0
        assert session.stats.solo_disk_hits == 0
        assert session.stats.scenario_misses == 2

    @pytest.mark.parametrize("how", ["missing", "truncated"])
    def test_bad_line_two_of_an_entry_file_is_a_miss(self, warm, how):
        root, _ = warm
        explode(root, "two-line")
        for _, entry, _ in entries(root):
            path = root / entry.path
            line1, _, line2 = path.read_bytes().partition(b"\n")
            path.write_bytes(line1 + b"\n" + (b"" if how == "missing" else line2[: len(line2) // 2]))
        store = ResultStore(root)
        for section, _, key in entries(root):
            assert read_back(store, section, key)[0] is None

    def test_torn_tail_is_skipped_then_rescanned(self, warm):
        """A segment's incomplete tail is not indexed; the next refresh
        scans it again from its first byte, so an append that completes
        later serves."""
        root, _ = warm
        rows = [r for r in entries(root) if r[0] == "solo"]
        section, entry, key = max(rows, key=lambda r: r[1].offset)  # the tail
        want = encoded(ResultStore(root), section, key)
        path = root / entry.path
        whole = path.read_bytes()
        tail = whole[entry.offset:]
        for cut in (len(tail) - 1, len(tail) // 2, 3):
            path.write_bytes(whole[: entry.offset + cut])
            reader = ResultStore(root)
            assert read_back(reader, section, key)[0] is None
            for _, other, other_key in rows:
                if other != entry:
                    assert encoded(reader, section, other_key) is not None
            with open(path, "ab") as fh:
                fh.write(tail[cut:])  # the writer finishes its append
            assert encoded(reader, section, key) == want

    def test_foreign_schema_and_colliding_entries_are_misses(self, warm, tmp_path):
        """An entry under a key's fingerprint whose envelope has another
        schema, or holds another key, is a miss for that key."""
        root, _ = warm
        rows = entries(root)
        pair = next(r for r in rows if r[0] == "corun")
        trio = next(r for r in rows if r[0] == "scenario")
        line1, line2 = entry_lines(root, pair[1])
        foreign = json.loads(line1)
        foreign["schema"] = SCHEMA_VERSION + 1
        colliding = json.loads(line1)  # the pair's key under the trio's fingerprint
        colliding["keyfp"] = trio[1].keyfp
        other = tmp_path / "other"
        for (section, entry, _), envelope in ((pair, foreign), (trio, colliding)):
            shard = other / section / entry.engine_fp
            shard.mkdir(parents=True)
            (shard / "1-00000000.jsonl").write_bytes(json.dumps(envelope).encode() + b"\n" + line2)
        store = ResultStore(other)
        assert [e.keyfp for e in store.cache_entries("scenario")] == [trio[1].keyfp]
        for section, _, key in (pair, trio):
            assert read_back(store, section, key)[0] is None

    def test_stray_lines_do_not_hide_later_entries(self, warm):
        """Lines that open no envelope, and an envelope whose line 2 is
        missing, are skipped; the entries after them still serve."""
        root, _ = warm
        section, entry, key = entries(root)[0]
        want = encoded(ResultStore(root), section, key)
        path = root / entry.path
        line1, line2 = entry_lines(root, entry)
        path.write_bytes(b"junk\n" + line1 + b"[1, 2]\n\n" + line1 + line1 + line2)
        assert encoded(ResultStore(root), section, key) == want

    def test_damaged_newest_copy_falls_back_to_an_older_one(self, warm):
        root, _ = warm
        section, entry, key = entries(root)[0]
        want = encoded(ResultStore(root), section, key)
        line1, line2 = entry_lines(root, entry)
        with open(root / entry.path, "ab") as fh:
            fh.write(line1 + garbled(line2))  # a newer, damaged copy
        store = ResultStore(root)
        assert encoded(store, section, key) == want
        assert encoded(store, section, key) == want  # the bad copy was dropped

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
            assert read_back(store, section, key)[0] is not None
        assert open_descriptors() > before
        store.close()
        assert open_descriptors() == before
        assert read_back(store, section, key)[0] is not None  # reopens
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
        lazy = LazyTimeline(b"[]\n")
        assert not lazy and len(lazy) == 0 and lazy == []

    def test_decodes_once(self, materialized):
        encoded = [{"time_s": 0.5, "bytes_per_s": {"a": 1.0, "b": 2.5}}]
        lazy = LazyTimeline(json.dumps(encoded).encode())
        assert materialized[0] == 0
        first = lazy[0]
        assert lazy[0] is first and list(lazy)[0] is first and len(lazy) == 1
        assert materialized[0] == 1
        assert lazy == decode_timeline(encoded)

    def test_concurrent_first_access_sees_a_whole_list(self, pair):
        _, eager = pair
        raw = (json.dumps(encode_timeline(eager)) + "\n").encode()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                lazy = LazyTimeline(raw)
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
