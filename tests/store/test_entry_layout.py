"""The two-line cache entry: line 1 is the envelope with the result minus
its bandwidth timeline plus a digest of line 2, line 2 is the encoded
timeline, decoded lazily on first use.

Covers the compatibility rules (one-line entries written before the
split keep serving; a split entry is not one JSON document, so older
readers see a miss), the digest check (a bad line 2 is a miss at read
time, never a later error), the :class:`LazyTimeline` contract, and
that no scheduler path decodes a timeline.
"""

import json
import pickle
import sys
import threading
from collections.abc import Sequence

import pytest

from repro.core import ExperimentConfig
from repro.sched import PlacementEvaluator, parse_trace, replay_trace
from repro.session import Scenario, Session, get_runner
from repro.store import SCHEMA_VERSION, ResultStore, codec
from repro.store.codec import (
    LazyTimeline,
    decode_timeline,
    encode_corun,
    encode_scenario_result,
    encode_solo,
    encode_timeline,
)

SUBSET = ("G-CC", "fotonik3d", "swaptions")
PAIR = Scenario.pair("G-CC", "fotonik3d", threads=4)
TRIO = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")


def make_config(**kw):
    kw.setdefault("workloads", SUBSET)
    kw.setdefault("jitter", 0.0)
    return ExperimentConfig(**kw)


def entries(root):
    """``(section, path, key)`` of every cache entry under ``root``."""
    for section in ("solo", "corun", "scenario"):
        for path in sorted((root / section).rglob("*.json")):
            head = path.read_bytes().partition(b"\n")[0]
            yield section, path, json.loads(head)["key"]


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


def publish_one_line(path, kind, key, encoded):
    """Write an entry exactly as stores did before the split: one
    ``json.dumps`` line with the timeline inline."""
    path.write_text(json.dumps({
        "schema": SCHEMA_VERSION, "kind": kind, "key": key, "result": encoded,
    }))


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
    """Counts lazy timelines decoded: a :class:`LazyTimeline` decodes by
    handing its parsed line 2 (a plain list) to ``decode_timeline``."""
    count = [0]
    real = codec.decode_timeline

    def counting(data):
        count[0] += not isinstance(data, LazyTimeline)
        return real(data)

    monkeypatch.setattr(codec, "decode_timeline", counting)
    return count


def lookups(session):
    return (
        session.run_scenario(PAIR).result,
        session.run_scenario(TRIO).result,
        session.solo("G-CC", threads=4),
    )


class TestLayout:
    def test_every_section_writes_two_lines(self, warm):
        root, _ = warm
        sections = set()
        for section, path, _ in entries(root):
            head, line2 = path.read_text().splitlines()
            envelope = json.loads(head)
            assert "timeline" not in envelope["result"]
            assert len(envelope["timeline_sha256"]) == 16
            assert isinstance(json.loads(line2), list)
            sections.add(section)
        assert sections == {"solo", "corun", "scenario"}

    def test_split_entry_is_not_one_json_document(self, warm):
        """A whole-file parse (how one-line readers load an entry) fails,
        so such a reader counts a split entry as a miss, never as data."""
        root, _ = warm
        for _, path, _ in entries(root):
            with pytest.raises(ValueError, match="Extra data"):
                json.loads(path.read_text())

    def test_read_back_is_lazy_and_encodes_identically(self, warm):
        root, expected = warm
        fresh = Session(make_config(), store=root)
        encoders = (encode_scenario_result, encode_scenario_result, encode_solo)
        for got, want, encode in zip(lookups(fresh), expected.values(), encoders):
            assert isinstance(got.timeline, LazyTimeline)
            assert got == want
            assert json.dumps(encode(got)) == json.dumps(encode(want))
        assert fresh.stats.scenario_disk_hits == 2 and fresh.stats.solo_disk_hits == 1

    def test_crlf_line_endings_still_serve(self, warm):
        """A text-mode write on Windows ends each line with CRLF; the
        digest covers line 2 without its terminator."""
        root, expected = warm
        for _, path, _ in entries(root):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        session = Session(make_config(), store=root)
        assert lookups(session) == tuple(expected.values())
        assert session.stats.solo_misses == 0 and session.stats.scenario_misses == 0

    def test_scenario_listing_parses_line_one_only(self, warm):
        root, _ = warm
        store = ResultStore(root)
        before = store.scenarios()
        assert before
        for section, path, _ in entries(root):
            if section == "scenario":
                head = path.read_bytes().partition(b"\n")[0]
                path.write_bytes(head + b"\n{not json")
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


class TestOneLineEntries:
    def test_entries_written_before_the_split_keep_serving(self, warm):
        root, expected = warm
        store = ResultStore(root)
        originals = {}
        for section, path, key in entries(root):
            result, encode = read_back(store, section, key)
            originals[path] = json.dumps(encode(result))
            publish_one_line(path, section, key, encode(result))
        assert originals
        store = ResultStore(root)
        for section, path, key in entries(root):
            result, encode = read_back(store, section, key)
            assert isinstance(result.timeline, list)  # decoded inline, as before
            assert json.dumps(encode(result)) == originals[path]

        session = Session(make_config(), store=store)
        assert lookups(session) == tuple(expected.values())
        stats = session.stats
        assert stats.solo_disk_hits == 1 and stats.scenario_disk_hits == 2
        assert stats.solo_misses == 0 and stats.scenario_misses == 0


def damage(path, how):
    head, _, line2 = path.read_bytes().partition(b"\n")
    if how == "missing":
        path.write_bytes(head + b"\n")
    elif how == "truncated":
        path.write_bytes(head + b"\n" + line2[: len(line2) // 2])
    else:  # same length, different bytes: still valid JSON
        garbage = line2.replace(b"e", b"E") if b"e" in line2 else b" " * len(line2)
        assert len(garbage) == len(line2) and garbage != line2
        path.write_bytes(head + b"\n" + garbage)


class TestBadLineTwo:
    @pytest.mark.parametrize("how", ["missing", "truncated", "garbage"])
    def test_bad_line_two_is_a_miss_and_resimulates(self, warm, how):
        root, expected = warm
        for _, path, _ in entries(root):
            damage(path, how)
        store = ResultStore(root)
        for section, _, key in entries(root):
            assert read_back(store, section, key)[0] is None

        session = Session(make_config(), store=store)
        assert lookups(session) == tuple(expected.values())
        assert session.stats.scenario_disk_hits == 0
        assert session.stats.solo_disk_hits == 0
        assert session.stats.scenario_misses == 2

    def test_rewritten_entry_serves_again(self, warm):
        root, expected = warm
        for _, path, _ in entries(root):
            damage(path, "truncated")
        Session(make_config(), store=root).run_scenario(TRIO)  # re-simulates, re-publishes
        again = Session(make_config(), store=root)
        assert again.run_scenario(TRIO).result == expected["trio"]
        assert again.stats.scenario_disk_hits == 1


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
