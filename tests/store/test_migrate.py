"""``repro store migrate``: every earlier layout becomes schema 2.

Schema-1 stores (segment logs of float text, and the one-line and
two-line per-entry files of versions before segment logs) are written by
``tests/store/layouts.py`` from a schema-2 store, and one was written by
the last schema-1 version itself (``fixtures/schema1``, see
``fixtures/build_schema1.py``).  Each must migrate, then serve every
entry with no miss and the same encoded result; opening one before
migrating raises and names the command; a migrate cut short anywhere
loses nothing and a re-run finishes it without writing a second copy;
of a key's copies, the one the schema-1 reader served migrates; entries
it would not have served are dropped; a segment whose first line is
stray keeps its entries.
"""

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ExperimentConfig
from repro.errors import StoreError
from repro.session import Scenario, Session
from repro.store import SCHEMA_VERSION, ResultStore, migrate
from repro.store import migration as migrate_mod
from tests.store.layouts import (
    LAYOUTS,
    SECTIONS,
    downgrade,
    encoded,
    read_back,
    schema1_file,
    schema1_file_bytes,
    schema1_lines,
)

FIXTURE = Path(__file__).parent / "fixtures" / "schema1"
SUBSET = ("G-CC", "fotonik3d", "swaptions")
PAIR = Scenario.pair("G-CC", "fotonik3d", threads=4)
TRIO = Scenario.of("G-CC:2", "fotonik3d:2", "swaptions:2")


def make_config():
    return ExperimentConfig(workloads=SUBSET, jitter=0.0)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A schema-2 store holding solo, corun and scenario entries."""
    root = tmp_path_factory.mktemp("migrate") / "st"
    session = Session(make_config(), store=root)
    session.run_scenario(PAIR)
    session.run_scenario(TRIO)
    session.solo("G-CC", threads=4)
    return root


def contents(root):
    """``(section, key) -> encoded result`` of every entry, read back."""
    store = ResultStore(root)
    out = {}
    for section in SECTIONS:
        for entry in store.cache_entries(section):
            key = store.entry_head(entry)["key"]
            result = read_back(store, section, key)
            out[section, json.dumps(key)] = None if result is None else encoded(section, result)
    store.close()
    return out


def copies(root):
    """Whole entries across every segment of the store (copies included)."""
    return sum(
        data.count(b"\n") // 2
        for data in (p.read_bytes() for p in Path(root).glob("*/*/*.jsonl"))
    )


def files(root):
    return sorted(p.name for s in SECTIONS for p in Path(root).glob(f"{s}/*/*"))


@pytest.fixture
def store(tmp_path, written):
    root = tmp_path / "st"
    shutil.copytree(written, root)
    return root


@pytest.fixture
def want(written):
    return contents(written)


class TestEveryLayoutMigrates:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_migrates_then_serves_everything(self, store, want, layout):
        torn = layout == "segments"
        assert downgrade(store, layout, torn=torn) == len(want)
        with pytest.raises(StoreError, match="repro store migrate"):
            ResultStore(store)

        summary = migrate(store)
        assert summary == {
            "from_schema": 1, "migrated": len(want), "dropped": 0,
            "removed_files": 3 if layout == "segments" else len(want),
        }
        assert json.loads((store / "store.json").read_text())["schema"] == SCHEMA_VERSION
        assert all(name.endswith(".jsonl") for name in files(store))
        assert contents(store) == want
        assert copies(store) == len(want)

        session = Session(make_config(), store=store)
        session.run_scenario(PAIR)
        session.run_scenario(TRIO)
        session.solo("G-CC", threads=4)
        stats = session.stats
        assert (stats.solo_misses, stats.scenario_misses) == (0, 0)
        assert (stats.solo_disk_hits, stats.scenario_disk_hits) == (1, 2)

    def test_crlf_entry_files_migrate(self, store, want):
        """A text-mode write on Windows ended each line of a per-entry
        file with CRLF; the digest covered line 2 without its terminator."""
        downgrade(store, "two-line")
        for path in Path(store).glob("*/*/*.json"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert migrate(store)["migrated"] == len(want)
        assert contents(store) == want

    def test_the_last_schema1_version_s_own_store_migrates(self, tmp_path):
        """Segments (with a torn tail) and both per-entry layouts, as that
        version wrote them; several keys have a copy in a segment and in
        a per-entry file."""
        root = tmp_path / "store"
        shutil.copytree(FIXTURE / "store", root)
        expected = json.loads((FIXTURE / "expected.json").read_text())
        with pytest.raises(StoreError, match="repro store migrate"):
            ResultStore(root)
        summary = migrate(root)
        assert (summary["from_schema"], summary["migrated"], summary["dropped"]) == (
            1, len(expected), 0,
        )
        store = ResultStore(root)
        for row in expected:
            result = read_back(store, row["section"], row["key"])
            digest = hashlib.sha256(encoded(row["section"], result).encode()).hexdigest()
            assert digest == row["encoded_sha256"], row["key"]
        assert copies(root) == len(expected)


class TestCopies:
    @pytest.mark.parametrize("layout", ["one-line", "two-line"])
    def test_a_segment_copy_wins_over_a_per_entry_file(self, store, want, layout):
        """The schema-1 reader served a key's segment copy and read its
        per-entry file only when no segment copy checked out; the
        migrated store serves the segment's numbers too, though the
        file's name sorts after the segment's."""
        section, key = "solo", json.loads(min(k for s, k in want if s == "solo"))
        result = read_back(ResultStore(store), section, key)
        metrics = dataclasses.replace(result.metrics, runtime_s=2 * result.metrics.runtime_s)
        other = dataclasses.replace(result, metrics=metrics)
        downgrade(store, "segments")
        path = schema1_file(store, section, key)
        path.write_bytes(schema1_file_bytes(layout, *schema1_lines(section, key, other)))
        [segment] = path.parent.glob("*.jsonl")
        assert segment.name < path.name
        assert migrate(store)["migrated"] == len(want)
        assert contents(store) == want
        assert copies(store) == len(want)

    def test_a_segment_that_opens_with_a_stray_line_keeps_its_entries(self, store, want):
        """A reader skips a line that opens no envelope, so the entries
        after it serve; migrate keeps such a segment."""
        for segment in Path(store).glob("*/*/*.jsonl"):
            segment.write_bytes(b"junk\n" + segment.read_bytes())
        assert contents(store) == want
        summary = migrate(store)
        assert summary == {"from_schema": SCHEMA_VERSION, "migrated": 0, "dropped": 0,
                           "removed_files": 0}
        assert contents(store) == want


class TestDamage:
    def test_entries_the_old_reader_refused_are_dropped(self, store, want):
        """A line 2 its digest does not match, a foreign schema, a key of
        another shard and an unparseable line 1: a miss before, dropped."""
        downgrade(store, "segments")
        (segment,) = Path(store).glob("scenario/*/*.jsonl")
        line1, line2 = segment.read_bytes().split(b"\n")[:2]
        foreign = line1.replace(b'"schema": 1', b'"schema": 7')
        envelope = json.loads(line1)
        key = envelope["key"]
        other_shard = dict(key, engine_fingerprint="0123456789ab")
        moved = json.dumps(dict(envelope, key=other_shard)).encode()
        garbled = line2.replace(b"e", b"E") if b"e" in line2 else line2[::-1]
        segment.write_bytes(
            b"".join(head + b"\n" + tail + b"\n" for head, tail in (
                (line1, garbled), (foreign, line2), (moved, line2),
                (b'{"keyfp": "000000000000", torn', line2),
            ))
        )
        summary = migrate(store)
        assert summary["dropped"] == 4
        got = contents(store)
        assert ("scenario", json.dumps(key)) not in got
        assert {k: v for k, v in want.items() if k[0] != "scenario"} == got

    def test_a_plain_pair_under_scenario_is_dropped(self, store, want):
        """The store files a plain pair in ``corun/``, so one found under
        ``scenario/`` is no key of that section: dropped, not migrated."""
        fp = Session(make_config()).engine_fingerprint()
        reader = ResultStore(store)
        result = reader.get_scenario(fp, PAIR)
        reader.close()
        downgrade(store, "segments")
        (segment,) = Path(store).glob("scenario/*/*.jsonl")
        key = {"engine_fingerprint": fp, "scenario": PAIR.payload()}
        with open(segment, "ab") as fh:
            fh.write(b"".join(schema1_lines("scenario", key, result)))
        summary = migrate(store)
        assert (summary["migrated"], summary["dropped"]) == (len(want), 1)
        assert contents(store) == want

    @pytest.mark.parametrize("how", ["missing", "truncated"])
    def test_entry_file_with_a_bad_line_two_is_dropped(self, store, want, how):
        downgrade(store, "two-line")
        for path in Path(store).glob("*/*/*.json"):
            line1, _, line2 = path.read_bytes().partition(b"\n")
            path.write_bytes(line1 + b"\n" + (b"" if how == "missing" else line2[: len(line2) // 2]))
        summary = migrate(store)
        assert (summary["migrated"], summary["dropped"]) == (0, len(want))
        assert contents(store) == {}


class TestReruns:
    @pytest.mark.parametrize("stop_after", [0, 1, 5])
    def test_a_migrate_cut_short_loses_nothing(self, store, want, monkeypatch, stop_after):
        """Cut at an entry of step 1: nothing is flipped, the store stays
        schema 1, and a re-run migrates every entry once."""
        downgrade(store, "segments", torn=True)
        real = migrate_mod.pack_entry
        done = []

        def cut(*args):
            if len(done) == stop_after:
                raise KeyboardInterrupt
            done.append(1)
            return real(*args)

        monkeypatch.setattr(migrate_mod, "pack_entry", cut)
        with pytest.raises(KeyboardInterrupt):
            migrate(store)
        monkeypatch.setattr(migrate_mod, "pack_entry", real)
        with pytest.raises(StoreError, match="repro store migrate"):
            ResultStore(store)
        migrate(store)
        assert contents(store) == want
        assert copies(store) == len(want)

    def test_a_rerun_after_a_finished_shard_writes_no_second_copy(self, store, want, monkeypatch):
        downgrade(store, "one-line")
        real = migrate_mod._migrate_shard
        shards = []

        def second_fails(*args):
            if shards:
                raise KeyboardInterrupt
            shards.append(args)
            return real(*args)

        monkeypatch.setattr(migrate_mod, "_migrate_shard", second_fails)
        with pytest.raises(KeyboardInterrupt):
            migrate(store)
        monkeypatch.setattr(migrate_mod, "_migrate_shard", real)
        summary = migrate(store)
        assert summary["migrated"] < len(want)  # the first shard's were kept
        assert contents(store) == want
        assert copies(store) == len(want)

    def test_a_cut_during_removal_is_finished_by_a_rerun(self, store, want, monkeypatch):
        downgrade(store, "two-line")
        real = migrate_mod.os.unlink
        monkeypatch.setattr(migrate_mod.os, "unlink", lambda path: None)
        migrate(store)  # flipped, nothing removed
        monkeypatch.setattr(migrate_mod.os, "unlink", real)
        assert any(name.endswith(".json") for name in files(store))
        assert contents(store) == want  # leftovers never serve, never hide
        summary = migrate(store)
        assert (summary["from_schema"], summary["migrated"]) == (SCHEMA_VERSION, 0)
        assert summary["removed_files"] == len(want)
        assert all(name.endswith(".jsonl") for name in files(store))
        assert copies(store) == len(want)

    def test_a_damaged_current_copy_does_not_hide_a_schema1_copy(self, store, want):
        """A key whose schema-2 copy no longer checks out migrates from
        its schema-1 copy."""
        (segment,) = Path(store).glob("solo/*/*.jsonl")
        line1, line2, rest = segment.read_bytes().split(b"\n", 2)
        key = json.loads(line1)["key"]
        result = read_back(ResultStore(store), "solo", key)
        segment.write_bytes(b"\n".join((line1, line2[::-1], rest)))
        assert read_back(ResultStore(store), "solo", key) is None
        old1, old2 = schema1_lines("solo", key, result)
        schema1_file(store, "solo", key).write_bytes(schema1_file_bytes("two-line", old1, old2))
        assert migrate(store)["migrated"] == 1
        assert contents(store) == want

    def test_current_store_is_left_as_it_is(self, store, want):
        before = {p: p.read_bytes() for p in Path(store).glob("*/*/*.jsonl")}
        summary = migrate(store)
        assert summary == {"from_schema": SCHEMA_VERSION, "migrated": 0, "dropped": 0,
                           "removed_files": 0}
        assert {p: p.read_bytes() for p in Path(store).glob("*/*/*.jsonl")} == before

    def test_schema1_files_beside_current_segments_migrate(self, store, want):
        """Files an earlier version left in a store already at schema 2
        migrate too; keys a segment already holds get no second copy."""
        extra = Scenario.of("G-CC:1", "swaptions:1", "fotonik3d:1")
        other = store.parent / "other"
        result = Session(make_config(), store=other).run_scenario(extra).result
        fp = Session(make_config()).engine_fingerprint()
        key = {"engine_fingerprint": fp, "scenario": extra.payload()}
        line1, line2 = schema1_lines("scenario", key, result)
        schema1_file(store, "scenario", key).write_bytes(schema1_file_bytes("one-line", line1, line2))
        [trio] = [json.loads(key) for section, key in want if section == "scenario"]
        old1, old2 = schema1_lines("scenario", trio, read_back(ResultStore(store), "scenario", trio))
        schema1_file(store, "scenario", trio).write_bytes(schema1_file_bytes("two-line", old1, old2))
        summary = migrate(store)
        assert (summary["migrated"], summary["removed_files"]) == (1, 2)
        got = contents(store)
        assert got[("scenario", json.dumps(key))] == encoded("scenario", result)
        assert {k: v for k, v in got.items() if k in want} == want
        assert copies(store) == len(want) + 1


class TestRefusals:
    def test_a_newer_schema_is_refused(self, store):
        (store / "store.json").write_text(json.dumps({"schema": SCHEMA_VERSION + 1}))
        with pytest.raises(StoreError, match="migrates to"):
            migrate(store)
        with pytest.raises(StoreError) as info:
            ResultStore(store)
        assert "migrate" not in str(info.value)

    def test_no_store(self, tmp_path):
        with pytest.raises(StoreError, match="no store"):
            migrate(tmp_path / "absent")


class TestCli:
    def test_store_verbs_refuse_then_migrate(self, store, want, capsys):
        downgrade(store, "segments")
        assert main(["store", "ls", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert f"repro store migrate --store {store}" in err
        assert main(["store", "migrate", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"migrated {len(want)} cache entr(ies) from schema 1 to {SCHEMA_VERSION}" in out
        assert main(["store", "ls", "--store", str(store)]) == 0
        assert contents(store) == want
