"""Generated interleavings of two stores sharing one root.

Two :class:`ResultStore` instances put and get a few solo, corun and
scenario keys, are reopened, see segment tails truncated or extended
with garbage, see ``gc`` prune shards, find entries an earlier version
left in the schema-1 layouts (a segment of its own, one-line and
two-line per-entry files), and see ``migrate`` rewrite those, at times
cut short at a random entry and run again.  Whatever the interleaving:

* a get returns ``None`` or exactly the encoded result put under its
  key, never another key's result, and never raises;
* a freshly opened store serves every entry whose bytes are intact and
  start a line (a whole entry after a torn line is not framed), and
  after a migrate also every key that had an intact schema-1 copy.

The model learns where each put landed by watching which segment grew,
and where a migrate put each key by reading the segments it wrote.
"""

import functools
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import ExperimentConfig
from repro.session import Scenario, Session
from repro.store import ResultStore, migration
from repro.store.codec import encode_corun, encode_scenario_result, encode_solo, entry_key
from tests.store.layouts import schema1_file, schema1_file_bytes, schema1_lines

FPS = ("feedbeef0001", "feedbeef0002")
SECTIONS = ("solo", "corun", "scenario")


@functools.lru_cache(maxsize=1)
def keyed_results():
    """``key -> (section, args, result)``: eight keys over two engine
    fingerprints, each holding a different result, so a read of one
    key answered with another's result cannot go unnoticed."""
    session = Session(ExperimentConfig(workloads=("G-CC", "swaptions", "fotonik3d"), jitter=0.0))
    solos = [session.solo(w, threads=t) for w in ("G-CC", "swaptions") for t in (1, 2)]
    pairs = [
        session.run_scenario(Scenario.pair("G-CC", "swaptions", threads=t)).result
        for t in (1, 2)
    ]
    trio = Scenario.of("G-CC:1", "swaptions:1", "fotonik3d:1")
    trios = [session.run_scenario(s).result for s in (trio, trio.with_policy("even"))]
    out = {}
    for i, fp in enumerate(FPS):
        out[f"solo-G-CC-{fp}"] = ("solo", (fp, "G-CC", 1), solos[i])
        out[f"solo-swaptions-{fp}"] = ("solo", (fp, "swaptions", 1), solos[2 + i])
        out[f"corun-{fp}"] = ("corun", (fp, "G-CC", "swaptions", 1, 1), pairs[i])
        out[f"scenario-{fp}"] = ("scenario", (fp, trio), trios[i])
    return out


ENCODERS = {"solo": encode_solo, "corun": encode_corun, "scenario": encode_scenario_result}


def encoded(section, result):
    return json.dumps(ENCODERS[section](result))


def get(store, key):
    section, args, _ = keyed_results()[key]
    return getattr(store, f"get_{section}")(*args)


def segment_sizes(root):
    return {p: p.stat().st_size for p in sorted(Path(root).glob("*/*/*.jsonl"))}


def key_of(key):
    """The entry key of one of :func:`keyed_results`' keys."""
    section, args, _ = keyed_results()[key]
    if section == "scenario":
        return ResultStore._scenario_key(*args)
    return getattr(ResultStore, f"_{section}_key")(*args)


def framed_at(path, offset):
    return offset == 0 or path.read_bytes()[offset - 1 : offset] == b"\n"


class Interrupted(Exception):
    """A migrate cut short."""


KEYS = st.sampled_from(sorted(keyed_results()))
SLOTS = st.integers(0, 1)


class TwoStores(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="interleave-"))
        self.stores = [ResultStore(self.root), ResultStore(self.root)]
        #: key -> intact copies, as (segment path, offset, size)
        self.copies: dict[str, list[tuple[Path, int, int]]] = {}
        #: key -> intact schema-1 copies, in the same form (a per-entry
        #: file is one copy at offset 0)
        self.old: dict[str, list[tuple[Path, int, int]]] = {}
        self.keys_by_fp = {entry_key(key_of(k))[1]: k for k in keyed_results()}

    def teardown(self):
        for store in self.stores:
            store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(slot=SLOTS, key=KEYS)
    def put(self, slot, key):
        section, args, result = keyed_results()[key]
        before = segment_sizes(self.root)
        getattr(self.stores[slot], f"put_{section}")(*args, result)
        after = segment_sizes(self.root)
        [grown] = [p for p in after if after[p] != before.get(p)]  # one append
        offset = before.get(grown, 0)
        if framed_at(grown, offset):
            self.copies.setdefault(key, []).append((grown, offset, after[grown] - offset))

    @rule(slot=SLOTS, key=KEYS)
    def get_is_none_or_exact(self, slot, key):
        section, _, result = keyed_results()[key]
        got = get(self.stores[slot], key)
        assert got is None or encoded(section, got) == encoded(section, result)

    @rule(slot=SLOTS)
    def reopen(self, slot):
        self.stores[slot].close()
        self.stores[slot] = ResultStore(self.root)

    @rule(pick=st.integers(0, 50), keep=st.floats(0, 1, exclude_max=True))
    def truncate_a_tail(self, pick, keep):
        sizes = segment_sizes(self.root)
        if not sizes:
            return
        path = list(sizes)[pick % len(sizes)]
        cut = int(sizes[path] * keep)
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        for copies in (*self.copies.values(), *self.old.values()):
            copies[:] = [c for c in copies if c[0] != path or c[1] + c[2] <= cut]

    @rule(pick=st.integers(0, 50), garbage=st.binary(min_size=1, max_size=40)
          | st.sampled_from([b"\n", b'{"keyfp": "', b'{"keyfp": "x"}\n[1]\n']))
    def extend_a_tail(self, pick, garbage):
        sizes = segment_sizes(self.root)
        if sizes:
            with open(list(sizes)[pick % len(sizes)], "ab") as fh:
                fh.write(garbage)

    @rule(live=st.sets(st.sampled_from(FPS)), section=st.sampled_from(SECTIONS))
    def gc(self, live, section):
        orphan = self.root / section / "deadbeef0000"
        orphan.mkdir(parents=True, exist_ok=True)
        (orphan / "1-00000000.jsonl").write_bytes(b"junk\n")
        (orphan / "x-000000000000.json").write_bytes(b"{}")
        summary = ResultStore(self.root).gc(live)
        assert f"{section}/deadbeef0000" in summary["removed_dirs"]
        assert not orphan.exists()
        for copies in (*self.copies.values(), *self.old.values()):
            copies[:] = [c for c in copies if c[0].parent.name in live]

    @rule(key=KEYS, layout=st.sampled_from(["segment", "one-line", "two-line"]))
    def an_earlier_version_writes(self, key, layout):
        """An entry in a schema-1 layout, as an earlier version wrote it."""
        section, _, result = keyed_results()[key]
        line1, line2 = schema1_lines(section, key_of(key), result)
        if layout == "segment":
            path = self.root / section / key_of(key)["engine_fingerprint"] / "1-schema1.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            offset = path.stat().st_size if path.exists() else 0
            with open(path, "ab") as fh:
                fh.write(line1 + line2)
            if not framed_at(path, offset):
                return
        else:
            path = schema1_file(self.root, section, key_of(key))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(schema1_file_bytes(layout, line1, line2))
            offset = 0
        self.old.setdefault(key, []).append((path, offset, len(line1) + len(line2)))

    @rule(cut=st.none() | st.integers(0, 8))
    def migrate(self, cut):
        """Migrate, at times cut short at entry ``cut`` first and then
        run again."""
        before = set(segment_sizes(self.root))
        expected = [key for key, copies in self.old.items() if copies]
        if cut is not None:
            real, calls = migration.pack_entry, []

            def cut_short(*args):
                if len(calls) == cut:
                    raise Interrupted
                calls.append(1)
                return real(*args)

            migration.pack_entry = cut_short
            try:
                migration.migrate(self.root)
            except Interrupted:
                pass
            finally:
                migration.pack_entry = real
        migration.migrate(self.root)
        assert not list(self.root.glob("*/*/*.json")), "schema-1 files left behind"
        self.old.clear()
        for path in set(segment_sizes(self.root)) - before:
            data = path.read_bytes()
            offset = 0
            for line1, line2 in zip(*[iter(data.split(b"\n")[:-1])] * 2):
                size = len(line1) + len(line2) + 2
                key = self.keys_by_fp[line1[11:23].decode()]
                self.copies.setdefault(key, []).append((path, offset, size))
                offset += size
        fresh = ResultStore(self.root)
        try:
            for key in expected:
                section, _, result = keyed_results()[key]
                got = get(fresh, key)
                assert got is not None and encoded(section, got) == encoded(section, result), key
                assert self.copies.get(key), key
        finally:
            fresh.close()

    @invariant()
    def a_fresh_store_serves_every_intact_entry(self):
        fresh = ResultStore(self.root)
        try:
            for key, (section, _, result) in keyed_results().items():
                got = get(fresh, key)
                if self.copies.get(key):  # schema-1 copies serve after a migrate
                    assert got is not None, key
                if got is not None:
                    assert encoded(section, got) == encoded(section, result)
        finally:
            fresh.close()


TwoStores.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_two_stores_on_one_root = TwoStores.TestCase
