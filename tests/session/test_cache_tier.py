"""The Session's one scenario cache tier.

Every cacheable scenario, the paper's 2-app pairs included, lives in
one memory map keyed by ``(engine fingerprint, canonical Scenario)``
and is counted by one ``scenario_{hits,misses,disk_hits}`` triple,
once per lookup.  On disk, the store alone places each shape: plain
pairs stay in its ``corun/`` section (where every store written so far
keeps them) and every other shape lives in ``scenario/``.
"""

import json
import os
from dataclasses import fields

import pytest

import repro.engine
from repro.core import ExperimentConfig
from repro.core.provenance import GEMINI_APPS
from repro.errors import ScenarioError
from repro.session import AppPlacement, CacheStats, Scenario, Session
from repro.store import ResultStore
from repro.store.codec import encode_scenario_result
from repro.telemetry import tracer as tracer_mod
from repro.telemetry.export import read_spans
from repro.workloads.registry import get_profile

SUBSET = ("G-CC", "fotonik3d", "swaptions", "Stream")

PAIR = Scenario.pair("G-CC", "Stream", threads=2)
THREE_WAY = Scenario.of("G-CC:1", "Stream:1", "swaptions:1")

#: (id, scenario, the store section its result persists in)
SHAPES = [
    ("pair", PAIR, "corun"),
    ("pair-uneven-threads", Scenario.pair("G-CC", "Stream", threads=2, bg_threads=1), "corun"),
    ("pair-even-llc", PAIR.with_policy("even"), "corun"),
    ("pair-smt", PAIR.with_smt(), "corun"),
    ("pair-way-masks", PAIR.with_ways([0xF0, 0x0F]), "scenario"),
    ("pair-pinned", PAIR.with_pinning([(0, 1), None]), "scenario"),
    ("three-way", THREE_WAY, "scenario"),
]
#: A pair with an in-band profile: no stable identity, never cached.
INBAND = Scenario(
    (AppPlacement("G-CC", 2), AppPlacement("balloon", 2, profile=get_profile("Stream")))
)


def make_config() -> ExperimentConfig:
    return ExperimentConfig(workloads=SUBSET, jitter=0.0, threads=2)


def encoded(result) -> str:
    return json.dumps(encode_scenario_result(result.result), sort_keys=True)


def sections(store: ResultStore) -> tuple[int, int]:
    counts = store.describe()
    return counts["corun_entries"], counts["scenario_entries"]


class TestCounters:
    def test_one_counter_triple_per_cache(self):
        names = [f.name for f in fields(CacheStats)]
        assert names == [
            "solo_hits", "solo_misses", "solo_disk_hits",
            "scenario_hits", "scenario_misses", "scenario_disk_hits",
        ]
        assert list(CacheStats().snapshot()) == names

    @pytest.mark.parametrize("engine_batch", [True, False], ids=["batch", "scalar"])
    def test_a_cold_pass_counts_each_lookup_once(self, engine_batch):
        # Two distinct cells miss; the repeated pair is one memory hit
        # (served by the pass that solves it), never a second count.
        session = Session(make_config(), engine_batch=engine_batch)
        session.run_scenarios([PAIR, THREE_WAY, PAIR])
        stats = session.stats
        assert (stats.scenario_misses, stats.scenario_hits, stats.scenario_disk_hits) == (
            2, 1, 0,
        )

    def test_a_lone_miss_is_solved_by_the_scalar_engine(self, monkeypatch):
        # The pair's two missing solo references are solved together,
        # as one batch of 1-app cells; the one missing cell itself never
        # reaches solve_batch.
        solve_batch = repro.engine.solve_batch
        widths = []

        def recording(engine, cells):
            widths.append([len(cell.profiles) for cell in cells])
            return solve_batch(engine, cells)

        monkeypatch.setattr(repro.engine, "solve_batch", recording)
        session = Session(make_config())
        fanned = session.run_scenarios([PAIR, PAIR])
        assert (session.stats.scenario_misses, session.stats.scenario_hits) == (1, 1)
        assert fanned[0].result is fanned[1].result
        assert widths == [[1, 1]]


@pytest.fixture
def telemetry_dir(tmp_path):
    """Tracing on for one test; the process-wide tracer state it found
    is put back afterwards."""
    saved_env = os.environ.pop(tracer_mod.ENV_VAR, None)
    saved = tracer_mod._tracer
    root = tmp_path / "telemetry"
    tracer_mod.enable(root)
    yield root
    tracer_mod.disable()
    tracer_mod._tracer = saved
    if saved_env is not None:
        os.environ[tracer_mod.ENV_VAR] = saved_env


def test_run_scenario_span_names_the_tier_that_served(tmp_path, telemetry_dir):
    cold = Session(make_config(), store=ResultStore(tmp_path / "st"))
    cold.run_scenario(PAIR)  # simulated
    cold.run_scenario(PAIR)  # the same session's memory
    Session(make_config(), store=ResultStore(tmp_path / "st")).run_scenario(PAIR)
    tracer_mod.disable()
    tiers = [
        span["tags"]["tier"]
        for span in read_spans(telemetry_dir)
        if span["name"] == "session.run_scenario"
    ]
    assert tiers == ["engine", "memory", "disk"]


@pytest.mark.parametrize(
    "scenario, section", [s[1:] for s in SHAPES], ids=[s[0] for s in SHAPES]
)
class TestEveryShape:
    def test_one_memory_entry_serves_both_entry_points(self, scenario, section):
        session = Session(make_config())
        first = session.run_scenario(scenario)
        fanned = session.run_scenarios([scenario, scenario])
        assert session.stats.scenario_misses == 1
        assert session.stats.scenario_hits == 2
        assert all(r.result is first.result for r in fanned)

    def test_persists_in_its_section_and_serves_a_cold_process(
        self, tmp_path, scenario, section
    ):
        writer = Session(make_config(), store=ResultStore(tmp_path / "st"))
        first = writer.run_scenario(scenario)
        assert writer.scenario_identity(scenario)[2] == section
        assert sections(writer.store) == ((1, 0) if section == "corun" else (0, 1))
        reader = Session(make_config(), store=ResultStore(tmp_path / "st"))
        again = reader.run_scenario(scenario)
        assert reader.stats.scenario_misses == 0
        assert reader.stats.scenario_disk_hits == 1
        assert encoded(again) == encoded(first)


class TestStoreRouting:
    """The store places each shape itself: a caller hands
    :meth:`ResultStore.put_scenario` / :meth:`ResultStore.get_scenario`
    any cacheable scenario."""

    @pytest.mark.parametrize(
        "scenario, section", [s[1:] for s in SHAPES], ids=[s[0] for s in SHAPES]
    )
    def test_put_and_get_scenario_place_each_shape(self, tmp_path, scenario, section):
        session = Session(make_config())
        engine_fp = session.scenario_identity(scenario)[0]
        result = session.run_scenario(scenario).result
        ResultStore(tmp_path / "st").put_scenario(engine_fp, scenario, result)
        store = ResultStore(tmp_path / "st")
        assert sections(store) == ((1, 0) if section == "corun" else (0, 1))
        want = json.dumps(encode_scenario_result(result))
        assert json.dumps(encode_scenario_result(store.get_scenario(engine_fp, scenario))) == want
        if section == "corun":
            pair = scenario.corun_key()
            assert store.get_corun(engine_fp, *pair) == store.get_scenario(engine_fp, scenario)

    def test_an_in_band_scenario_raises_from_both_calls(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        result = Session(make_config()).run_scenario(INBAND).result
        with pytest.raises(ScenarioError):
            store.get_scenario("feedbeef0001", INBAND)
        with pytest.raises(ScenarioError):
            store.put_scenario("feedbeef0001", INBAND, result)
        assert sections(store) == (0, 0)


class TestOneTier:
    def test_default_policy_named_explicitly_shares_the_pair_entry(self, tmp_path):
        session = Session(make_config(), store=ResultStore(tmp_path / "st"))
        implicit = session.run_scenario(PAIR)
        named = session.run_scenario(
            PAIR.with_policy(session.config.engine_config.llc_policy)
        )
        assert named.result is implicit.result
        assert session.stats.scenario_misses == 1
        assert session.stats.scenario_hits == 1
        assert sections(session.store) == (1, 0)

    def test_a_disk_hit_is_counted_once_then_memory_serves(self, tmp_path):
        Session(make_config(), store=ResultStore(tmp_path / "st")).run_scenarios(
            [PAIR, THREE_WAY]
        )
        warm = Session(make_config(), store=ResultStore(tmp_path / "st"))
        warm.run_scenarios([PAIR, THREE_WAY, PAIR])
        assert warm.stats.scenario_misses == 0
        assert warm.stats.scenario_disk_hits == 2
        assert warm.stats.scenario_hits == 1  # the repeated pair
        warm.run_scenario(PAIR)
        assert warm.stats.scenario_disk_hits == 2
        assert warm.stats.scenario_hits == 2

    def test_an_in_band_pair_is_never_cached(self, tmp_path):
        # An in-band profile has no stable identity: such a pair moves
        # no scenario counter, writes no store entry, and simulates on
        # every call (to the same bytes).
        assert INBAND.corun_key() is None
        session = Session(make_config(), store=ResultStore(tmp_path / "st"))
        first = session.run_scenario(INBAND)
        second = session.run_scenario(INBAND)
        assert second.result is not first.result
        assert encoded(second) == encoded(first)
        snap = session.stats.snapshot()
        assert [snap[f"scenario_{c}"] for c in ("hits", "misses", "disk_hits")] == [0, 0, 0]
        assert sections(session.store) == (0, 0)


class TestPairClients:
    """The artifacts that measure single pairs go through the same tier."""

    def test_provenance_pairs_persist_in_the_corun_section(self, tmp_path):
        config = ExperimentConfig(jitter=0.0)
        writer = Session(config, store=ResultStore(tmp_path / "st"))
        first = writer.run("fig7").result
        assert sections(writer.store) == (len(GEMINI_APPS), 0)
        reader = Session(config, store=ResultStore(tmp_path / "st"))
        again = reader.run("fig7").result
        assert reader.stats.scenario_misses == 0
        assert reader.stats.scenario_disk_hits == len(GEMINI_APPS)
        assert again.cells == first.cells

    def test_efficiency_reads_its_pair_from_the_tier(self):
        session = Session(make_config())
        session.run_scenario(Scenario.pair("G-CC", "fotonik3d", threads=2))
        before = session.stats.snapshot()
        got = session.run("efficiency", pairs=(("G-CC", "fotonik3d"),)).result
        delta = session.stats.delta_since(before)
        assert (delta["scenario_misses"], delta["scenario_hits"]) == (0, 1)
        fresh = Session(make_config()).run("efficiency", pairs=(("G-CC", "fotonik3d"),))
        assert got.rows == fresh.result.rows
