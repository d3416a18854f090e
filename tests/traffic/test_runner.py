"""Tests for the ``traffic-replay`` campaign artifact: determinism,
the hourly buckets, the store round-trip, and warm zero-miss."""

import json

import pytest

from repro.core import ExperimentConfig
from repro.errors import TrafficError
from repro.session import Session, get_runner, runner_names
from repro.store import ResultStore
from repro.traffic import TrafficModel, WorkloadMix
from repro.traffic.runner import TrafficReplay

ROSTER = ("G-CC", "fotonik3d", "swaptions")


def make_session(store=None) -> Session:
    return Session(
        ExperimentConfig(workloads=ROSTER, threads=4, jitter=0.0), store=store
    )


def small_kwargs() -> dict:
    # A short, busy window keeps the artifact quick in tests.
    return dict(hours=3.0, rate=40.0, seed=1)


class TestRegistration:
    def test_registered_as_extension(self):
        assert "traffic-replay" in runner_names()
        assert "traffic-replay" not in runner_names(artifact_only=True)

    def test_campaign_cost_is_declared(self):
        from repro.store.campaign import _STATIC_COST

        assert "traffic-replay" in _STATIC_COST


class TestExecute:
    def test_replays_each_policy_with_hourly_buckets(self):
        record = make_session().run("traffic-replay", **small_kwargs())
        result = record.result
        assert isinstance(result, TrafficReplay)
        assert [r.policy for r in result.reports] == ["baseline", "interference"]
        for r in result.reports:
            buckets = result.buckets(r.policy)
            assert buckets == r.hourly(result.bucket_s)
            assert sum(b.arrivals for b in buckets) == len(result.trace.arrivals)

    def test_deterministic_across_sessions(self):
        a = make_session().run("traffic-replay", **small_kwargs()).result
        b = make_session().run("traffic-replay", **small_kwargs()).result
        assert json.dumps(a.payload(), sort_keys=True) == json.dumps(
            b.payload(), sort_keys=True
        )
        for ra, rb in zip(a.reports, b.reports):
            assert ra.decision_log() == rb.decision_log()

    def test_explicit_model_and_traffic_file_are_exclusive(self, tmp_path):
        model = TrafficModel(mix=WorkloadMix.uniform(ROSTER))
        path = tmp_path / "m.json"
        model.to_json(path)
        with pytest.raises(TrafficError, match="not both"):
            make_session().run(
                "traffic-replay", traffic=str(path), model=model
            )

    def test_traffic_file_drives_the_replay(self, tmp_path):
        model = TrafficModel(
            mix=WorkloadMix.uniform(ROSTER), rate_per_hour=40.0
        )
        path = tmp_path / "m.json"
        model.to_json(path)
        result = make_session().run(
            "traffic-replay", traffic=str(path), seed=1, hours=3.0
        ).result
        assert result.model == model
        assert json.dumps(result.trace.payload()) == json.dumps(
            model.generate(seed=1, hours=3.0).payload()
        )

    def test_bad_knobs_refused(self):
        with pytest.raises(TrafficError, match="machines"):
            make_session().run("traffic-replay", machines=0, **small_kwargs())
        with pytest.raises(TrafficError, match="policy"):
            make_session().run(
                "traffic-replay", policies=(), **small_kwargs()
            )


class TestStoreRoundTrip:
    def test_encode_decode_round_trips(self):
        runner = get_runner("traffic-replay")
        result = make_session().run("traffic-replay", **small_kwargs()).result
        payload = json.loads(json.dumps(runner.encode(result)))
        revived = runner.decode(payload)
        assert runner.encode(revived) == runner.encode(result)
        assert revived.buckets("baseline") == result.buckets("baseline")

    def test_warm_store_replays_with_zero_engine_runs(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = make_session(store).run("traffic-replay", **small_kwargs())
        warm_session = make_session(ResultStore(tmp_path / "store"))
        warm = warm_session.run("traffic-replay", **small_kwargs())
        cache = warm.provenance["cache"]
        assert cache.get("scenario_misses", 0) == 0
        assert cache.get("solo_misses", 0) == 0
        assert json.dumps(warm.result.payload(), sort_keys=True) == json.dumps(
            cold.result.payload(), sort_keys=True
        )


class TestRender:
    def test_render_shows_peak_and_trough(self):
        result = make_session().run("traffic-replay", **small_kwargs()).result
        text = result.render()
        assert "traffic replay:" in text
        assert "peak hour" in text and "trough hour" in text
        assert "by hour [baseline]" in text
        assert "by hour [interference]" in text
