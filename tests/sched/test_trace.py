"""Tests for deterministic arrival traces."""

import json

import pytest

from repro.errors import SchedError
from repro.sched import ArrivalTrace, TraceEvent, load_trace, parse_trace

ROSTER = ("G-CC", "fotonik3d", "swaptions")


def arrival(t, tid, workload="G-CC", threads=2, solo_s=5.0) -> TraceEvent:
    return TraceEvent(
        time_s=t, kind="arrival", tenant=tid,
        workload=workload, threads=threads, solo_s=solo_s,
    )


class TestTraceEvent:
    def test_validation(self):
        with pytest.raises(SchedError):
            TraceEvent(time_s=0.0, kind="teleport", tenant="t0")
        with pytest.raises(SchedError):
            arrival(-1.0, "t0")
        with pytest.raises(SchedError):
            arrival(0.0, "t0", workload="")
        with pytest.raises(SchedError):
            arrival(0.0, "t0", threads=0)
        with pytest.raises(SchedError):
            arrival(0.0, "t0", solo_s=0.0)
        # Departures carry no shape.
        TraceEvent(time_s=1.0, kind="departure", tenant="t0")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_times_rejected(self, value):
        with pytest.raises(SchedError, match="finite"):
            arrival(value, "t0")
        with pytest.raises(SchedError, match="finite"):
            arrival(0.0, "t0", solo_s=value)
        with pytest.raises(SchedError, match="finite"):
            TraceEvent(time_s=value, kind="departure", tenant="t0")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["time_s", "solo_s"])
    def test_trace_file_with_non_finite_numbers_rejected(self, tmp_path, token, field):
        event = {"time_s": 0.0, "kind": "arrival", "tenant": "t0",
                 "workload": "G-CC", "threads": 2, "solo_s": 5.0}
        text = json.dumps({"events": [event]}).replace(
            f'"{field}": {event[field]}', f'"{field}": {token}'
        )
        assert token in text
        path = tmp_path / "trace.json"
        path.write_text(text)
        with pytest.raises(SchedError, match="finite"):
            load_trace(path)

    def test_payload_round_trip(self):
        e = arrival(1.25, "t0")
        assert TraceEvent.from_payload(e.payload()) == e
        d = TraceEvent(time_s=2.0, kind="departure", tenant="t0")
        assert set(d.payload()) == {"time_s", "kind", "tenant"}
        assert TraceEvent.from_payload(d.payload()) == d


class TestArrivalTrace:
    def test_ordering_and_identity_validation(self):
        with pytest.raises(SchedError):
            ArrivalTrace(())
        with pytest.raises(SchedError):
            ArrivalTrace((arrival(2.0, "a"), arrival(1.0, "b")))
        with pytest.raises(SchedError):
            ArrivalTrace((arrival(1.0, "a"), arrival(2.0, "a")))
        with pytest.raises(SchedError):
            ArrivalTrace(
                (TraceEvent(time_s=1.0, kind="departure", tenant="ghost"),)
            )

    def test_synthetic_is_deterministic(self):
        a = ArrivalTrace.synthetic(ROSTER, seed=3, arrivals=8)
        b = ArrivalTrace.synthetic(ROSTER, seed=3, arrivals=8)
        assert a == b
        assert a.fingerprint == b.fingerprint
        assert len(a.arrivals) == 8
        assert ArrivalTrace.synthetic(ROSTER, seed=4, arrivals=8) != a
        assert {e.workload for e in a} <= set(ROSTER)

    def test_file_round_trip(self, tmp_path):
        trace = ArrivalTrace.synthetic(ROSTER, seed=1, arrivals=5)
        path = trace.to_json(tmp_path / "trace.json")
        assert load_trace(path) == trace
        with pytest.raises(SchedError):
            load_trace(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text("[]")
        with pytest.raises(SchedError):
            load_trace(tmp_path / "bad.json")

    def test_parse_trace_specs(self, tmp_path):
        t = parse_trace("seed:2:5:4", ROSTER)
        assert len(t.arrivals) == 5
        assert all(e.threads == 4 for e in t.arrivals)
        assert t == ArrivalTrace.synthetic(ROSTER, seed=2, arrivals=5, threads=4)
        with pytest.raises(SchedError):
            parse_trace("seed:x:5", ROSTER)
        path = ArrivalTrace.synthetic(ROSTER, seed=0).to_json(tmp_path / "t.json")
        assert parse_trace(str(path), ROSTER) == load_trace(path)
