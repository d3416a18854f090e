"""Tests for the traffic model: determinism, the thinning shape, the
conditional-draw contract, model files, and the spec grammar."""

import json

import pytest

from repro.errors import SchedError, TrafficError
from repro.sched.trace import parse_trace
from repro.traffic import (
    DiurnalCurve,
    TrafficModel,
    WorkloadComponent,
    WorkloadMix,
    generate_from_file,
    load_model,
    parse_diurnal,
    trace_stats,
)

ROSTER = ("alpha", "beta", "gamma")


def day_model(**kwargs) -> TrafficModel:
    defaults = dict(mix=WorkloadMix.uniform(ROSTER))
    defaults.update(kwargs)
    return TrafficModel(**defaults)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = day_model().generate(seed=3)
        b = day_model().generate(seed=3)
        assert json.dumps(a.payload()) == json.dumps(b.payload())

    def test_different_seed_differs(self):
        a = day_model().generate(seed=3)
        b = day_model().generate(seed=4)
        assert a.payload() != b.payload()

    def test_tenant_ids_follow_time_order(self):
        trace = day_model().generate(seed=0)
        ids = [e.tenant for e in trace.arrivals]
        assert ids == [f"u{i:04d}" for i in range(len(ids))]


class TestShape:
    def test_peak_hour_at_least_3x_trough(self):
        trace = day_model().generate(seed=0)
        stats = trace_stats(trace, bucket_s=60.0)
        assert stats.peak_over_trough >= 3.0

    def test_flat_curve_fills_the_day_evenly(self):
        model = day_model(curve=DiurnalCurve.flat(1.0), rate_per_hour=20.0)
        trace = model.generate(seed=1)
        stats = trace_stats(trace, bucket_s=60.0)
        # ~20 per hour; no hour should be empty on a flat curve.
        assert all(h.arrivals > 0 for h in stats.hours)

    def test_hours_bounds_the_span(self):
        model = day_model(curve=DiurnalCurve.flat(1.0), rate_per_hour=30.0)
        trace = model.generate(seed=0, hours=2.0)
        assert max(e.time_s for e in trace) < 2 * 60.0

    def test_scale_stretches_simulated_time(self):
        slow = day_model(curve=DiurnalCurve.business_hours(30.0))
        trace = slow.generate(seed=0)
        # Half the scale factor -> twice the simulated day (2880 s).
        assert max(e.time_s for e in trace) > 1440.0


class TestConditionalDraws:
    def test_hints_and_gaps_off_leave_the_stream_unchanged(self):
        # Propensity/gap knobs at zero must consume no extra draws: the
        # arrival times of the plain mix are reproduced exactly.
        plain = day_model().generate(seed=5)
        explicit = TrafficModel(
            mix=WorkloadMix(
                tuple(
                    WorkloadComponent(
                        workload=w, gap_s=0.0,
                        cat_propensity=0.0, pin_propensity=0.0,
                    )
                    for w in ROSTER
                )
            ),
        ).generate(seed=5)
        assert json.dumps(plain.payload()) == json.dumps(explicit.payload())

    def test_propensities_stamp_hints(self):
        model = TrafficModel(
            mix=WorkloadMix(
                (
                    WorkloadComponent(workload="alpha", cat_propensity=1.0),
                    WorkloadComponent(workload="beta", pin_propensity=1.0),
                )
            ),
        )
        trace = model.generate(seed=0)
        for e in trace.arrivals:
            assert e.hint == ("cat" if e.workload == "alpha" else "pin")

    def test_gap_enforces_per_workload_spacing(self):
        model = TrafficModel(
            mix=WorkloadMix(
                (WorkloadComponent(workload="alpha", gap_s=30.0),)
            ),
            curve=DiurnalCurve.flat(1.0),
            rate_per_hour=60.0,
        )
        trace = model.generate(seed=2, hours=4.0)
        times = [e.time_s for e in trace.arrivals]
        assert times == sorted(times)
        # The deferral throttles the offered one-per-minute stream: the
        # same knobs without a gap admit far more arrivals.
        no_gap = TrafficModel(
            mix=WorkloadMix(
                (WorkloadComponent(workload="alpha"),)
            ),
            curve=DiurnalCurve.flat(1.0),
            rate_per_hour=60.0,
        ).generate(seed=2, hours=4.0)
        assert len(trace.arrivals) < len(no_gap.arrivals) / 2

    def test_departures_fraction_adds_departures(self):
        trace = day_model(departures=0.4).generate(seed=1)
        arrivals = len(trace.arrivals)
        departures = len(trace) - arrivals
        assert departures == round(0.4 * arrivals)


class TestErrors:
    def test_zero_arrivals_is_an_error(self):
        with pytest.raises(TrafficError, match="no arrivals"):
            day_model(rate_per_hour=0.001).generate(seed=0, hours=0.01)

    def test_bad_knobs_refused(self):
        with pytest.raises(TrafficError, match="rate_per_hour"):
            day_model(rate_per_hour=0)
        with pytest.raises(TrafficError, match="departures"):
            day_model(departures=1.5)
        with pytest.raises(TrafficError, match="hours"):
            day_model().generate(seed=0, hours=0)


class TestRoundTripAndFiles:
    def test_model_payload_round_trips(self):
        model = day_model(rate_per_hour=9.0, departures=0.25)
        again = TrafficModel.from_payload(json.loads(json.dumps(model.payload())))
        assert again == model

    def test_file_round_trip_and_file_seed(self, tmp_path):
        model = day_model(rate_per_hour=12.0)
        path = tmp_path / "model.json"
        payload = model.payload()
        payload["seed"] = 5
        payload["hours"] = 2.0
        path.write_text(json.dumps(payload))
        assert load_model(path) == (model, 5, 2.0)
        assert load_model(path, seed=9, hours=1.0) == (model, 9, 1.0)
        from_file = generate_from_file(path)
        assert json.dumps(from_file.payload()) == json.dumps(
            model.generate(seed=5, hours=2.0).payload()
        )
        # Explicit arguments beat the file's defaults.
        override = generate_from_file(path, seed=9, hours=1.0)
        assert json.dumps(override.payload()) == json.dumps(
            model.generate(seed=9, hours=1.0).payload()
        )

    def test_unreadable_model_raises(self, tmp_path):
        with pytest.raises(TrafficError, match="cannot read"):
            load_model(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(TrafficError, match="JSON object"):
            load_model(bad)


class TestSpecGrammar:
    def test_parse_diurnal_matches_default_model(self):
        by_spec = parse_diurnal("diurnal:4", ROSTER)
        by_model = TrafficModel(
            mix=WorkloadMix.uniform(ROSTER),
            curve=DiurnalCurve.business_hours(),
        ).generate(seed=4, hours=24.0)
        assert json.dumps(by_spec.payload()) == json.dumps(by_model.payload())

    def test_parse_trace_routes_diurnal_specs(self):
        via_sched = parse_trace("diurnal:4:6:30", ROSTER)
        direct = parse_diurnal("diurnal:4:6:30", ROSTER)
        assert json.dumps(via_sched.payload()) == json.dumps(direct.payload())

    def test_bad_diurnal_spec(self):
        with pytest.raises(TrafficError, match="diurnal:S"):
            parse_diurnal("diurnal:x", ROSTER)

    def test_seed_spec_still_works(self):
        trace = parse_trace("seed:0:4", ROSTER)
        assert len(trace.arrivals) == 4


class TestHintField:
    def test_hint_round_trips_and_stays_out_when_empty(self):
        from repro.sched.trace import ArrivalTrace, TraceEvent

        hinted = TraceEvent(
            time_s=0.0, kind="arrival", tenant="t0",
            workload="alpha", threads=2, solo_s=1.0, hint="cat",
        )
        plain = TraceEvent(
            time_s=1.0, kind="arrival", tenant="t1",
            workload="beta", threads=2, solo_s=1.0,
        )
        assert hinted.payload()["hint"] == "cat"
        assert "hint" not in plain.payload()
        trace = ArrivalTrace((hinted, plain))
        again = ArrivalTrace.from_payload(json.loads(json.dumps(trace.payload())))
        assert again.events[0].hint == "cat"
        assert again.events[1].hint == ""

    def test_unknown_hint_refused(self):
        from repro.sched.trace import TraceEvent

        with pytest.raises(SchedError, match="hint"):
            TraceEvent(
                time_s=0.0, kind="arrival", tenant="t0",
                workload="alpha", threads=2, solo_s=1.0, hint="numa",
            )
