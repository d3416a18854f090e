"""The packed cache entry of store schema 2, on generated results.

A packed round trip must be bit-identical for every float (−0.0,
subnormals, ±inf, NaN, the extremes) in solo, pair and scenario results,
with app names that repeat and names JSON must escape, and with
timelines given as sample lists or as the batch engine's rows.  Packing
the read-back result again gives the same bytes, and a timeline whose
samples do not all list the same apps is refused.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.results import (
    AppMetrics,
    BandwidthSample,
    LazyTimeline,
    RegionMetrics,
    ScenarioRunResult,
    SoloRunResult,
)
from repro.store.codec import (
    encode_corun,
    encode_scenario_result,
    encode_solo,
    entry_key,
    pack_entry,
    unpack_entry,
)

ENCODERS = {"solo": encode_solo, "corun": encode_corun, "scenario": encode_scenario_result}
KEY = {"engine_fingerprint": "feedbeef0001", "scenario": {"apps": [["x", 1]]}}

EDGES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 1e-300, 1e300)
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))
NAMES = st.one_of(st.sampled_from(["G-CC", "fotonik3d", "swaptions"]), st.text(max_size=6))


def bits(obj):
    """``obj`` with every float replaced by its IEEE-754 bytes."""
    if isinstance(obj, float):
        return struct.pack("<d", obj).hex()
    if isinstance(obj, dict):
        return [[key, bits(value)] for key, value in obj.items()]
    if isinstance(obj, list):
        return [bits(value) for value in obj]
    return obj


@st.composite
def apps(draw, n):
    out = []
    for _ in range(n):
        regions = draw(st.lists(st.text(max_size=6), max_size=4, unique=True))
        out.append(AppMetrics(
            name=draw(NAMES),
            threads=draw(st.integers(1, 64)),
            runtime_s=draw(FLOATS),
            by_region={r: RegionMetrics(*draw(st.lists(FLOATS, min_size=6, max_size=6)))
                       for r in regions},
        ))
    return out


@st.composite
def timelines(draw, names):
    n = draw(st.integers(0, 5))
    times = draw(st.lists(FLOATS, min_size=n, max_size=n))
    rates = [draw(st.lists(FLOATS, min_size=len(names), max_size=len(names))) for _ in range(n)]
    if draw(st.booleans()):  # the batch engine's rows
        table = np.array(rates, dtype=float).reshape(n, len(names))
        return LazyTimeline((np.array(times, dtype=float), table), names)
    # The scalar solver's samples: a repeated name keeps its first
    # position and its last rate.
    return [BandwidthSample(t, dict(zip(names, row))) for t, row in zip(times, rates)]


@st.composite
def results(draw):
    kind = draw(st.sampled_from(sorted(ENCODERS)))
    members = draw(apps({"solo": 1, "corun": 2}.get(kind) or draw(st.integers(1, 7))))
    timeline = draw(timelines([a.name for a in members]))
    if kind == "solo":
        return kind, SoloRunResult(members[0], timeline)
    rates = draw(st.lists(FLOATS, min_size=len(members) - 1, max_size=len(members) - 1))
    return kind, ScenarioRunResult(members, draw(FLOATS), rates, timeline)


@settings(max_examples=150, deadline=None)
@given(results())
def test_packed_round_trip_is_bit_identical(case):
    kind, result = case
    key, keyfp = entry_key(KEY)
    raw = pack_entry(kind, keyfp, key, result)
    assert raw.count(b"\n") == 2 and raw.endswith(b"\n")
    again = unpack_entry(raw, kind, keyfp, key)
    assert again is not None
    assert type(again) is type(result)
    encode = ENCODERS[kind]
    assert json.dumps(bits(encode(again))) == json.dumps(bits(encode(result)))
    assert isinstance(again.timeline, LazyTimeline)
    assert pack_entry(kind, keyfp, key, again) == raw
    # Every other kind and key misses.
    for other in ENCODERS:
        if other != kind:
            assert unpack_entry(raw, other, keyfp, key) is None
    other_key, other_fp = entry_key(dict(KEY, engine_fingerprint="feedbeef0002"))
    assert unpack_entry(raw, kind, other_fp, other_key) is None


def test_a_timeline_that_is_not_rectangular_is_refused():
    app = AppMetrics("a", 1, 1.0, {})
    ragged = [BandwidthSample(0.0, {"a": 1.0, "b": 2.0}), BandwidthSample(1.0, {"b": 2.0, "a": 1.0})]
    key, keyfp = entry_key(KEY)
    with pytest.raises(ValueError, match="not rectangular"):
        pack_entry("solo", keyfp, key, SoloRunResult(app, ragged))


def test_a_pair_entry_holds_exactly_two_apps():
    """A ``corun`` entry holds a 2-app scenario's numbers: one that
    unpacks to any other number of apps is a miss, though the same
    numbers serve as a ``scenario`` entry."""
    key, keyfp = entry_key(KEY)
    for n in (1, 2, 3):
        result = ScenarioRunResult(
            [AppMetrics(f"app{i}", 1, 1.0, {}) for i in range(n)], 2.0, [0.5] * (n - 1)
        )
        raw = pack_entry("corun", keyfp, key, result)
        assert (unpack_entry(raw, "corun", keyfp, key) is not None) == (n == 2)
        raw = pack_entry("scenario", keyfp, key, result)
        assert unpack_entry(raw, "scenario", keyfp, key) is not None
