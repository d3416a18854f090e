"""Batch engine contract: ``solve_batch`` is bit-identical to per-cell
``scenario_run``.

The scalar solver stays the oracle: every test stacks a handful of
cells, solves them in one batch, and asserts the *encoded*
``ScenarioRunResult`` payloads (the exact bytes the store persists)
match the scalar path's — across LLC policies, CAT way masks, core
pinning, SMT specs, looping backgrounds and asymmetric thread counts.
Cells the array layout cannot represent (> MAX_BATCH_SLOTS apps) must
silently take the scalar fallback inside the same call.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExperimentConfig
from repro.engine import (
    MAX_BATCH_SLOTS,
    BatchCell,
    EngineConfig,
    IntervalEngine,
    LazyTimeline,
    solve_batch,
)
from repro.engine.batch import _seq_sum, batchable
from repro.engine.interval import LLC_POLICIES
from repro.errors import EngineError
from repro.machine.spec import small_test_machine, xeon_e5_4650
from repro.session import ParallelExecutor, ScenarioSet, Session
from repro.session.executors import MIN_PARALLEL_CELLS
from repro.store.codec import encode_scenario_result
from repro.workloads.registry import get_profile

APPS = ("G-CC", "Stream", "fotonik3d", "swaptions", "nab", "IRSmk", "Bandit")


def cell(*names, threads=2, llc_ways=None, pinnings=None):
    return BatchCell(
        profiles=tuple(get_profile(n) for n in names),
        threads=(threads,) * len(names) if isinstance(threads, int) else tuple(threads),
        llc_ways=llc_ways,
        pinnings=pinnings,
    )


def scalar(engine, c):
    return engine.scenario_run(
        list(c.profiles),
        list(c.threads),
        fg_solo_runtime_s=c.fg_solo_runtime_s,
        bg_solo_rates=list(c.bg_solo_rates) if c.bg_solo_rates is not None else None,
        llc_ways=list(c.llc_ways) if c.llc_ways is not None else None,
        pinnings=list(c.pinnings) if c.pinnings is not None else None,
        max_dt=c.max_dt,
    )


def canon(res):
    """The exact bytes the store would persist for a result."""
    return json.dumps(encode_scenario_result(res), sort_keys=True)


def assert_batch_matches_scalar(engine, cells):
    batched = solve_batch(engine, cells)
    assert len(batched) == len(cells)
    for c, got in zip(cells, batched):
        assert canon(got) == canon(scalar(engine, c))


@pytest.fixture(scope="module")
def engine():
    return IntervalEngine(spec=xeon_e5_4650())


class TestBitIdentity:
    @pytest.mark.parametrize("policy", LLC_POLICIES)
    def test_pairwise_sweep_under_every_policy(self, policy):
        eng = IntervalEngine(
            spec=xeon_e5_4650(), config=EngineConfig(llc_policy=policy)
        )
        cells = [cell(fg, bg) for fg in APPS[:3] for bg in APPS[:3]]
        assert_batch_matches_scalar(eng, cells)

    def test_cat_way_masks(self, engine):
        cells = [
            cell("G-CC", "Stream", llc_ways=(0xF0, 0x0F)),  # disjoint
            cell("G-CC", "Stream", llc_ways=(0xFF, 0xFF)),  # full overlap
            cell("fotonik3d", "Bandit", llc_ways=(0x3F, None)),  # partial
        ]
        assert_batch_matches_scalar(engine, cells)

    def test_pinning_shares_and_spreads(self, engine):
        cells = [
            cell("G-CC", "Stream", threads=1, pinnings=((0,), (4,))),
            cell("swaptions", "nab", threads=2, pinnings=((0, 1), (2, 3))),
        ]
        assert_batch_matches_scalar(engine, cells)

    def test_pinning_shared_smt_core(self):
        # Two apps deliberately pinned onto core 0's two hardware
        # threads share its pipeline (needs the SMT spec variant).
        eng = IntervalEngine(spec=xeon_e5_4650().smt_variant())
        cells = [
            cell("G-CC", "Stream", threads=1, pinnings=((0,), (0,))),
            cell("G-CC", "Stream", threads=1, pinnings=((0,), (4,))),
        ]
        assert_batch_matches_scalar(eng, cells)

    def test_smt_spec_variant(self):
        eng = IntervalEngine(spec=xeon_e5_4650().smt_variant())
        cells = [cell("G-CC", "Stream"), cell("fotonik3d", "swaptions", threads=4)]
        assert_batch_matches_scalar(eng, cells)

    def test_small_machine_spec(self):
        eng = IntervalEngine(spec=small_test_machine())
        cells = [cell("G-CC", "Stream", threads=1), cell("nab", "IRSmk", threads=1)]
        assert_batch_matches_scalar(eng, cells)

    def test_looping_backgrounds_nway(self, engine):
        # 3-way consolidations: short backgrounds loop for as long as
        # the foreground runs, exercising the step/reset transitions.
        cells = [
            cell("G-CC", "Stream", "swaptions", threads=2),
            cell("swaptions", "G-CC", "Stream", threads=2),
            cell("Stream", "swaptions", "G-CC", threads=2),
        ]
        assert_batch_matches_scalar(engine, cells)

    def test_single_app_and_asymmetric_threads(self, engine):
        cells = [
            cell("G-CC", threads=4),
            cell("G-CC", "Stream", threads=(4, 1)),
            cell("fotonik3d", "nab", "Bandit", threads=(2, 1, 1)),
        ]
        assert_batch_matches_scalar(engine, cells)

    def test_dense_seven_way_cells(self, engine):
        # The widest representable cell: MAX_BATCH_SLOTS apps, 1 thread
        # each (the consolidation-table shape the bench times).
        assert len(APPS) == MAX_BATCH_SLOTS
        cells = [cell(*APPS, threads=1), cell(*reversed(APPS), threads=1)]
        assert all(batchable(c) for c in cells)
        assert_batch_matches_scalar(engine, cells)


    def test_mixed_widths_in_one_call_match_each_alone(self, engine):
        """2-, 3- and 7-app cells padded into one call give the bytes each
        gives alone and the scalar solver gives."""
        cells = [
            cell("G-CC", "Stream", threads=4),
            cell("fotonik3d", "nab", "Bandit", threads=2),
            cell(*APPS, threads=1),
            cell("swaptions", "IRSmk", threads=(1, 3)),
        ]
        together = solve_batch(engine, cells)
        for c, got in zip(cells, together):
            [alone] = solve_batch(engine, [c])
            assert canon(got) == canon(alone) == canon(scalar(engine, c))


#: Non-negative finite float64 values, subnormals to huge (no -0.0).
_SLOT_VALUES = st.floats(min_value=0.0, max_value=1e300, allow_nan=False)


@st.composite
def _slot_rows(draw):
    """Rows of 1-7 slots and a mask: random, all true or all false."""
    width = draw(st.integers(1, MAX_BATCH_SLOTS))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_SLOT_VALUES, min_size=width, max_size=width),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(("random", "all", "none")))
    if kind == "random":
        mask = draw(st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                             min_size=n, max_size=n))
    else:
        mask = [[kind == "all"] * width for _ in range(n)]
    return rows, mask


class TestSlotSums:
    @settings(max_examples=300, deadline=None)
    @given(_slot_rows())
    def test_accumulate_equals_python_sum_bit_for_bit(self, rows_mask):
        rows, mask = rows_mask
        got = _seq_sum(np.array(rows, dtype=np.float64), np.array(mask)).tolist()
        want = [
            float(sum(v for v, live in zip(row, live_row) if live))
            for row, live_row in zip(rows, mask)
        ]
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestEngineTimelines:
    """A batch result keeps its timeline as rows until something reads it."""

    CELLS = (("G-CC", "Stream"), ("G-CC", "G-CC"), ("fotonik3d", "nab", "Bandit"))

    def test_rows_encode_alike_read_or_not_and_equal_the_scalar_list(self, engine):
        cells = [cell(*names) for names in self.CELLS]
        unread, read = solve_batch(engine, cells), solve_batch(engine, cells)
        for c, a, b in zip(cells, unread, read):
            assert isinstance(a.timeline, LazyTimeline)
            assert not isinstance(a.timeline, list)
            want = scalar(engine, c).timeline
            assert isinstance(want, list)
            assert list(b.timeline) == want  # b decoded before encoding
            assert canon(a) == canon(b) == canon(scalar(engine, c))
            assert a.timeline == want and want == a.timeline
            assert len(a.timeline) == len(want) and a.timeline[-1] == want[-1]

    def test_repeated_names_keep_the_scalar_dict(self, engine):
        c = cell("G-CC", "G-CC", threads=(4, 2))  # one name, two rates
        [got] = solve_batch(engine, [c])
        assert list(got.timeline[0].bytes_per_s) == ["G-CC"]
        assert got.timeline == scalar(engine, c).timeline

    def test_timelines_survive_the_process_pool(self):
        config = ExperimentConfig(workloads=("G-CC", "fotonik3d", "swaptions", "nab"), jitter=0.0)
        sweep = ScenarioSet.pairwise(config.workloads, threads=4)
        assert len(sweep) >= MIN_PARALLEL_CELLS
        pooled = Session(config, executor=ParallelExecutor(max_workers=2)).run_scenarios(sweep)
        scalars = Session(config, engine_batch=False).run_scenarios(sweep)
        for p, q in zip(pooled, scalars):
            assert isinstance(p.result.timeline, LazyTimeline)
            assert canon(p.result) == canon(q.result)
            assert p.result.timeline == q.result.timeline
            again = pickle.loads(pickle.dumps(p.result))
            assert canon(again) == canon(q.result)


class TestFallbackAndErrors:
    def test_empty_batch(self, engine):
        assert solve_batch(engine, []) == []

    def test_oversized_cell_takes_scalar_fallback(self):
        # 8 single-thread apps fit the spec's 8 slots but not the batch
        # layout (MAX_BATCH_SLOTS=7): the cell must fall back, inside
        # the same call, with identical bits.
        eng = IntervalEngine(spec=xeon_e5_4650())
        wide = cell(*(APPS + ("G-PR",)), threads=1)
        assert not batchable(wide)
        mixed = [cell("G-CC", "Stream"), wide, cell("nab", "IRSmk")]
        assert_batch_matches_scalar(eng, mixed)

    def test_empty_profiles_rejected(self, engine):
        with pytest.raises(EngineError):
            solve_batch(engine, [BatchCell(profiles=(), threads=())])

    def test_mismatched_threads_rejected(self, engine):
        with pytest.raises(EngineError):
            solve_batch(
                engine,
                [
                    BatchCell(
                        profiles=(get_profile("G-CC"), get_profile("Stream")),
                        threads=(2,),
                    )
                ],
            )

    def test_overcommitted_cell_rejected(self, engine):
        with pytest.raises(EngineError):
            solve_batch(engine, [cell("G-CC", "Stream", threads=8)])



SPEC = xeon_e5_4650()
GCC, STREAM = get_profile("G-CC"), get_profile("Stream")

#: (id, malformed cell, a fragment of the message both paths raise)
MALFORMED = [
    ("no-apps", BatchCell(profiles=(), threads=()), "at least one application"),
    ("thread-count-mismatch", BatchCell(profiles=(GCC, STREAM), threads=(2,)), "thread counts"),
    ("zero-thread-app", cell("G-CC", "Stream", threads=(2, 0)), "at least one thread"),
    ("threads-over-slots", cell("G-CC", "Stream", threads=(4, SPEC.n_slots - 3)), "hardware threads"),
    ("way-mask-past-llc", cell("G-CC", "Stream", llc_ways=(1 << SPEC.llc_ways, None)), "exceeds the LLC"),
    ("pin-outside-spec", cell("G-CC", "Stream", pinnings=((SPEC.n_cores,), None)), "outside [0, "),
    (
        "wrong-bg-solo-rate-count",
        BatchCell(
            profiles=(GCC, STREAM),
            threads=(2, 2),
            fg_solo_runtime_s=1.0,
            bg_solo_rates=(1.0, 1.0),
        ),
        "solo rates",
    ),
]


@pytest.mark.parametrize(
    "bad, fragment", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_scalar_and_batch_reject_a_malformed_cell_alike(engine, bad, fragment):
    # One copy of the scenario checks: both entry points raise the
    # same error, wherever the bad cell sits in a batch.
    with pytest.raises(EngineError) as scalar_err:
        scalar(engine, bad)
    with pytest.raises(EngineError) as batch_err:
        solve_batch(engine, [cell("G-CC", "Stream"), bad])
    assert fragment in str(scalar_err.value)
    assert str(batch_err.value) == str(scalar_err.value)
