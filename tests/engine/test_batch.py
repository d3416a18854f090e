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

import pytest

from repro.engine import (
    MAX_BATCH_SLOTS,
    BatchCell,
    EngineConfig,
    IntervalEngine,
    solve_batch,
)
from repro.engine.batch import batchable
from repro.engine.interval import LLC_POLICIES
from repro.errors import EngineError
from repro.machine.spec import small_test_machine, xeon_e5_4650
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
