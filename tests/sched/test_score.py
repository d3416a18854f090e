"""Tests for the evaluator's keys: layouts and sibling sessions are keyed
through the session's engine-fingerprint memo, so scoring never
re-hashes a machine spec it has already seen."""

from dataclasses import replace

import repro.sched.score as score_mod
import repro.session.session as session_mod
from repro.core import ExperimentConfig
from repro.machine.spec import MachineSpec
from repro.sched import PlacementEvaluator
from repro.session import Session
from repro.session.scenario import AppPlacement, Scenario

ROSTER = ("G-CC", "fotonik3d", "swaptions")
CONFIG = ExperimentConfig(workloads=ROSTER, threads=4, jitter=0.0)

#: Two-app layouts over the roster (the second app at 1 or 2 threads).
LAYOUTS = [
    (AppPlacement(a, 2), AppPlacement(b, t))
    for a in ROSTER
    for b in ROSTER
    if a != b
    for t in (1, 2)
]


def items(spec: MachineSpec, smt: MachineSpec, n: int):
    """``n`` layouts over two machines of ``spec`` and one of ``smt``."""
    machines = (spec, spec, smt)
    return [(machines[i % 3], LAYOUTS[i % len(LAYOUTS)]) for i in range(n)]


def count_spec_hashes(monkeypatch) -> dict[int, int]:
    """Count ``fingerprint`` calls per MachineSpec object, wherever the
    session or the evaluator calls it."""
    counts: dict[int, int] = {}
    real = session_mod.fingerprint

    def counting(*parts):
        for p in parts:
            if isinstance(p, MachineSpec):
                counts[id(p)] = counts.get(id(p), 0) + 1
        return real(*parts)

    monkeypatch.setattr(session_mod, "fingerprint", counting)
    monkeypatch.setattr(score_mod, "fingerprint", counting, raising=False)
    return counts


def test_scoring_hashes_each_spec_once_per_session(monkeypatch):
    session = Session(CONFIG)
    spec = session.spec
    smt = spec.smt_variant()
    counts = count_spec_hashes(monkeypatch)
    evaluator = PlacementEvaluator(session)
    evaluator.slowdowns_many(items(spec, smt, 50))
    # The base spec once (the base session's engine); the SMT spec once
    # as the sibling's key in the base session's memo and once as the
    # sibling session's own engine.  Not once per scored layout.
    assert counts == {id(spec): 1, id(smt): 2}
    evaluator.slowdowns_many(items(spec, smt, 50)[::-1])
    assert counts == {id(spec): 1, id(smt): 2}


def test_scores_equal_the_scenarios_solved_directly():
    session = Session(CONFIG)
    spec = session.spec
    smt = spec.smt_variant()
    work = items(spec, smt, 50)
    evaluator = PlacementEvaluator(session)
    scored = evaluator.slowdowns_many(work)
    direct = {s: Session(replace(CONFIG, spec=s)) for s in (spec, smt)}
    for (machine, layout), got in zip(work, scored):
        rotations = [Scenario(layout[j:] + layout[:j]) for j in range(len(layout))]
        want = tuple(
            r.normalized_time for r in direct[machine].run_scenarios(rotations)
        )
        assert got == want
    # The base spec scores through the base session, the SMT spec
    # through one sibling whose own engine fingerprint is its key.
    assert evaluator.session_for(spec) is session
    sibling = evaluator.session_for(smt)
    assert sibling is not session and sibling.spec is smt
    assert sibling.engine_fingerprint() == session.engine_fingerprint(spec=smt)
