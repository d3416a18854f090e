"""Spans and counters recorded from outside the program.

Every hook here is a wrapper the benchmark installs around a *public*
function of one layer (a class attribute or a module attribute) and
removes again afterwards; nothing under ``src/`` carries a span or a
counter for the benchmark.  A span records its name, start, end, the
span that was open when it began on the same thread (its parent) and
the thread.  Spans stay in memory and are written out once, when the
benchmark ends.

A layer's *self time* is its span durations minus the part covered by
child spans.  The serve daemon runs scheduler calls on its own worker
thread, so a span that starts with no parent on a non-main thread is
adopted by the innermost main-thread span whose interval contains it
(with one request on the wire at a time that is the client request
which caused it).
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Span fields, by index: a span is a small list so the hot path stays cheap.
NAME, START, END, PARENT, THREAD, SID, TAG = range(7)

#: Span name -> the per-layer self-time metric it feeds.
LAYER_OF = {
    "engine": "engine.self_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "session": "session.self_s",
    "sched.score": "sched.score_self_s",
    "sched.arrival": "sched.decide_self_s",
    "sched.decide": "sched.decide_self_s",
    "sched.depart": "sched.depart_s",
    "driver": "driver.self_s",
    "serve.request": "serve.self_s",
    "traffic.generate": "traffic.self_s",
}


class Patches:
    """Replace attributes and put every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def plant_slowdown(patches: Patches, owner: Any, attr: str, factor: float) -> None:
    """Make ``owner.attr`` take ``factor`` times as long, by spinning
    after each call for ``factor - 1`` times the call's own duration.
    This is how the self-tests plant a regression without editing code."""

    def make(fn):
        def slowed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            until = time.perf_counter() + (time.perf_counter() - t0) * (factor - 1.0)
            while time.perf_counter() < until:
                pass
            return result

        return slowed

    patches.replace(owner, attr, make)


class Recorder:
    """In-memory spans plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self.patches = Patches()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: "Callable[[Recorder, list, tuple, dict, Any], None] | None" = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``on_return(recorder, span, args, kwargs, result)`` updates
        counters once the call returns."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def enter() -> list:
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), next(ids), None]
            spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            return span

        def leave(span: list) -> None:
            span[END] = time.perf_counter()
            stack_of().pop()

        def make(fn):
            if inspect.iscoroutinefunction(fn):
                # The client keeps one request in flight, so the
                # thread's span stack stays well nested across awaits.
                async def traced_async(*args, **kwargs):
                    span = enter()
                    try:
                        return await fn(*args, **kwargs)
                    finally:
                        leave(span)

                return traced_async

            def traced(*args, **kwargs):
                span = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(span)
                if on_return is not None:
                    on_return(self, span, args, kwargs, result)
                return result

            return traced

        self.patches.replace(owner, attr, make)

    def uninstall(self) -> None:
        self.patches.undo()

    # -- analysis -------------------------------------------------------------

    def adopt_orphans(self, main_thread: int) -> None:
        """Give each parentless span on another thread the innermost
        main-thread span that contains it as its parent."""
        mains = sorted(
            (s for s in self.spans if s[THREAD] == main_thread),
            key=lambda s: s[START],
        )
        starts = [s[START] for s in mains]
        for s in self.spans:
            if s[PARENT] is not None or s[THREAD] == main_thread:
                continue
            i = bisect_right(starts, s[START]) - 1
            while i >= 0:
                c = mains[i]
                if c[END] >= s[END]:
                    s[PARENT] = c
                    break
                i -= 1

    def self_times(self, lo: float, hi: float) -> tuple[dict[str, float], float]:
        """Per-layer self time of the spans that start in ``[lo, hi]``,
        and their total (the wall time attributed to named layers)."""
        window = [s for s in self.spans if lo <= s[START] <= hi and s[END] > 0]
        child: "defaultdict[int, float]" = defaultdict(float)
        for s in window:
            if s[PARENT] is not None:
                child[s[PARENT][SID]] += s[END] - s[START]
        layers: "defaultdict[str, float]" = defaultdict(float)
        for s in window:
            own = (s[END] - s[START]) - child.get(s[SID], 0.0)
            layers[LAYER_OF[s[NAME]]] += own
        return dict(layers), sum(layers.values())

    def durations(self, name: str, tag: Any = None) -> list[float]:
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)
        ]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (parents by span id)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s[SID],
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT][SID] if s[PARENT] is not None else None,
                            "thread": s[THREAD],
                            "tag": s[TAG],
                        }
                    )
                    + "\n"
                )


# -- the layer map: which public functions get which span ---------------------


def _in_engine(span: list) -> bool:
    parent = span[PARENT]
    return parent is not None and parent[NAME] == "engine"


def _solve_batch(rec, span, args, kwargs, result):
    cells = args[1] if len(args) > 1 else kwargs["cells"]
    rec.counts["engine.calls"] += 1
    rec.counts["engine.cells"] += len(cells)


def _scalar_cell(rec, span, args, kwargs, result):
    if not _in_engine(span):
        rec.counts["engine.calls"] += 1
        rec.counts["engine.cells"] += 1


def _solo(rec, span, args, kwargs, result):
    rec.counts["engine.solo_calls"] += 1


def _get(rec, span, args, kwargs, result):
    rec.counts["store.get_calls"] += 1
    rec.counts["store.get_hits"] += result is not None


def _put(rec, span, args, kwargs, result):
    rec.counts["store.put_calls"] += 1


def _layouts(scenarios: list) -> int:
    """Layouts behind a rotation fan-out: the evaluator sends each
    n-tenant layout as n consecutive rotations."""
    i = n = 0
    while i < len(scenarios):
        i += len(scenarios[i].placements)
        n += 1
    return n


def _run_scenarios(rec, span, args, kwargs, result):
    scens = list(args[1] if len(args) > 1 else kwargs["scenarios"])
    rec.counts["session.calls"] += 1
    rec.counts["session.cells"] += len(scens)
    parent = span[PARENT]
    if parent is not None and parent[NAME] == "sched.score":
        rec.counts["sched.layouts_priced"] += _layouts(scens)


def _score_many(rec, span, args, kwargs, result):
    rec.counts["sched.score_calls"] += 1
    rec.counts["sched.layouts_asked"] += len(result)


def _score_one(rec, span, args, kwargs, result):
    rec.counts["sched.score_calls"] += 1
    rec.counts["sched.layouts_asked"] += 1


def _arrival(rec, span, args, kwargs, result):
    span[TAG] = args[0].policy.name


def _decide(rec, span, args, kwargs, result):
    rec.counts["sched.decide_calls"] += 1


def _depart(rec, span, args, kwargs, result):
    rec.counts["sched.depart_calls"] += 1


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    import repro.engine
    import repro.engine.batch
    import repro.sched.scheduler
    from repro.engine.interval import IntervalEngine
    from repro.sched.policy import BaselinePolicy, InterferencePolicy
    from repro.sched.scheduler import Scheduler
    from repro.sched.score import PlacementEvaluator
    from repro.serve.client import ServeClient
    from repro.session.session import Session
    from repro.store.store import ResultStore
    from repro.traffic.model import TrafficModel

    # solve_batch is looked up through the package at call time; the
    # module attribute is wrapped too for callers importing it from there.
    rec.wrap(repro.engine, "solve_batch", "engine", _solve_batch)
    rec.wrap(repro.engine.batch, "solve_batch", "engine", _solve_batch)
    rec.wrap(IntervalEngine, "scenario_run", "engine", _scalar_cell)
    rec.wrap(IntervalEngine, "co_run", "engine", _scalar_cell)
    rec.wrap(IntervalEngine, "solo_run", "engine", _solo)
    for attr in ("get_scenario", "get_corun", "get_solo"):
        rec.wrap(ResultStore, attr, "store.get", _get)
    for attr in ("put_scenario", "put_corun", "put_solo"):
        rec.wrap(ResultStore, attr, "store.put", _put)
    rec.wrap(Session, "run_scenarios", "session", _run_scenarios)
    rec.wrap(PlacementEvaluator, "slowdowns_many", "sched.score", _score_many)
    rec.wrap(PlacementEvaluator, "slowdowns", "sched.score", _score_one)
    for policy in (BaselinePolicy, InterferencePolicy):
        rec.wrap(policy, "decide", "sched.decide", _decide)
    rec.wrap(Scheduler, "arrival", "sched.arrival", _arrival)
    rec.wrap(Scheduler, "departure", "sched.depart", _depart)
    rec.wrap(repro.sched.scheduler, "replay_trace", "driver")
    rec.wrap(TrafficModel, "generate", "traffic.generate")
    for attr in ("arrival", "departure"):
        rec.wrap(ServeClient, attr, "serve.request")
