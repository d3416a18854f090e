"""Scoring candidate layouts with the engine, through the Session.

The scheduler asks one question over and over: *if machine M holds
these placements, how much does each tenant slow down?*
:class:`PlacementEvaluator` answers it with the paper's
foreground-rotation protocol — each member of the layout measured once
as the scenario foreground against the rest — through
:meth:`Session.run_scenarios`, so every cell:

* deduplicates against the session's in-memory caches,
* reads through / writes behind the attached
  :class:`~repro.store.store.ResultStore` (**the store is the
  scheduler's warm cache**: a second replay over the same store
  re-simulates nothing), and
* is bit-identical to the same scenario run by any other artifact.

Layouts are additionally memoized here per ``(engine fingerprint,
placements)`` so a replay that re-evaluates a stable machine every
interval costs a dict lookup, not even a cache probe.  Single-tenant
layouts are exactly ``1.0`` by definition (a solo run normalized to
itself) and never touch the engine.

Heterogeneous clusters: a machine whose spec differs from the
session's (e.g. an SMT variant) is scored through a sibling session
sharing the same store — cache keys embed the engine fingerprint, and
with it the spec, so results can never cross machine shapes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.classify import VICTIM_THRESHOLD, NWayVerdict, classify_nway
from repro.machine.spec import MachineSpec
from repro.session.scenario import AppPlacement, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import Session


class PlacementEvaluator:
    """Layout -> per-tenant slowdowns, memoized, via one Session.

    The layout memo and the sibling sessions are keyed by
    ``session.engine_fingerprint(spec=spec)``, which the session
    memoizes per spec object, so a warm layout costs no hashing.
    Siblings keep the base engine configuration, so the key is
    one-to-one with the spec and equals the sibling's own engine
    fingerprint.
    """

    def __init__(self, session: "Session") -> None:
        self.session = session
        self._sessions: dict[str, "Session"] = {session.engine_fingerprint(): session}
        self._memo: dict[tuple[str, tuple[AppPlacement, ...]], tuple[float, ...]] = {}

    def session_for(self, spec: MachineSpec) -> "Session":
        """The session that scores layouts on ``spec`` — the base one
        when the spec matches, else a sibling sharing executor, store
        and batch mode (lazily built, one per distinct spec)."""
        fp = self.session.engine_fingerprint(spec=spec)
        if fp not in self._sessions:
            from repro.session.session import Session

            self._sessions[fp] = Session(
                replace(self.session.config, spec=spec),
                executor=self.session.executor,
                store=self.session.store,
                engine_batch=self.session.engine_batch,
            )
        return self._sessions[fp]

    def slowdowns(
        self, spec: MachineSpec, placements: "tuple[AppPlacement, ...]"
    ) -> tuple[float, ...]:
        """Per-placement slowdown of a layout, by foreground rotation.

        ``result[i]`` is placement ``i``'s normalized execution time
        when it is the measured foreground against the others — the
        same number ``consolidate-n`` records for that rotation, served
        from the same caches.
        """
        return self._score([(spec, placements)])[0]

    def slowdowns_many(
        self,
        items: "list[tuple[MachineSpec, tuple[AppPlacement, ...]]]",
    ) -> "list[tuple[float, ...]]":
        """Score many layouts at once, one scenario fan-out per spec.

        The candidate layouts an arrival enumerates (or the machines a
        snapshot walks) differ only in placements, so their rotation
        scenarios can feed :meth:`Session.run_scenarios` as *one* batch
        per machine spec — the batch engine then solves them in a
        single stacked fixed point instead of one scalar solve per
        rotation.  Memoization, ordering and results are identical to
        calling :meth:`slowdowns` per item.
        """
        return self._score(items)

    def _score(
        self,
        items: "list[tuple[MachineSpec, tuple[AppPlacement, ...]]]",
    ) -> "list[tuple[float, ...]]":
        """The one scoring routine behind :meth:`slowdowns` and
        :meth:`slowdowns_many`: layouts come from the memo, or their
        rotations join one :meth:`Session.run_scenarios` call per spec.
        """
        out: "list[tuple[float, ...] | None]" = [None] * len(items)
        # (spec fp) -> per-item pending work: item index, memo key,
        # rotation slice into the spec's scenario list.
        pending: dict[str, list[tuple[int, tuple, int, int]]] = {}
        specs: dict[str, MachineSpec] = {}
        scens: dict[str, list[Scenario]] = {}
        for i, (spec, placements) in enumerate(items):
            placements = tuple(placements)
            if not placements:
                out[i] = ()
                continue
            if len(placements) == 1:
                # A lone tenant is its own solo reference: exactly 1.0,
                # engine-free (simulating it would only re-derive the
                # definition through the jitter model).
                out[i] = (1.0,)
                continue
            fp = self.session.engine_fingerprint(spec=spec)
            key = (fp, placements)
            hit = self._memo.get(key)
            if hit is not None:
                out[i] = hit
                continue
            rotations = [
                placements[j:] + placements[:j] for j in range(len(placements))
            ]
            specs[fp] = spec
            batch = scens.setdefault(fp, [])
            start = len(batch)
            batch.extend(Scenario(rot) for rot in rotations)
            pending.setdefault(fp, []).append((i, key, start, len(batch)))
        for fp, work in pending.items():
            results = self.session_for(specs[fp]).run_scenarios(scens[fp])
            for i, key, a, b in work:
                scored = tuple(res.normalized_time for res in results[a:b])
                # Duplicate layouts within one call share the memo
                # entry; last write wins with identical bits.
                self._memo[key] = scored
                out[i] = scored
        return out  # type: ignore[return-value]

    def verdict(
        self,
        labels: "tuple[str, ...]",
        slowdowns: "tuple[float, ...]",
        *,
        threshold: float = VICTIM_THRESHOLD,
    ) -> NWayVerdict:
        """The paper's N-way taxonomy over one scored layout."""
        return classify_nway(labels, list(slowdowns), threshold=threshold)

    def cache_stats(self) -> dict[str, int]:
        """Summed cache counters across every spec's session."""
        totals: dict[str, int] = {}
        for s in self._sessions.values():
            for k, v in s.stats.snapshot().items():
                totals[k] = totals.get(k, 0) + v
        return totals
