"""Consolidation-relationship classification (Section V's taxonomy).

The paper classifies a consolidation pair (A, B) by the runtime
increase each side suffers, with a 1.5x threshold:

* **Harmony** — both sides below 1.5x;
* **Victim-Offender** — exactly one side at or above 1.5x (that side is
  the victim, the other the offender);
* **Both-Victim** — both sides at or above 1.5x ("should definitely be
  avoided for cloud/warehouse-scale computing").

:func:`classify_nway` applies the same taxonomy to consolidations of
any size measured by *foreground rotation* (every member takes a turn
as the measured foreground against the rest): an app whose own
rotation slows at or past the threshold is a **victim**; when someone
is victimized, every co-runner that stays under the threshold is an
**offender** of that consolidation.  A pair is the 2-app case: its
two slowdowns are cells (A, B) and (B, A) of Fig 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.errors import ExperimentError

#: The paper's slowdown threshold for calling an application a victim.
VICTIM_THRESHOLD = 1.5


class PairClass(Enum):
    """Section V's three consolidation relationships."""

    HARMONY = "Harmony"
    VICTIM_OFFENDER = "Victim-Offender"
    BOTH_VICTIM = "Both-Victim"


@dataclass(frozen=True)
class NWayVerdict:
    """Classification of one consolidation of N >= 2 apps from every
    member's foreground-rotation slowdown.

    ``apps[i]`` slowed by ``slowdowns[i]`` while it was the measured
    foreground against the other N-1 members (the ``consolidate-n``
    rotation protocol; for a pair, its two Fig 5 cells).  The taxonomy
    is the pair one generalized:

    * ``HARMONY`` — nobody reaches the threshold;
    * ``VICTIM_OFFENDER`` — some members are victimized, the rest are
      the offenders;
    * ``BOTH_VICTIM`` — every member is a victim (the paper's
      "definitely avoid" class, at any N).
    """

    apps: tuple[str, ...]
    slowdowns: tuple[float, ...]
    relationship: PairClass
    threshold: float = VICTIM_THRESHOLD

    @property
    def victims(self) -> tuple[str, ...]:
        """Members whose own rotation reached the threshold."""
        return tuple(
            a for a, s in zip(self.apps, self.slowdowns) if s >= self.threshold
        )

    @property
    def offenders(self) -> tuple[str, ...]:
        """Members that stay under the threshold while someone else is
        victimized (empty under Harmony — nobody offends — and under
        Both-Victim — everybody is a victim first)."""
        if self.relationship is not PairClass.VICTIM_OFFENDER:
            return ()
        return tuple(
            a for a, s in zip(self.apps, self.slowdowns) if s < self.threshold
        )

    def role(self, app: str) -> str:
        """``"victim"`` / ``"offender"`` / ``"harmony"`` for one member."""
        if app not in self.apps:
            raise ExperimentError(f"{app!r} is not part of this consolidation")
        if app in self.victims:
            return "victim"
        if app in self.offenders:
            return "offender"
        return "harmony"

    @property
    def label(self) -> str:
        """Compact render, e.g. ``Victim-Offender (victims: G-CC)``."""
        text = self.relationship.value
        if self.relationship is PairClass.VICTIM_OFFENDER:
            text += f" (victims: {', '.join(self.victims)})"
        return text


def classify_nway(
    apps: Sequence[str],
    slowdowns: Sequence[float],
    *,
    threshold: float = VICTIM_THRESHOLD,
) -> NWayVerdict:
    """Classify one N-way consolidation from per-member foreground
    slowdowns (aggregated across the rotation sweep)."""
    if len(apps) < 2:
        raise ExperimentError(
            "a consolidation verdict needs at least two apps (nobody can "
            "be a victim or offender alone)"
        )
    if len(apps) != len(slowdowns):
        raise ExperimentError(
            f"{len(apps)} apps but {len(slowdowns)} slowdowns"
        )
    if any(s <= 0 for s in slowdowns):
        raise ExperimentError("slowdowns must be positive")
    n_victims = sum(1 for s in slowdowns if s >= threshold)
    if n_victims == 0:
        rel = PairClass.HARMONY
    elif n_victims == len(apps):
        rel = PairClass.BOTH_VICTIM
    else:
        rel = PairClass.VICTIM_OFFENDER
    return NWayVerdict(
        apps=tuple(apps),
        slowdowns=tuple(float(s) for s in slowdowns),
        relationship=rel,
        threshold=threshold,
    )
