"""Miss-ratio curves (MRC).

A :class:`MissRatioCurve` maps an allocated LLC capacity (bytes) to the
demand miss ratio of the traffic reaching the LLC.  The engine consults
it at every co-run step: when a neighbour squeezes an application's LLC
share, the MRC says how many additional misses that costs — the paper's
central victim mechanism (Figs 7c, 8c).

Curves come from two places:

* measured — :meth:`MissRatioCurve.from_reuse_distances` converts the
  profiler's stack-distance histogram into an exact curve;
* calibrated — :meth:`MissRatioCurve.from_points` interpolates a small
  table of (capacity, ratio) anchors (log-capacity, linear-ratio), used
  by the per-application calibration data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.reuse import COLD
from repro.units import CACHE_LINE, MiB


@dataclass(frozen=True)
class MissRatioCurve:
    """Monotone non-increasing miss ratio as a function of capacity.

    Samples are interpolated linearly in log2(capacity); queries outside
    the sampled range clamp to the end values.
    """

    capacities_bytes: np.ndarray
    ratios: np.ndarray

    def __post_init__(self) -> None:
        caps = np.asarray(self.capacities_bytes, dtype=np.float64)
        ratios = np.asarray(self.ratios, dtype=np.float64)
        if caps.ndim != 1 or caps.shape != ratios.shape or len(caps) == 0:
            raise TraceError("MRC needs matching, non-empty sample arrays")
        if np.any(caps <= 0):
            raise TraceError("MRC capacities must be positive")
        if np.any(np.diff(caps) <= 0):
            raise TraceError("MRC capacities must be strictly increasing")
        if np.any(ratios < 0) or np.any(ratios > 1):
            raise TraceError("MRC ratios must lie in [0, 1]")
        if np.any(np.diff(ratios) > 1e-12):
            raise TraceError("MRC must be non-increasing in capacity")
        object.__setattr__(self, "capacities_bytes", caps)
        object.__setattr__(self, "ratios", ratios)
        # The interpolation's x samples, once per curve.  Not a field:
        # fingerprints and equality see the samples alone.
        object.__setattr__(self, "_log2_caps", np.log2(caps))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_points(points: list[tuple[float, float]]) -> "MissRatioCurve":
        """Build from (capacity_bytes, miss_ratio) anchor points."""
        pts = sorted(points)
        caps = np.array([p[0] for p in pts], dtype=np.float64)
        ratios = np.array([p[1] for p in pts], dtype=np.float64)
        return MissRatioCurve(caps, ratios)

    @staticmethod
    def constant(ratio: float) -> "MissRatioCurve":
        """Capacity-insensitive curve (streaming data: misses regardless)."""
        return MissRatioCurve(
            np.array([CACHE_LINE, 64 * MiB], dtype=np.float64),
            np.array([ratio, ratio], dtype=np.float64),
        )

    @staticmethod
    def from_reuse_distances(
        distances: np.ndarray,
        *,
        line_bytes: int = CACHE_LINE,
        n_samples: int = 48,
    ) -> "MissRatioCurve":
        """Exact curve from stack distances, sampled geometrically.

        Cold accesses count as misses at every capacity, so the curve
        floors at the compulsory miss ratio.
        """
        distances = np.asarray(distances)
        if len(distances) == 0:
            raise TraceError("cannot build an MRC from an empty trace")
        n = len(distances)
        cold = int((distances == COLD).sum())
        finite = np.sort(distances[distances != COLD])
        max_lines = max(int(finite[-1]) + 1 if len(finite) else 1, 2)
        caps_lines = np.unique(
            np.geomspace(1, max_lines, num=n_samples).astype(np.int64)
        )
        # misses(C) = cold + #{d >= C}; searchsorted gives #{d < C}.
        below = np.searchsorted(finite, caps_lines, side="left")
        ratios = (cold + (len(finite) - below)) / n
        caps_bytes = caps_lines.astype(np.float64) * line_bytes
        return MissRatioCurve(caps_bytes, ratios.astype(np.float64))

    # -- queries -----------------------------------------------------------

    def miss_ratio(self, capacity_bytes: float) -> float:
        """Miss ratio at an allocated capacity (clamped interpolation)."""
        if capacity_bytes <= 0:
            # Zero allocation: everything that would have hit now misses.
            return float(self.ratios[0])
        return float(np.interp(np.log2(capacity_bytes), self._log2_caps, self.ratios))

    def miss_ratios(self, capacities_bytes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`miss_ratio`."""
        caps = np.maximum(np.asarray(capacities_bytes, dtype=np.float64), 1.0)
        return np.interp(np.log2(caps), self._log2_caps, self.ratios)

    @property
    def compulsory_ratio(self) -> float:
        """Miss ratio with unbounded capacity (cold/streaming floor)."""
        return float(self.ratios[-1])

    @property
    def footprint_bytes(self) -> float:
        """Capacity beyond which extra space buys (almost) nothing:
        the smallest sampled capacity within 1% of the floor."""
        floor = self.compulsory_ratio
        ok = np.flatnonzero(self.ratios <= floor + 0.01)
        return float(self.capacities_bytes[ok[0]])

    def marginal_utility(self, capacity_bytes: float, delta: float = 0.1) -> float:
        """Miss-ratio reduction per byte around a capacity (finite
        difference over +/-``delta`` in log space); used by the LLC
        sharing model to decide who benefits from cache."""
        lo = self.miss_ratio(capacity_bytes * (1 - delta))
        hi = self.miss_ratio(capacity_bytes * (1 + delta))
        span = 2 * delta * capacity_bytes
        return max(0.0, (lo - hi) / span) if span > 0 else 0.0
