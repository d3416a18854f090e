"""Exact LRU stack-distance (reuse-distance) computation.

The stack distance of an access is the number of *distinct* other lines
touched since the previous access to the same line; an access hits in a
fully-associative LRU cache of ``C`` lines iff its distance is < ``C``.
Stack distances are the standard bridge from a trace to a miss-ratio
curve (Mattson et al., 1970), which is how the profiler characterizes a
workload's LLC behaviour.

The implementation is the classic O(N log N) algorithm: a Fenwick tree
over trace positions holds a 1 at the most recent position of every
line; the distance of a reuse is the number of marks strictly between
the previous and current positions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError

#: Distance reported for cold (first-ever) accesses.
COLD = -1


class _Fenwick:
    """Binary indexed tree over ``n`` positions with +/-1 updates."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of positions [0, i]."""
        i += 1
        s = 0
        tree = self.tree
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return int(s)


def reuse_distances(lines: np.ndarray) -> np.ndarray:
    """Exact stack distance per access; ``COLD`` (-1) for first touches.

    Args:
        lines: 1-D integer array of line addresses in access order.

    Returns:
        int64 array of the same length.
    """
    lines = np.asarray(lines)
    if lines.ndim != 1:
        raise TraceError("lines must be a 1-D array")
    n = len(lines)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    fen = _Fenwick(n)
    last: dict[int, int] = {}
    for t in range(n):
        x = int(lines[t])
        p = last.get(x)
        if p is None:
            out[t] = COLD
        else:
            # Marks strictly between p and t = distinct lines since p.
            out[t] = fen.prefix(t - 1) - fen.prefix(p)
            fen.add(p, -1)
        fen.add(t, +1)
        last[x] = t
    return out


def reuse_distances_bruteforce(lines: np.ndarray) -> np.ndarray:
    """O(N^2) reference implementation for tests."""
    lines = np.asarray(lines)
    n = len(lines)
    out = np.empty(n, dtype=np.int64)
    for t in range(n):
        x = int(lines[t])
        prev = None
        for p in range(t - 1, -1, -1):
            if int(lines[p]) == x:
                prev = p
                break
        if prev is None:
            out[t] = COLD
        else:
            out[t] = len({int(v) for v in lines[prev + 1 : t]} - {x})
    return out


def miss_ratio_at(distances: np.ndarray, capacity_lines: int) -> float:
    """Exact fully-associative LRU miss ratio at a capacity, from distances.

    Cold accesses always miss; a reuse misses iff distance >= capacity.
    """
    if capacity_lines <= 0:
        raise TraceError("capacity must be positive")
    distances = np.asarray(distances)
    if len(distances) == 0:
        return 0.0
    cold = distances == COLD
    misses = cold | (distances >= capacity_lines)
    return float(misses.mean())
