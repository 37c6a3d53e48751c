"""Exact optimal tours by Held-Karp dynamic programming, the one tour
enumeration behind the exhaustive tour pools, and the integrality ratio; a
2-opt heuristic gives the upper bound beyond Held-Karp's range.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, Tour, tour_length
from .lp import LpError, solve_subtour_lp

HELD_KARP_MAX = 20
# Tour enumeration for the exhaustive tour pools stops here: the (n-1)!/2
# orders at n = 11 would take about 200 MB to enumerate and index.
ENUM_MAX = 10


@dataclass(frozen=True)
class ExactResult:
    """A certified optimal tour and the method that produced it."""

    tour: Tour
    length: float
    method: str  # "held_karp"


# Each step of the DP gathers at most this many (end vertex, mask) columns,
# so its scratch arrays stay small beside the table.
_BLOCK_COLUMNS = 1 << 11


@functools.lru_cache(maxsize=8)
def _layers(r: int) -> tuple[np.ndarray, ...]:
    """The DP layers over r vertices: for each popcount layer k >= 2 in
    order, an int32 array T of shape (r, C(r-1, k-1)) whose row v lists the
    masks of layer k-1 that do not hold v, ascending.  Cached; read-only."""
    masks = np.arange(1 << r, dtype=np.int32)
    popcount = np.zeros_like(masks)
    for v in range(r):
        popcount += (masks >> v) & 1
    layers = []
    for k in range(2, r + 1):
        below = masks[popcount == k - 1]
        T = np.stack([below[below & (1 << v) == 0] for v in range(r)])
        T.setflags(write=False)
        layers.append(T)
    return tuple(layers)


def held_karp(inst: Instance) -> ExactResult:
    """Optimal tour by the classic subset DP, anchored at vertex 0.

    Handles 3 <= n <= 20.  The table is vertex-major, dp[v, S] for the
    vertices 1..n-1 and their masks.  Each popcount layer extends the masks
    of the layer below by every vertex they do not hold (`_layers`), in
    blocks of at most _BLOCK_COLUMNS gathered columns.  Ties go to the
    smallest predecessor index and the returned Tour is canonical.
    """
    n = inst.n
    if not 3 <= n <= HELD_KARP_MAX:
        raise ValueError(f"held_karp handles 3 <= n <= {HELD_KARP_MAX}, got {n}")
    D = inst.distance_matrix()
    r = n - 1  # vertices 1..n-1; anchor 0 is implicit
    Dr = D[1:, 1:]
    d0 = D[0, 1:]
    full = (1 << r) - 1

    # dp[v, S]: shortest path from 0 through the vertices of S, ending at v.
    # Entries with v outside S stay inf, so they never win a min.
    dp = np.full((r, full + 1), np.inf)
    flat = dp.reshape(-1)
    vs = np.arange(r, dtype=np.int32)
    tag = (1 << vs) + (vs << r)  # T | tag[v] is the flat index of dp[v, T | 1 << v]
    flat[tag] = d0  # singletons, dp[v, 1 << v], are the DP base
    for T in _layers(r):
        cols = min(T.shape[1], _BLOCK_COLUMNS)
        rows = _BLOCK_COLUMNS // cols
        for v0 in range(0, r, rows):
            block = slice(v0, v0 + rows)
            for j0 in range(0, T.shape[1], cols):
                Tb = T[block, j0 : j0 + cols]
                # g[u, i, j] = dp[u, Tb[i, j]] + Dr[u, v0 + i]: one add per candidate.
                g = dp.take(Tb, axis=1)
                g += Dr[:, block, None]
                flat.put(Tb | tag[block, None], g.min(axis=0))

    closing = dp[:, full] + d0
    v = int(closing.argmin())
    cost = float(closing[v])

    # Walk back by the first-index argmin of the sums the DP minimised.
    path = [v + 1]
    s = full
    while s != 1 << v:
        s ^= 1 << v
        v = int((dp[:, s] + Dr[:, v]).argmin())
        path.append(v + 1)
    path.reverse()
    return ExactResult(Tour([0] + path), cost, "held_karp")


def heuristic_tour(inst: Instance) -> tuple[Tour, float]:
    """Upper bound: nearest-neighbour tour from vertex 0 improved by 2-opt
    until no move shortens it by more than 1e-12.  Deterministic."""
    dmat = inst.distance_matrix().tolist()  # the same floats, without a numpy scalar per lookup
    n = inst.n
    unvisited = set(range(1, n))
    order = [0]
    while unvisited:
        here = order[-1]
        nxt = min(unvisited, key=lambda v: (dmat[here][v], v))
        unvisited.remove(nxt)
        order.append(nxt)
    improved = True
    while improved:
        improved = False
        for a in range(n - 1):
            for c in range(a + 2, n):
                if a == 0 and c == n - 1:
                    continue
                b, d = a + 1, (c + 1) % n
                delta = (
                    dmat[order[a]][order[c]] + dmat[order[b]][order[d]]
                    - dmat[order[a]][order[b]] - dmat[order[c]][order[d]]
                )
                if delta < -1e-12:
                    order[b : c + 1] = reversed(order[b : c + 1])
                    improved = True
    tour = Tour(order)
    return tour, tour_length(inst, tour)


@functools.lru_cache(maxsize=None)
def enumerate_tours(n: int) -> np.ndarray:
    """All (n-1)!/2 tours on 3 <= n <= ENUM_MAX vertices, one canonical
    order per row (0 first, second < last) in lexicographic order.
    Cached and read-only."""
    if not 3 <= n <= ENUM_MAX:
        raise ValueError(f"tour enumeration handles 3 <= n <= {ENUM_MAX}, got {n}")
    flat = itertools.chain.from_iterable(itertools.permutations(range(1, n)))
    perms = np.fromiter(flat, dtype=np.int16, count=math.factorial(n - 1) * (n - 1)).reshape(-1, n - 1)
    perms = perms[perms[:, 0] < perms[:, -1]]
    orders = np.column_stack([np.zeros(len(perms), dtype=np.int16), perms])
    orders.setflags(write=False)
    return orders


@functools.lru_cache(maxsize=None)
def tour_successors(n: int) -> np.ndarray:
    """`enumerate_tours(n)` rotated one place left: entry (k, i) is the vertex
    after entry (k, i) of the tours.  Cached and read-only."""
    nxt = np.roll(enumerate_tours(n), -1, axis=1)
    nxt.setflags(write=False)
    return nxt


def checked_ratio(length: float, lp_cost: float) -> float:
    """length / lp_cost for a tour of that length and the subtour-relaxation
    optimum lp_cost, which must be positive and at most length."""
    if lp_cost <= 0:
        raise ValueError(f"relaxation cost {lp_cost} is not positive")
    # LP <= OPT <= the length of any tour, up to round-off, which scales
    # with the lengths.
    if lp_cost > length * (1 + 1e-9):
        raise LpError(f"relaxation cost {lp_cost} exceeds the optimal tour length, at most {length}")
    return length / lp_cost


def integrality_ratio(inst: Instance) -> float:
    """Optimal tour length divided by the subtour-relaxation optimum."""
    return checked_ratio(held_karp(inst).length, solve_subtour_lp(inst).cost)
