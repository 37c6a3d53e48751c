"""Exact optimal tours: Held-Karp dynamic programming as the workhorse plus
a factorial brute-force oracle over the one tour enumeration, and the
integrality ratio; a 2-opt heuristic gives the upper bound beyond
Held-Karp's range.
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
# Tour enumeration (brute force, exhaustive tour pools) stops here: the
# (n-1)!/2 orders at n = 11 would take about 200 MB to enumerate and index.
ENUM_MAX = 10


@dataclass(frozen=True)
class ExactResult:
    """A certified optimal tour and the method that produced it."""

    tour: Tour
    length: float
    method: str  # "held_karp" | "brute_force"


@functools.lru_cache(maxsize=8)
def _layer_steps(r: int) -> tuple[tuple[int, np.ndarray], ...]:
    """The DP steps over r vertices: (v, S) for each popcount layer k >= 2
    in order and each v < r, where S (int32, read-only) lists the masks of
    layer k that hold v, ascending.  Every mask of popcount k sits in k of
    them, so one size holds r * 2^(r-1) indices: 0.85 MB for every
    n = r + 1 <= 15 together, 20 MB at n = 20."""
    masks = np.arange(1 << r)
    popcount = np.zeros_like(masks)
    for v in range(r):
        popcount += (masks >> v) & 1
    steps = []
    for k in range(2, r + 1):
        layer = masks[popcount == k]
        for v in range(r):
            S = layer[layer & (1 << v) != 0].astype(np.int32)
            S.setflags(write=False)
            steps.append((v, S))
    return tuple(steps)


def held_karp(inst: Instance) -> ExactResult:
    """Optimal tour by the classic subset DP, anchored at vertex 0.

    Handles 3 <= n <= 20.  One numpy step per popcount layer and end vertex
    v extends every mask of the layer that holds v; the masks of each step
    are cached per size (`_layer_steps`).  The table holds 2^(n-1) * (n-1)
    doubles.  On a 2-core x86 machine n = 6 takes about 0.25 ms, n = 15
    about 20 ms, n = 18 about 0.3 s, and n = 20 about 1.5 s with a 76 MB
    table.  Ties go to the smallest predecessor index and the returned Tour
    is canonical.
    """
    n = inst.n
    if not 3 <= n <= HELD_KARP_MAX:
        raise ValueError(f"held_karp handles 3 <= n <= {HELD_KARP_MAX}, got {n}")
    D = inst.distance_matrix()
    r = n - 1  # vertices 1..n-1; anchor 0 is implicit
    Dr = D[1:, 1:]
    d0 = D[0, 1:]
    full = (1 << r) - 1

    # dp[S, v]: shortest path from 0 through the vertices of S, ending at v.
    dp = np.full((full + 1, r), np.inf)
    dp[1 << np.arange(r), np.arange(r)] = d0  # singletons are the DP base
    for v, S in _layer_steps(r):
        dp[S, v] = (dp[S ^ (1 << v)] + Dr[:, v]).min(axis=1)

    closing = dp[full] + d0
    v = int(closing.argmin())
    cost = float(closing[v])

    # Walk back by the first-index argmin of the sums the DP minimised.
    path = [v + 1]
    s = full
    while s != 1 << v:
        s ^= 1 << v
        v = int((dp[s] + Dr[:, v]).argmin())
        path.append(v + 1)
    path.reverse()
    return ExactResult(Tour([0] + path), cost, "held_karp")


def heuristic_tour(inst: Instance) -> tuple[Tour, float]:
    """Upper bound: nearest-neighbour tour from vertex 0 improved by 2-opt
    until no move shortens it by more than 1e-12.  Deterministic."""
    dmat = inst.distance_matrix()
    n = inst.n
    unvisited = set(range(1, n))
    order = [0]
    while unvisited:
        here = order[-1]
        nxt = min(unvisited, key=lambda v: (dmat[here, v], v))
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
                    dmat[order[a], order[c]] + dmat[order[b], order[d]]
                    - dmat[order[a], order[b]] - dmat[order[c], order[d]]
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


def brute_force(inst: Instance) -> ExactResult:
    """Optimal tour by scanning `enumerate_tours`; 3 <= n <= ENUM_MAX.

    Each length adds the closing edges 0 - first and last - 0, then the
    path edges in order; the first minimum wins.
    """
    n = inst.n
    if not 3 <= n <= ENUM_MAX:
        raise ValueError(f"brute_force handles 3 <= n <= {ENUM_MAX}, got {n}")
    P = enumerate_tours(n)
    D = inst.distance_matrix()
    cost = D[0, P[:, 1]] + D[P[:, -1], 0]
    for k in range(1, n - 1):
        cost += D[P[:, k], P[:, k + 1]]
    best = int(cost.argmin())
    return ExactResult(Tour(P[best].tolist()), float(cost[best]), "brute_force")


def integrality_ratio(inst: Instance) -> float:
    """Optimal tour length divided by the subtour-relaxation optimum."""
    opt = held_karp(inst).length
    lp = solve_subtour_lp(inst)
    if lp.cost <= 0:
        raise ValueError(f"relaxation cost {lp.cost} is not positive")
    # The relaxation can never exceed the optimum (beyond round-off).
    if lp.cost > opt + 1e-6:
        raise LpError(f"relaxation cost {lp.cost} exceeds the optimal tour length {opt}")
    return opt / lp.cost
