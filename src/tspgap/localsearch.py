"""Gradient-based local search that pushes an embedded instance toward a
local maximum of the integrality ratio.

For a differentiable norm (p > 1) the tour-length and fractional-cost
gradients are analytic; a common ascent direction over the pool of
optimal and near-optimal tours is found by a small auxiliary LP, and a
binary line search accepts a step only when the exact recomputed ratio
strictly increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EdgeWeightVector, Instance, NormSpec, Tour, edge_index, fractional_cost, tour_length
from .exact import ENUM_MAX, enumerate_tours, held_karp
from .lp import LinearProgram, solve_lp, solve_subtour_lp

# An LP optimum with every value this close to 1 is integral.
_INTEGRAL_TOL = 1e-9


class LocalSearchError(RuntimeError):
    """Search could not proceed (no admissible random start found)."""


@dataclass(frozen=True)
class LocalSearchParams:
    """Accuracy parameters for the search.

    epsilon0: a random start is kept only if its ratio exceeds 1 + epsilon0.
    epsilon1: ascent threshold; the improvement LP's objective at or below
        it certifies local optimality.
    epsilon2: step floor for the binary line search.
    epsilon3: tour-pool window as a fraction of the current optimum length
        (the absolute window is epsilon3 times the optimum).
    p: norm exponent, must exceed 1 so lengths are differentiable.
    """

    epsilon0: float = 0.01
    epsilon1: float = 1e-6
    epsilon2: float = 1e-7
    epsilon3: float = 1e-4
    p: float = 2.0
    max_iters: int = 500
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epsilon0", "epsilon1", "epsilon2", "epsilon3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.p) and self.p > 1):
            raise ValueError("p must be a finite exponent > 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class TourPool:
    """Optimal and near-optimal tours: every member's length is within
    `window` of `reference` (the optimum length it was built against)."""

    tours: frozenset[Tour]
    reference: float
    window: float

    def __post_init__(self) -> None:
        if not self.tours:
            raise ValueError("empty tour pool")
        if self.window < 0:
            raise ValueError("negative pool window")

    def check(self, inst: Instance) -> None:
        for t in self.tours:
            if tour_length(inst, t) > self.reference + self.window + 1e-12:
                raise ValueError(f"pooled tour {t!r} exceeds reference + window")

    def pruned(self, inst: Instance, reference: float, window: float) -> "TourPool":
        keep = frozenset(t for t in self.tours if tour_length(inst, t) <= reference + window)
        return TourPool(keep, reference, window)


def build_tour_pool(inst: Instance, window: float) -> TourPool:
    """Exhaustive pool of all tours within `window` of the optimum.

    Only for n <= ENUM_MAX, which keeps the pool provably complete; larger
    instances grow a pool from tours discovered during the search.
    """
    n = inst.n
    if n > ENUM_MAX:
        raise ValueError(f"n = {n} exceeds enumeration cap {ENUM_MAX}")
    P = enumerate_tours(n)
    D = inst.distance_matrix()
    lengths = D[P, np.roll(P, -1, axis=1)].sum(axis=1)
    opt = float(lengths.min())
    mask = lengths <= opt + window
    tours = frozenset(Tour(tuple(int(v) for v in row)) for row in P[mask])
    return TourPool(tours, opt, window)


# -- gradients -------------------------------------------------------------


def _edge_gradient(inst: Instance, u: np.ndarray, v: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Gradient of sum_k weight[k] * ||pts[u[k]] - pts[v[k]]||_p."""
    p = inst.norm.p
    if not (math.isfinite(p) and p > 1):
        raise ValueError("gradients require a finite norm exponent p > 1")
    pts = inst.points
    diff = pts[u] - pts[v]
    # The norms' last powers are per-edge float pows: numpy's array power
    # may take a sqrt or SIMD path whose last bits differ.
    sums = (np.abs(diff) ** p).sum(axis=1)
    scale = np.array([(s ** (1.0 / p)) ** (p - 1.0) for s in sums.tolist()])
    term = weight[:, None] * np.sign(diff) * np.abs(diff) ** (p - 1.0) / scale[:, None]
    # add.at applies the rows in order: edge by edge, +term at u, -term at v.
    G = np.zeros_like(pts)
    np.add.at(G, np.column_stack([u, v]).ravel(), np.stack([term, -term], axis=1).reshape(-1, pts.shape[1]))
    return G.ravel()


def grad_tour_length(inst: Instance, t: Tour) -> np.ndarray:
    """Gradient of the tour length with respect to every coordinate, as an
    (n*d,) array in vertex-major order (vertex 0 axis 0, vertex 0 axis 1, ...).

    Per coordinate (vertex m, axis a) this is the sum over tour neighbors q
    of sgn(v_m[a] - q[a]) |v_m[a] - q[a]|^(p-1) / ||v_m - q||_p^(p-1).
    """
    order = np.array(t.order)
    return _edge_gradient(inst, order, np.roll(order, -1), np.ones(t.n))


def grad_fractional(inst: Instance, x: EdgeWeightVector) -> np.ndarray:
    """Weighted analogue of grad_tour_length over the support of x."""
    if x.n != inst.n:
        raise ValueError(f"weight vector on {x.n} vertices, instance has {inst.n}")
    iu, iv = edge_index(x.n)
    support = np.flatnonzero(x.values)
    return _edge_gradient(inst, iu[support], iv[support], x.values[support])


def grad_g(inst: Instance, t: Tour, x: EdgeWeightVector, r: float) -> np.ndarray:
    """Gradient of g(v) = tour_length(v) - r * fractional_cost(v).

    Moving along a direction of positive inner product with this gradient
    increases the ratio length(t)/cost(x) when t is optimal and r is the
    current ratio.
    """
    return grad_tour_length(inst, t) - r * grad_fractional(inst, x)


# -- improvement LP --------------------------------------------------------


def improvement_lp(
    inst: Instance, pool: TourPool, x: EdgeWeightVector, r: float
) -> tuple[np.ndarray, float]:
    """Maximize delta subject to <w, grad_g(T)> >= delta for every pooled
    tour and w in [-1, 1]^(n*d).  delta > 0 certifies a common ascent
    direction; the zero direction is always feasible, so delta >= 0.
    """
    if not pool.tours:
        raise ValueError("empty tour pool")
    grads = np.array([grad_g(inst, t, x, r) for t in sorted(pool.tours, key=lambda t: t.order)])
    m, nd = grads.shape
    # Variables: w_0 .. w_{nd-1}, then delta (free); rows <g_T, w> - delta >= 0.
    lp = LinearProgram(
        c=np.append(np.zeros(nd), 1.0),
        A=np.hstack([grads, np.full((m, 1), -1.0)]),
        rels=(">=",) * m,
        b=np.zeros(m),
        lo=np.append(np.full(nd, -1.0), -math.inf),
        hi=np.append(np.ones(nd), math.inf),
        maximize=True,
    )
    sol = solve_lp(lp)
    return sol.values[:nd], float(sol.values[nd])


def local_opt_certificate(
    inst: Instance,
    pool: TourPool,
    x: EdgeWeightVector,
    *,
    epsilon1: float = 1e-6,
) -> bool:
    """True iff the improvement LP finds no common ascent direction of
    value above epsilon1.  Valid as a certificate only when the pool holds
    every optimal tour (within its window)."""
    r = pool.reference / fractional_cost(inst, x)
    _, delta = improvement_lp(inst, pool, x, r)
    return delta <= epsilon1


# -- Algorithm 1 -----------------------------------------------------------


@dataclass(frozen=True)
class TraceRecord:
    """One accepted state: the seed (iteration 0) or an accepted step."""

    iteration: int
    ratio: float
    delta: float
    eta: float


@dataclass(frozen=True)
class SearchTrace:
    records: tuple[TraceRecord, ...]
    converged: bool
    restarts: int
    final_ratio: float


_RESTART_CAP = 20000
_MAX_HALVINGS = 60


def random_instance(n: int, p: float, rng: np.random.Generator) -> Instance:
    """Uniform points in the unit square under the p-norm."""
    return Instance(rng.random((n, 2)), NormSpec(p))


def _ratio_state(inst: Instance) -> tuple[float, float, EdgeWeightVector, Tour | None]:
    """(ratio, optimal length, LP optimum, an optimal tour)."""
    lp = solve_subtour_lp(inst)
    values = lp.x.values
    if np.all(np.abs(values[values > 0] - 1.0) <= _INTEGRAL_TOL):
        # A 0/1 optimum that passed separation is a Hamiltonian cycle, so
        # OPT = LP and Held-Karp is not needed.  Such states have ratio 1
        # and are never accepted, so they carry no tour.
        return 1.0, lp.cost, lp.x, None
    exact = held_karp(inst)
    return exact.length / lp.cost, exact.length, lp.x, exact.tour


def local_search(n: int, params: LocalSearchParams) -> tuple[Instance, SearchTrace]:
    """Push a random instance to a local maximum of the integrality ratio.

    Random instances are drawn until one has ratio above 1 + epsilon0;
    from there, each iteration solves the improvement LP over the pool of
    near-optimal tours and line-searches along the common ascent direction,
    accepting a step only when the exact recomputed ratio strictly
    increases.  Terminates when the LP value drops to epsilon1, the step
    floor epsilon2 is hit, or max_iters runs out (best-so-far, flagged
    non-converged in the trace).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = np.random.default_rng(params.rng_seed)

    inst = None
    restarts = 0
    for _ in range(_RESTART_CAP):
        restarts += 1
        cand = random_instance(n, params.p, rng)
        ratio, opt_len, x, opt_tour = _ratio_state(cand)
        if ratio > 1.0 + params.epsilon0:
            inst = cand
            break
    if inst is None:
        raise LocalSearchError(
            f"no random {n}-point start with ratio > 1 + {params.epsilon0} in {_RESTART_CAP} draws"
        )

    records = [TraceRecord(0, ratio, 0.0, 0.0)]
    converged = False
    pool: TourPool | None = None
    for it in range(1, params.max_iters + 1):
        window = params.epsilon3 * opt_len
        if n <= ENUM_MAX:
            pool = build_tour_pool(inst, window)
        else:
            tours = (pool.tours if pool else frozenset()) | {opt_tour}
            pool = TourPool(tours, opt_len, window).pruned(inst, opt_len, window)
        w, delta = improvement_lp(inst, pool, x, ratio)
        if delta <= params.epsilon1:
            converged = True
            break
        step = w.reshape(inst.n, inst.dim)
        # Walk the dyadic step ladder; keep the best strict ratio improvement
        # and stop once gains start shrinking (first-improvement acceptance
        # creeps near an optimum).
        eta = 1.0
        best = None
        for _ in range(_MAX_HALVINGS):
            if eta < params.epsilon2:
                break
            try:
                cand = Instance(inst.points + eta * step, inst.norm)
                state = _ratio_state(cand)
            except ValueError:
                eta *= 0.5  # step collapsed two points; shrink
                continue
            if state[0] > ratio and (best is None or state[0] > best[0][0]):
                best = (state, cand, eta)
            elif best is not None:
                break
            eta *= 0.5
        if best is None:
            converged = True  # step floor reached with no exact improvement
            break
        (ratio, opt_len, x, opt_tour), inst, eta = best
        records.append(TraceRecord(it, ratio, delta, eta))

    trace = SearchTrace(tuple(records), converged, restarts, ratio)
    return inst, trace
