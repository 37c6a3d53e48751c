"""Gradient-based local search that pushes an embedded instance toward a
local maximum of the integrality ratio.

For a differentiable norm (p > 1) the tour-length and fractional-cost
gradients are analytic; a common ascent direction over the pool of
optimal and near-optimal tours is found by a small auxiliary LP, and a
binary line search accepts a step only when the exact recomputed ratio
strictly increases.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import EdgeWeightVector, Instance, NormSpec, Tour, edge_costs, edge_index, fractional_cost, tour_length
from .exact import ENUM_MAX, HELD_KARP_MAX, checked_ratio, enumerate_tours, held_karp, tour_successors
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
    """Optimal and near-optimal tours, sorted by `Tour.order`, and the
    optimum length `reference` the pool was built against."""

    tours: tuple[Tour, ...]
    reference: float

    def __post_init__(self) -> None:
        if not self.tours:
            raise ValueError("empty tour pool")


def build_tour_pool(inst: Instance, window: float) -> TourPool:
    """Exhaustive pool of all tours within `window` of the optimum.

    Only for n <= ENUM_MAX, which keeps the pool provably complete; larger
    instances grow a pool from tours discovered during the search.  The
    enumerated rows are canonical and in lexicographic order, so the pool
    comes out sorted.
    """
    n = inst.n
    if n > ENUM_MAX:
        raise ValueError(f"n = {n} exceeds enumeration cap {ENUM_MAX}")
    P = enumerate_tours(n)
    lengths = inst.distance_matrix()[P, tour_successors(n)].sum(axis=1)
    opt = float(lengths.min())
    return TourPool(tuple(Tour(row) for row in P[lengths <= opt + window].tolist()), opt)


# -- gradients -------------------------------------------------------------


def _edge_terms(inst: Instance, u: np.ndarray, v: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """weight * d||pts[u] - pts[v]||_p / d pts[u] for each edge (u, v); u, v
    and weight share one shape, and the coordinates form a last axis."""
    p = inst.norm.p
    if not (math.isfinite(p) and p > 1):
        raise ValueError("gradients require a finite norm exponent p > 1")
    diff = inst.points[u] - inst.points[v]
    # The norms' last powers are per-edge float pows: numpy's array power
    # may take a sqrt or SIMD path whose last bits differ.
    sums = (np.abs(diff) ** p).sum(axis=-1)
    scale = np.array([(s ** (1.0 / p)) ** (p - 1.0) for s in sums.ravel().tolist()]).reshape(sums.shape)
    return weight[..., None] * np.sign(diff) * np.abs(diff) ** (p - 1.0) / scale[..., None]


def _tour_gradients(inst: Instance, orders: np.ndarray) -> np.ndarray:
    """grad_tour_length of each row of `orders` (tours, n).  A vertex gets its
    outgoing edge's term minus its incoming one's, plus 0.0 (-0.0 to 0.0): for
    finite terms, bit for bit the sum 0 + term + term in tour order.  Position
    i's next and previous are the indices i + 1 - n and i - 1 (negative wraps)."""
    k, n = orders.shape
    term = _edge_terms(inst, orders, orders[:, np.arange(1 - n, 1)], np.ones((k, n)))
    G = np.empty((k, n, inst.dim))
    G[np.arange(k)[:, None], orders] = term - term[:, np.arange(-1, n - 1)] + 0.0
    return G.reshape(k, -1)


def grad_tour_length(inst: Instance, t: Tour) -> np.ndarray:
    """Gradient of the tour length with respect to every coordinate, as an
    (n*d,) array in vertex-major order (vertex 0 axis 0, vertex 0 axis 1, ...).

    Per coordinate (vertex m, axis a) this is the sum over tour neighbors q
    of sgn(v_m[a] - q[a]) |v_m[a] - q[a]|^(p-1) / ||v_m - q||_p^(p-1).
    """
    return _tour_gradients(inst, np.array([t.order]))[0]


def grad_fractional(inst: Instance, x: EdgeWeightVector) -> np.ndarray:
    """Weighted analogue of grad_tour_length over the support of x."""
    if x.n != inst.n:
        raise ValueError(f"weight vector on {x.n} vertices, instance has {inst.n}")
    iu, iv = edge_index(x.n)
    support = np.flatnonzero(x.values)
    u, v = iu[support], iv[support]
    term = _edge_terms(inst, u, v, x.values[support])
    # bincount adds from 0.0 in input order: edge by edge, +term at u, -term
    # at v, into the bin of each (vertex, axis) in vertex-major order.
    d = inst.dim
    bins = np.column_stack([u, v]).reshape(-1, 1) * d + np.arange(d)
    return np.bincount(bins.ravel(), np.concatenate([term, -term], axis=1).ravel(), minlength=inst.n * d)


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
    # grad_g of each pooled tour, with the fractional term computed once.
    frac = r * grad_fractional(inst, x)
    grads = _tour_gradients(inst, np.array([t.order for t in pool.tours])) - frac
    m, nd = grads.shape
    # Variables: w_0 .. w_{nd-1}, then delta (free); rows <g_T, w> - delta >= 0.
    # Maximising delta is minimising -delta.
    lp = LinearProgram(
        c=-np.append(np.zeros(nd), 1.0),
        A=np.hstack([grads, np.full((m, 1), -1.0)]),
        rels=(">=",) * m,
        b=np.zeros(m),
        lo=np.append(np.full(nd, -1.0), -math.inf),
        hi=np.append(np.ones(nd), math.inf),
    )
    sol = solve_lp(lp)
    return sol.values[:nd], float(sol.values[nd])


def local_opt_certificate(
    inst: Instance,
    pool: TourPool,
    x: EdgeWeightVector,
    *,
    epsilon1: float,
) -> bool:
    """True iff the improvement LP finds no common ascent direction of
    value above epsilon1.  Valid as a certificate only when the pool holds
    every optimal tour (within its window)."""
    r = pool.reference / fractional_cost(inst, x)
    _, delta = improvement_lp(inst, pool, x, r)
    return delta <= epsilon1


def exact_pool_certificate(inst: Instance, params: LocalSearchParams) -> bool:
    """local_opt_certificate over every tour within params' window (n <= ENUM_MAX)."""
    exact = held_karp(inst)
    lp = solve_subtour_lp(inst)
    pool = build_tour_pool(inst, params.epsilon3 * exact.length)
    return local_opt_certificate(inst, pool, lp.x, epsilon1=params.epsilon1)


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

    @property
    def final_ratio(self) -> float:
        return self.records[-1].ratio


_RESTART_CAP = 20000
_MAX_HALVINGS = 60
_norm_spec = functools.lru_cache(maxsize=8)(NormSpec)


def random_instance(n: int, p: float, rng: np.random.Generator) -> Instance:
    """Uniform points in the unit square under the p-norm (one `NormSpec` per p)."""
    return Instance(rng.random((n, 2)), _norm_spec(p))


@functools.lru_cache(maxsize=None)
def _vertex_table() -> tuple[np.ndarray, int]:
    """(rows, k): every vertex of the 6-point subtour polytope over edge
    order, the first k = 60 rows the tours of `enumerate_tours(6)`, then the
    60 prism points, 1/2 on the edges of two disjoint triangles and 1 on a
    perfect matching between them (Boyd & Cunningham, Math. of OR 16(2),
    1991).  Below six points every vertex is a tour.  Cached; read-only."""
    tours, nxt = enumerate_tours(6), tour_successors(6)
    k = np.arange(len(tours))[:, None]
    adj = np.zeros((len(tours), 6, 6))
    adj[k, tours, nxt] = adj[k, nxt, tours] = 1.0
    prisms = []
    for pair in itertools.combinations(range(1, 6), 2):
        a, b = [0, *pair], [v for v in range(1, 6) if v not in pair]
        for matched in itertools.permutations(b):
            m = np.zeros((6, 6))
            m[np.ix_(a, a)] = m[np.ix_(b, b)] = 0.5
            m[a, matched] = m[matched, a] = 1.0
            prisms.append(m)
    iu, iv = edge_index(6)
    table = np.concatenate([adj, prisms])[:, iu, iv]
    table.setflags(write=False)
    return table, len(tours)


def _ratio_state(inst: Instance, floor: float) -> tuple[float, float, EdgeWeightVector, Tour] | None:
    """(ratio, optimal length, LP optimum, an optimal tour) when OPT/LP of
    `inst` exceeds floor >= 1, else None.  At n = 6 the vertex table first
    settles a state at most floor * (1 - 1e-9): OPT is its least tour row
    and LP its least row, and the margin is far above the LP's round-off."""
    if inst.n == 6:
        table, tours = _vertex_table()
        values = table @ edge_costs(inst)
        if values[:tours].min() <= floor * values.min() * (1 - 1e-9):
            return None
    lp = solve_subtour_lp(inst)
    values = lp.x.values
    if (np.abs(values[values > 0] - 1.0) <= _INTEGRAL_TOL).all():
        # A 0/1 optimum that passed separation is a Hamiltonian cycle, so
        # OPT = LP: ratio 1, with no Held-Karp needed.
        return None
    exact = held_karp(inst)
    ratio = checked_ratio(exact.length, lp.cost)
    return (ratio, exact.length, lp.x, exact.tour) if ratio > floor else None


def local_search(n: int, params: LocalSearchParams) -> tuple[Instance, SearchTrace]:
    """Push a random instance to a local maximum of the integrality ratio.

    Random instances are drawn until one has ratio above 1 + epsilon0;
    from there, each iteration solves the improvement LP over the pool of
    near-optimal tours and line-searches along the common ascent direction,
    accepting a step only when the exact recomputed ratio strictly
    increases.  Terminates when the LP value drops to epsilon1, the step
    floor epsilon2 is hit, or max_iters runs out (best-so-far, flagged
    non-converged in the trace).  `_ratio_state` settles each draw and step
    against the ratio it must beat.  Needs 6 <= n <= HELD_KARP_MAX.
    """
    if not 6 <= n <= HELD_KARP_MAX:
        raise ValueError(
            f"local search needs 6 <= n <= {HELD_KARP_MAX}, got {n}: up to 5 points every vertex of the "
            f"subtour polytope is a tour, so every ratio is 1, and Held-Karp stops at {HELD_KARP_MAX}"
        )
    rng = np.random.default_rng(params.rng_seed)
    for restarts in range(1, _RESTART_CAP + 1):
        inst = random_instance(n, params.p, rng)
        state = _ratio_state(inst, 1.0 + params.epsilon0)
        if state is not None:
            break
    else:
        raise LocalSearchError(
            f"no random {n}-point start with ratio > 1 + {params.epsilon0} in {_RESTART_CAP} draws; lower epsilon0"
        )
    ratio, opt_len, x, opt_tour = state

    records = [TraceRecord(0, ratio, 0.0, 0.0)]
    converged = False
    pool: TourPool | None = None
    for it in range(1, params.max_iters + 1):
        window = params.epsilon3 * opt_len
        if n <= ENUM_MAX:
            pool = build_tour_pool(inst, window)
        else:
            grown = {opt_tour, *(pool.tours if pool else ())}
            near = [t for t in grown if tour_length(inst, t) <= opt_len + window]
            pool = TourPool(tuple(sorted(near, key=lambda t: t.order)), opt_len)
        w, delta = improvement_lp(inst, pool, x, ratio)
        if delta <= params.epsilon1:
            converged = True
            break
        step = w.reshape(inst.n, inst.dim)
        # Walk the dyadic step ladder; keep the best strict ratio improvement
        # and stop once gains start shrinking (first-improvement acceptance
        # creeps near an optimum).
        best = None
        for k in range(_MAX_HALVINGS):
            eta = 0.5**k
            if eta < params.epsilon2:
                break
            try:
                cand = Instance(inst.points + eta * step, inst.norm)
            except ValueError:
                continue  # step collapsed two points; shrink
            # A step must beat the best ratio so far, which beats `ratio`.
            state = _ratio_state(cand, ratio if best is None else best[0][0])
            if state is not None:
                best = (state, cand, eta)
            elif best is not None:
                break
        if best is None:
            converged = True  # step floor reached with no exact improvement
            break
        (ratio, opt_len, x, opt_tour), inst, eta = best
        records.append(TraceRecord(it, ratio, delta, eta))

    return inst, SearchTrace(tuple(records), converged, restarts)
