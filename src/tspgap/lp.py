"""Self-contained LP layer: bounded-variable primal simplex, global min-cut
separation, and the degree-constrained cutting-plane loop for the subtour
relaxation.

One simplex tableau serves both entry points.  `solve_lp` builds it for a
whole `LinearProgram` and runs two-phase simplex once.  `solve_subtour_lp`
keeps one tableau alive for the whole cutting-plane loop.  Phase 1 on the
degree rows reads neither the costs nor the points, so its outcome (basis,
column statuses, pinned bounds, pivot count) is computed once per n, cached,
and copied into every solve, whose first round goes straight to phase 2.
Each subtour cut is then appended as a row whose artificial enters the
basis at the cut's violation, and phase 1 on that artificial alone followed
by phase 2 re-optimise from the previous optimal basis instead of starting
over.

No external solver is used; the simplex below is exact enough for the desk
scale this package targets (hundreds of variables, tens of rows).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import EdgeWeightVector, Instance, degree_vector, edge_costs, edge_index

# Feasibility / cut-violation tolerance.
FEAS_TOL = 1e-7
# Pivot magnitude below which a column entry is treated as zero.
PIVOT_TOL = 1e-10
# Dantzig pricing switches to Bland's rule after this many pivots of one
# (re-)optimisation.
BLAND_AFTER = 1000
# Each simplex phase may take PIVOT_CAP * (rows + structural columns) pivots.
PIVOT_CAP = 50

# Slack bounds that encode each row relation.
_SLACK_BOUNDS = {"<=": (0.0, math.inf), ">=": (-math.inf, 0.0), "=": (0.0, 0.0)}


class LpError(RuntimeError):
    """Simplex stalled or the cutting-plane loop failed to converge."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min/max c.x subject to the rows A x (rels) b and lo <= x <= hi.

    A is (rows, variables) and rels holds "<=", ">=" or "=" per row; lo and
    hi may hold -inf and inf.  The arrays are stored as read-only floats.
    """

    c: np.ndarray
    A: np.ndarray
    rels: tuple[str, ...]
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    maximize: bool = False

    def __post_init__(self) -> None:
        rels = tuple(self.rels)
        for rel in rels:
            if rel not in _SLACK_BOUNDS:
                raise ValueError(f"unknown relation {rel!r}")
        m, n = len(rels), np.size(self.c)
        if n == 0:
            raise ValueError("LP needs at least one variable")
        for name, shape in (("c", (n,)), ("A", (m, n)), ("b", (m,)), ("lo", (n,)), ("hi", (n,))):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.size == 0 and 0 in shape:
                arr = arr.reshape(shape)  # an empty list for no rows
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rels", rels)
        if np.any(self.lo > self.hi):
            raise ValueError("empty bound interval")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None
    objective_value: float | None
    iterations: int = 0


def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise LpError(f"singular basis: {exc}") from exc


# Variable statuses inside the simplex, and which of them may rise (at the
# lower bound, or free) or fall (at the upper bound, or free) on entering.
_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3
_CAN_RISE = np.array([True, False, False, True])
_CAN_FALL = np.array([False, True, False, True])


class _Tableau:
    """Bounded-variable primal simplex working state that rows can be added to.

    Columns are the structural variables, then one slack per row (bounds
    encode the relation: [0, inf) for <=, (-inf, 0] for >=, [0, 0] for =),
    then one artificial per row.  The initial rows are laid out as
    [structural | slacks | artificials]; each row added later appends its
    slack and its artificial at the end.  A new row's artificial enters the
    basis at the row's residual (sign matched, so its value is >= 0) and the
    other basic values stay as they were, so the basis stays valid and the
    next re-optimisation starts from it: the feasibility step (phase 1 on
    the live artificials, then pivoting them out and pinning them at
    [0, 0]) and then phase 2 on the objective.

    `solve_subtour_lp` starts each solve from a `fork` of the cached,
    read-only degree tableau of `_degree_start`.

    The basic solution is recomputed from the nonbasic values every
    iteration (a dense solve), trading speed for drift-free arithmetic.
    Within one `_minimize` call those values and the pricing masks live in
    per-call arrays updated by scalar writes at each pivot, not rebuilt
    from `status`; the pivots are the same either way (see there).
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray, rels: Sequence[str]):
        m, n = A.shape
        slack_lo, slack_hi = np.array([_SLACK_BOUNDS[rel] for rel in rels]).reshape(m, 2).T
        self.num_struct = n
        self.A = np.hstack([A, np.eye(m)])
        self.b = b
        self.lo = np.concatenate([lo, slack_lo])
        self.hi = np.concatenate([hi, slack_hi])
        self.status = np.where(
            self.lo == -math.inf, np.where(self.hi == math.inf, _FREE, _AT_UPPER), _AT_LOWER
        ).astype(np.int8)
        self.art = np.zeros(n + m, dtype=bool)
        self.pivots = 0
        # Phase-1 artificials matching the sign of each row's residual.
        resid = b - self.A @ self.nonbasic_values()
        self._append_columns(np.diag(np.where(resid >= 0, 1.0, -1.0)), 0.0, math.inf, _BASIC, True)
        self.basis = np.arange(n + m, n + 2 * m)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def ncols(self) -> int:
        return self.A.shape[1]

    def _append_columns(self, cols: np.ndarray, lo: float, hi: float, status: int, art: bool) -> None:
        k = cols.shape[1]
        self.A = np.hstack([self.A, cols])
        self.lo = np.concatenate([self.lo, np.full(k, lo)])
        self.hi = np.concatenate([self.hi, np.full(k, hi)])
        self.status = np.concatenate([self.status, np.full(k, status, dtype=np.int8)])
        self.art = np.concatenate([self.art, np.full(k, art)])

    def add_row(self, coeffs: np.ndarray, rel: str, rhs: float) -> None:
        """Append the row coeffs . x_struct (rel) rhs with its slack at 0 and
        a basic artificial at the residual rhs - coeffs . x."""
        x = self.solution()
        row = np.zeros(self.ncols)
        row[: self.num_struct] = coeffs
        resid = rhs - float(row @ x)
        self.A = np.vstack([self.A, row])
        self.b = np.append(self.b, rhs)
        lo, hi = _SLACK_BOUNDS[rel]
        unit = np.zeros((self.m, 1))
        unit[-1] = 1.0
        self._append_columns(unit, lo, hi, _AT_UPPER if lo == -math.inf else _AT_LOWER, False)
        self._append_columns(unit if resid >= 0 else -unit, 0.0, math.inf, _BASIC, True)
        self.basis = np.append(self.basis, self.ncols - 1)

    def nonbasic_values(self) -> np.ndarray:
        """Each nonbasic column at its bound (free ones at 0), basic ones 0."""
        st = self.status
        return np.where(st == _AT_LOWER, self.lo, np.where(st == _AT_UPPER, self.hi, 0.0))

    def fork(self) -> _Tableau:
        """A copy with its own statuses, basis, bounds and pivot count that
        shares A, b and the artificial mask (no pivot writes them)."""
        tab = copy.copy(self)
        for name in ("lo", "hi", "status", "basis"):
            setattr(tab, name, getattr(self, name).copy())
        return tab

    def solution(self) -> np.ndarray:
        x = self.nonbasic_values()
        x[self.basis] = _solve(self.A[:, self.basis], self.b - self.A @ x)
        return x

    def optimise(self, c: np.ndarray, cap: int, tol: float, start: int | None = None) -> str:
        """Minimise c . x_struct from the current basis.

        The feasibility step (`make_feasible`), then phase 2 on c.  Each
        phase may take up to cap pivots, and Bland's rule takes over after
        BLAND_AFTER pivots counted from start (default: this call's first).
        Returns "optimal", "infeasible" or "unbounded".
        """
        start = self.pivots if start is None else start
        if not self.make_feasible(cap, tol, start):
            return "infeasible"
        c2 = np.zeros(self.ncols)
        c2[: self.num_struct] = c
        return self._minimize(c2, self.pivots + cap, start, tol)

    def make_feasible(self, cap: int, tol: float, start: int) -> bool:
        """Phase 1 on the live (unpinned) artificials, at most cap pivots.

        Returns False if their sum stays above FEAS_TOL.  Otherwise the
        basic ones are pivoted out where possible and all are pinned at 0.
        With no live artificial this does nothing.
        """
        live = self.art & (self.hi > 0)
        if not live.any():
            return True
        self._minimize(live.astype(float), start + cap, start, tol)
        if float(self.solution()[live].sum()) > FEAS_TOL:
            return False
        self._drive_out_artificials()
        self.lo[live] = 0.0
        self.hi[live] = 0.0
        return True

    def _minimize(self, c: np.ndarray, limit: int, start: int, tol: float) -> str:
        """Primal simplex on objective c until optimal, unbounded, or the
        pivot count reaches limit.  Returns "optimal" or "unbounded".

        The call keeps its own per-column state, built once on entry:
        `xn` (each nonbasic column at its bound, as `nonbasic_values`
        gives it), float masks `rise` and `fall` (1.0 where a nonbasic
        movable column may rise or fall on entering), and the bounds and
        the basis as Python lists.  Each pivot or bound flip updates them
        with scalar writes next to `status` and `basis`, so each iteration
        costs its three dense solves plus a handful of numpy calls.

        The pivots are those of the plain loop that rebuilds all of this
        from `status` every iteration (kept as the oracle in the tests):
        `xn` holds the floats `nonbasic_values` would return (the copied
        bound, 0.0 for basic columns), so `b - A @ xn` is the same array;
        `_price` picks the same column (see there); and the ratio test runs
        the same expressions on the same rows in the same order with the
        same 1e-12 tie rules, in Python floats, which round exactly as
        numpy's elementwise float64 does.
        """
        A, b, basis, status = self.A, self.b, self.basis, self.status
        lo, hi = self.lo.tolist(), self.hi.tolist()
        movable = self.lo != self.hi
        rise = (_CAN_RISE[status] & movable).astype(float)
        fall = (_CAN_FALL[status] & movable).astype(float)
        movable = movable.tolist()
        xn = self.nonbasic_values()
        rows = basis.tolist()
        while True:
            if self.pivots >= limit:
                raise LpError(f"simplex exceeded {limit - start} pivots")
            bland = self.pivots - start >= BLAND_AFTER
            Bmat = A[:, basis]
            y = _solve(Bmat.T, c[basis])
            enter, direction = self._price(c - y @ A, tol, bland, rise, fall)
            if enter is None:
                return "optimal"
            xb = _solve(Bmat, b - A @ xn)
            w = _solve(Bmat, A[:, enter]).tolist()

            # Ratio test: the entering variable's own range versus the rows
            # whose basic variable moves toward a finite bound.
            t_best = math.inf
            leave = -1  # -1 means bound flip
            if lo[enter] != -math.inf and hi[enter] != math.inf:
                t_best = hi[enter] - lo[enter]
            for i, (xi, wi) in enumerate(zip(xb.tolist(), w)):
                mag = abs(wi)
                if not mag > PIVOT_TOL:
                    continue
                j = rows[i]
                room = xi - lo[j] if -direction * wi < 0.0 else hi[j] - xi
                if not room < math.inf:
                    continue
                tt = room / mag
                if tt <= 0.0:
                    tt = 0.0
                if tt < t_best - 1e-12:
                    better = True
                elif tt <= t_best + 1e-12 and leave >= 0:
                    # Tie between basic rows: Bland wants the smallest leaving
                    # index, Dantzig the fattest pivot element.
                    if bland:
                        better = j < rows[leave]
                    else:
                        better = mag > abs(w[leave])
                elif tt <= t_best + 1e-12 and leave == -1 and tt < t_best:
                    better = True
                else:
                    better = False
                if better:
                    t_best = min(t_best, tt)
                    leave = i

            if t_best == math.inf:
                return "unbounded"

            self.pivots += 1
            if leave == -1:
                # Bound flip, basis unchanged.
                out, up = enter, direction > 0
            else:
                out, up = rows[leave], not -direction * w[leave] < 0.0
                basis[leave] = rows[leave] = enter
                status[enter] = _BASIC
                xn[enter] = rise[enter] = fall[enter] = 0.0
            status[out] = _AT_UPPER if up else _AT_LOWER
            xn[out] = hi[out] if up else lo[out]
            rise[out] = 0.0 if up else movable[out]
            fall[out] = movable[out] if up else 0.0

    def _price(
        self, d: np.ndarray, tol: float, bland: bool, rise: np.ndarray, fall: np.ndarray
    ) -> tuple[int | None, int]:
        """Entering column and direction (+1 up, -1 down), or (None, 0).

        A column improves if it may move against its reduced cost: rise
        (1.0 where it may rise) and d_j < -tol, or fall and d_j > tol.
        Its score max(-d_j * rise_j, d_j * fall_j) is then |d_j| > tol,
        and every other column scores at most tol (0, or the reduced
        cost's wrong-signed or sub-tolerance side).  So the first column
        of largest score is Dantzig's first improving column of largest
        |d_j|, and the first with score > tol is Bland's first improving
        column (for finite d).  The direction is up exactly when the
        column may rise and d_j < -tol.
        """
        score = np.maximum(-d * rise, d * fall)
        j = int(np.argmax(score > tol if bland else score))
        if not score[j] > tol:
            return None, 0
        return j, 1 if rise[j] and d[j] < -tol else -1

    def _drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials out where possible."""
        for i in range(self.m):
            if not self.art[self.basis[i]]:
                continue
            Bmat = self.A[:, self.basis]
            z = _solve(Bmat.T, np.eye(self.m)[:, i])
            row = z @ self.A
            candidates = ~self.art & (self.status != _BASIC) & (np.abs(row) > 1e-9)
            if candidates.any():
                picked = int(np.argmax(candidates))
                self.status[self.basis[i]] = _AT_LOWER
                self.basis[i] = picked
                self.status[picked] = _BASIC
            # else: redundant row; the artificial stays basic, pinned at zero.


def solve_lp(lp: LinearProgram, *, tol: float = 1e-9) -> LpSolution:
    """Two-phase bounded-variable primal simplex.

    Dantzig pricing with a Bland's-rule fallback after BLAND_AFTER pivots;
    raises LpError if a phase passes PIVOT_CAP * (rows + cols) pivots.
    """
    m, n = lp.A.shape
    tab = _Tableau(lp.A, lp.b, lp.lo, lp.hi, lp.rels)
    outcome = tab.optimise(-lp.c if lp.maximize else lp.c, PIVOT_CAP * (m + n), tol)
    if outcome != "optimal":
        return LpSolution(outcome, None, None, tab.pivots)
    x = tab.solution()[:n]
    return LpSolution("optimal", x, float(np.dot(lp.c, x)), tab.pivots)


@dataclass(frozen=True)
class Cut:
    """A vertex subset S with the weight of edges crossing (S, V − S)."""

    vertices: frozenset[int]
    value: float


def _crossing(n: int, S: Iterable[int]) -> np.ndarray:
    """Mask over edge order of the edges with exactly one end in S."""
    iu, iv = edge_index(n)
    inside = np.zeros(n, dtype=bool)
    inside[list(S)] = True
    return inside[iu] != inside[iv]


def _cut_value(x: EdgeWeightVector, S: frozenset[int]) -> float:
    # cumsum adds in edge order, one term at a time; np.sum would reassociate.
    return float(np.cumsum(x.values[_crossing(x.n, S)])[-1])


def _lex_side(S: Sequence[int], n: int) -> tuple[int, ...]:
    inside = tuple(sorted(S))
    outside = tuple(sorted(set(range(n)) - set(S)))
    return min(inside, outside)


def _stoer_wagner(weights: dict[int, dict[int, float]], vertices: list[int]) -> list[tuple[float, list[int]]]:
    """All cut-of-the-phase candidates (value, vertex group)."""
    active = sorted(vertices)
    groups = {v: [v] for v in active}
    W = {u: dict(weights[u]) for u in active}
    out: list[tuple[float, list[int]]] = []
    while len(active) > 1:
        start = active[0]
        conn = {v: W[start].get(v, 0.0) for v in active if v != start}
        prev, last = start, start
        while conn:
            last = max(conn.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            cut_val = conn.pop(last)
            for v, wt in W[last].items():
                if v in conn:
                    conn[v] += wt
            if conn:
                prev = last
        out.append((cut_val, sorted(groups[last])))
        # Merge last into prev.
        groups[prev].extend(groups.pop(last))
        for v, wt in W.pop(last).items():
            if v == prev:
                continue
            W[prev][v] = W[prev].get(v, 0.0) + wt
            W[v][prev] = W[v].get(prev, 0.0) + wt
            W[v].pop(last, None)
        W[prev].pop(last, None)
        for v in W:
            W[v].pop(last, None)
        active.remove(last)
    return out


def separate_subtour(x: EdgeWeightVector, *, tol: float = FEAS_TOL) -> Cut | None:
    """Most-violated subtour cut via a global minimum cut on the support graph.

    Requires fractional degree 2 everywhere (within 1e-6).  Returns the
    minimum cut as a Cut when its value is below 2 - tol, else None.  Ties
    are broken toward the lexicographically smallest vertex subset.
    """
    n = x.n
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    deg = degree_vector(x)
    if np.abs(deg - 2.0).max() > 1e-6:
        worst = int(np.abs(deg - 2.0).argmax())
        raise ValueError(f"vertex {worst} has fractional degree {deg[worst]:.9f}, expected 2")

    iu, iv = edge_index(n)
    support = np.flatnonzero(x.values)
    weights: dict[int, dict[int, float]] = {i: {} for i in range(n)}
    for u, v, w in zip(iu[support].tolist(), iv[support].tolist(), x.values[support].tolist()):
        weights[u][v] = w
        weights[v][u] = w

    # Disconnected support: every component is a zero cut.
    seen: set[int] = set()
    components: list[list[int]] = []
    for v in range(n):
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for t in weights[u]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        components.append(sorted(comp))
    if len(components) > 1:
        candidates = [(0.0, comp) for comp in components]
    else:
        candidates = _stoer_wagner(weights, list(range(n)))

    best_val = min(v for v, _ in candidates)
    tied = [S for v, S in candidates if v <= best_val + 1e-12]
    S = frozenset(min((_lex_side(S, n) for S in tied)))
    value = _cut_value(x, S)
    if value < 2.0 - tol:
        return Cut(S, value)
    return None


@dataclass(frozen=True)
class SubtourLpResult:
    """Optimal fractional tour of the subtour relaxation.

    pivots is the total simplex pivot count over the cutting-plane loop,
    phase 1 included.
    """

    x: EdgeWeightVector
    cost: float
    cuts: tuple[Cut, ...]
    rounds: int
    pivots: int


@functools.lru_cache(maxsize=32)
def _degree_start(n: int, bland_after: int, pivot_cap: int) -> _Tableau:
    """The degree tableau after `make_feasible`.

    The tableau holds x(delta(v)) = 2 for every vertex and 0 <= x_e <= 1
    over the edges in edge order.  Its feasibility step reads no edge
    costs, so it is the same for every instance on n points.  The simplex
    reads BLAND_AFTER and PIVOT_CAP from this module; they are arguments
    only to key the cache.  Every array of the tableau is read-only:
    callers solve on a `fork()` of it.
    """
    iu, iv = edge_index(n)
    num_edges = len(iu)
    degree = np.zeros((n, num_edges))
    degree[iu, np.arange(num_edges)] = 1.0
    degree[iv, np.arange(num_edges)] = 1.0
    tab = _Tableau(degree, np.full(n, 2.0), np.zeros(num_edges), np.ones(num_edges), ["="] * n)
    if not tab.make_feasible(pivot_cap * (n + num_edges), 1e-9, 0):
        raise LpError("subtour relaxation came back infeasible")
    for arr in (tab.A, tab.b, tab.art, tab.lo, tab.hi, tab.status, tab.basis):
        arr.setflags(write=False)
    return tab


def solve_subtour_lp(inst: Instance, *, cut_tol: float = FEAS_TOL) -> SubtourLpResult:
    """Cutting-plane solve of the subtour relaxation.

    Starts from degree constraints and 0 <= x_e <= 1 over the edges in
    edge order (`edge_index`), adds the single most violated subtour cut
    per round, and stops when a full separation pass finds no cut below
    2 - cut_tol.  One simplex tableau lives for the whole loop.  It is a
    fork of the cached per-n start of `_degree_start`, which has already
    run the first round's phase 1, so the first round is phase 2 alone;
    its pivots still count from 0, phase 1's included, against BLAND_AFTER
    and the cap, as in a solve from scratch.  Each cut is appended as a row
    x(delta(S)) >= 2 whose slack sits at 0 and whose artificial enters the
    basis at 2 - x(delta(S)); phase 1 on that artificial alone and then
    phase 2 re-optimise from the previous optimal basis.
    """
    n = inst.n
    tab = _degree_start(n, BLAND_AFTER, PIVOT_CAP).fork()
    cost = edge_costs(inst)
    num_edges = cost.size

    cuts: list[Cut] = []
    while True:
        # The first round counts from 0, so the cached phase-1 pivots count.
        outcome = tab.optimise(cost, PIVOT_CAP * (tab.m + num_edges), 1e-9, 0 if not cuts else None)
        if outcome != "optimal":
            raise LpError(f"subtour relaxation came back {outcome}")
        values = tab.solution()[:num_edges]
        x = EdgeWeightVector(n, np.maximum(values, 0.0))
        cut = separate_subtour(x, tol=cut_tol)
        if cut is None:
            return SubtourLpResult(x, float(np.dot(cost, values)), tuple(cuts), len(cuts), tab.pivots)
        if len(cuts) == 1000:
            raise LpError("cutting-plane loop failed to converge after 1000 rounds")
        cuts.append(cut)
        tab.add_row(_crossing(n, cut.vertices).astype(float), ">=", 2.0)
