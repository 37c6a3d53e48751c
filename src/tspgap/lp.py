"""Self-contained LP layer: bounded-variable primal simplex on a tableau that
rows can be added to, global min-cut separation, and the subtour relaxation.

Both entry points run the one lazy-row loop `_reoptimise`: `solve_lp` with no
separator, `solve_subtour_lp` with the subtour separator on a fork of the
cached degree start.  No external solver is used; the simplex below is exact
enough for the desk scale this package targets (hundreds of variables, tens
of rows).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import EdgeWeightVector, Instance, components, degree_vector, edge_costs, edge_index, ordered_sum

# Feasibility / cut-violation tolerance.
FEAS_TOL = 1e-7
# Pivot magnitude below which a column entry is treated as zero.
PIVOT_TOL = 1e-10
# Reduced-cost magnitude a column must exceed to enter the basis.  It is
# absolute for `solve_lp`; `solve_subtour_lp` prices on its costs scaled by a
# power of two into [0.5, 1), so there it is relative to the largest cost.
PRICE_TOL = 1e-9
# Dantzig pricing switches to Bland's rule after this many pivots of one
# (re-)optimisation.
BLAND_AFTER = 1000
# Each simplex phase may take PIVOT_CAP * (rows + structural columns) pivots.
PIVOT_CAP = 50
# `_reoptimise` adds at most this many rows.
ROUND_CAP = 1000
# Vertex count up to which `separate_subtour` scores every cut at once.
ENUM_CUT_MAX = 10

# Slack bounds that encode each row relation.
_SLACK_BOUNDS = {"<=": (0.0, math.inf), ">=": (-math.inf, 0.0), "=": (0.0, 0.0)}


class LpError(RuntimeError):
    """Simplex stalled or the lazy-row loop failed to converge."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min c.x subject to the rows A x (rels) b and lo <= x <= hi.

    A is (rows, variables) and rels holds "<=", ">=" or "=" per row; lo and
    hi may hold -inf and inf.  The arrays are stored as read-only floats.
    """

    c: np.ndarray
    A: np.ndarray
    rels: tuple[str, ...]
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

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
        if (self.lo > self.hi).any():
            raise ValueError("empty bound interval")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None
    objective_value: float | None
    iterations: int = 0


def _solve(M: np.ndarray, rhs: np.ndarray, _gesv=np.linalg._umath_linalg.solve1) -> np.ndarray:
    """M^-1 rhs for a square float64 M and a vector rhs, bit for bit as
    `np.linalg.solve` computes it (the tests pin this).

    `_gesv`, bound once here, is the LAPACK gesv gufunc that
    `np.linalg.solve` itself calls for a vector right-hand side.  Calling it
    directly skips that wrapper's array conversion, type resolution and
    shape checks, which take about as long as the solve itself on a small
    basis, and the simplex makes up to three solves per iteration.
    Its callers run under `_kernel_policy`, which turns gesv's report of a
    singular matrix into LpError.
    """
    return _gesv(M, rhs)


def _kernel_policy(method):
    """`method` under the simplex kernel's floating-point policy, set once per call, not per
    `_solve`: the invalid flag (gesv's singular-matrix report) raises LpError; others are ignored."""
    @functools.wraps(method)
    def call(*args, **kwargs):
        try:
            with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
                return method(*args, **kwargs)
        except FloatingPointError as exc:
            raise LpError("singular basis: Singular matrix") from exc

    return call


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
    next `optimise` starts from it.

    The kernel is `optimise(c)`, `add_row` and `fork`, and `_reoptimise`
    is the one loop over them.  `optimise` returns the basic solution of
    the basis it stopped on.

    The basic solution is recomputed from the nonbasic values every
    iteration (a dense solve), trading speed for drift-free arithmetic.
    An iteration is three `_solve` calls plus a handful of numpy calls,
    two after a bound flip (the duals are kept).  At n = 40 LAPACK's own
    work dominates it.  Within one `_minimize` call those values and the
    pricing masks live in per-call arrays updated by scalar writes at each
    pivot, not rebuilt from `status`; the pivots are the same either way
    (see there).
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray, rels: Sequence[str]):
        m, n = A.shape
        slack_lo, slack_hi = np.array([_SLACK_BOUNDS[rel] for rel in rels]).reshape(m, 2).T
        self.num_struct = n
        self.b = b
        self.lo = np.concatenate([lo, slack_lo, np.zeros(m)])
        self.hi = np.concatenate([hi, slack_hi, np.full(m, math.inf)])
        self.status = np.where(
            self.lo == -math.inf, np.where(self.hi == math.inf, _FREE, _AT_UPPER), _AT_LOWER
        ).astype(np.int8)
        self.status[n + m :] = _BASIC
        self.art = np.arange(n + 2 * m) >= n + m
        self.basis = np.arange(n + m, n + 2 * m)
        self.pivots = 0
        # Bland's rule and phase 1's cap count pivots from here (see add_row).
        self.start = 0
        # Phase-1 artificials matching the sign of each row's residual.
        A = np.hstack([A, np.eye(m)])
        resid = b - A @ self.nonbasic_values()[: n + m]
        self.A = np.hstack([A, np.diag(np.where(resid >= 0, 1.0, -1.0))])

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def ncols(self) -> int:
        return self.A.shape[1]

    @property
    def phase_cap(self) -> int:
        return PIVOT_CAP * (self.m + self.num_struct)

    def add_row(self, coeffs: np.ndarray, rel: str, rhs: float, x: np.ndarray) -> None:
        """Append the row coeffs . x_struct (rel) rhs with its slack at 0 and
        a basic artificial at the residual rhs - coeffs . x, where x is the
        point the last `optimise` returned."""
        row = np.zeros(self.ncols)
        row[: self.num_struct] = coeffs
        resid = rhs - float(row @ x)
        self.A = np.vstack([self.A, row])
        self.b = np.append(self.b, rhs)
        lo, hi = _SLACK_BOUNDS[rel]
        unit = np.zeros((self.m, 1))
        unit[-1] = 1.0
        self.A = np.hstack([self.A, unit, unit if resid >= 0 else -unit])
        self.lo = np.append(self.lo, [lo, 0.0])
        self.hi = np.append(self.hi, [hi, math.inf])
        self.status = np.append(self.status, np.array([_AT_UPPER if lo == -math.inf else _AT_LOWER, _BASIC], np.int8))
        self.art = np.append(self.art, [False, True])
        self.basis = np.append(self.basis, self.ncols - 1)
        self.start = self.pivots

    def nonbasic_values(self) -> np.ndarray:
        """Each nonbasic column at its bound (free ones at 0), basic ones 0."""
        st = self.status
        return np.where(st == _AT_LOWER, self.lo, np.where(st == _AT_UPPER, self.hi, 0.0))

    def fork(self) -> _Tableau:
        """A copy with its own statuses, basis, bounds, pivot count and start
        that shares A, b and the artificial mask (no pivot writes them)."""
        tab = copy.copy(self)
        for name in ("lo", "hi", "status", "basis"):
            setattr(tab, name, getattr(self, name).copy())
        return tab

    @_kernel_policy
    def optimise(self, c: np.ndarray) -> tuple[str, np.ndarray]:
        """Minimise c . x_struct from the current basis.

        Phase 1 on the live (unpinned) artificials, if any: "infeasible" if
        their sum stays above FEAS_TOL, else the basic ones are pivoted out
        where possible and all are pinned at 0.  Then phase 2 on c.  Each
        phase may take `phase_cap` = PIVOT_CAP * (rows + structural columns)
        pivots, phase 1's counted from `start`, and Bland's rule takes over
        BLAND_AFTER pivots after `start`.  Returns "optimal", "infeasible" or
        "unbounded" with the basic solution (every column) of the basis the
        deciding phase stopped on: phase 1's if "infeasible", else phase 2's.
        """
        live = self.art & (self.hi > 0)
        if live.any():
            x = self._minimize(live.astype(float), self.start + self.phase_cap)[1]
            if float(x[live].sum()) > FEAS_TOL:
                return "infeasible", x
            self._drive_out_artificials()
            self.hi[live] = 0.0
        c2 = np.zeros(self.ncols)
        c2[: self.num_struct] = c
        return self._minimize(c2, self.pivots + self.phase_cap)

    def _minimize(self, c: np.ndarray, limit: int) -> tuple[str, np.ndarray]:
        """Primal simplex on objective c until optimal, unbounded, or the
        pivot count reaches limit.  Returns "optimal" or "unbounded" with
        the basic solution of the basis it stopped on.

        The call keeps its own per-column state, built once on entry:
        `xn` (each nonbasic column at its bound, as `nonbasic_values`
        gives it), float masks `rise` and `fall` (1.0 where a nonbasic
        movable column may rise or fall on entering), and the bounds and
        the basis as Python lists.  Each pivot or bound flip updates them
        with scalar writes next to `status` and `basis`.

        A bound flip keeps the reduced costs (they depend on the basis alone).
        Both exits return `xn` with the basic values `xb` of their last
        iteration in place: that basis's solution, with no further solve.

        The pivots are those of the plain loop that rebuilds all of this
        from `status` every iteration (kept as the oracle in the tests):
        `xn` holds the floats `nonbasic_values` would return (the copied
        bound, 0.0 for basic columns), so `b - A @ xn` is the same array;
        `_price` picks the same column (see there); and the ratio test runs
        the same expressions on the same rows in the same order with the
        same 1e-12 tie rules, in Python floats, which round exactly as
        numpy's elementwise float64 does.
        """
        A, b, basis, status, start = self.A, self.b, self.basis, self.status, self.start
        lo, hi = self.lo.tolist(), self.hi.tolist()
        movable = self.lo != self.hi
        rise = (_CAN_RISE[status] & movable).astype(float)
        fall = (_CAN_FALL[status] & movable).astype(float)
        movable = movable.tolist()
        xn = self.nonbasic_values()
        rows = basis.tolist()
        d = None
        while True:
            if self.pivots >= limit:
                raise LpError(f"simplex exceeded {self.phase_cap} pivots")
            bland = self.pivots - start >= BLAND_AFTER
            Bmat = A.take(basis, axis=1)
            xb = _solve(Bmat, b - A @ xn)
            if d is None:
                d = c - _solve(Bmat.T, c[basis]) @ A
            enter, direction = self._price(d, bland, rise, fall)
            if enter is None:
                xn[basis] = xb
                return "optimal", xn
            w = _solve(Bmat, A[:, enter]).tolist()

            # Ratio test: the entering variable's own range (a bound flip,
            # inf unless both bounds are finite) versus the rows whose basic
            # variable moves toward a finite bound.
            t_best = hi[enter] - lo[enter]
            leave = -1  # -1 means bound flip
            for i, (xi, wi) in enumerate(zip(xb.tolist(), w)):
                mag = abs(wi)
                if not mag > PIVOT_TOL:
                    continue
                j = rows[i]
                room = xi - lo[j] if -direction * wi < 0.0 else hi[j] - xi
                if not room < math.inf:
                    continue
                tt = room / mag if room > 0.0 else 0.0
                if leave == -1:
                    better = tt < t_best  # strictly below the bound flip's step
                else:
                    # 1e-12 below the leading row, or within 1e-12 of it and
                    # winning the tie: Bland wants the smallest leaving
                    # index, Dantzig the fattest pivot element.
                    better = tt < t_best - 1e-12 or tt <= t_best + 1e-12 and (
                        j < rows[leave] if bland else mag > abs(w[leave])
                    )
                if better:
                    t_best = min(t_best, tt)
                    leave = i

            if t_best == math.inf:
                xn[basis] = xb
                return "unbounded", xn

            self.pivots += 1
            if leave == -1:
                # Bound flip, basis unchanged.
                out, up = enter, direction > 0
            else:
                out, up = rows[leave], not -direction * w[leave] < 0.0
                basis[leave] = rows[leave] = enter
                status[enter] = _BASIC
                xn[enter] = rise[enter] = fall[enter] = 0.0
                d = None
            status[out] = _AT_UPPER if up else _AT_LOWER
            xn[out] = hi[out] if up else lo[out]
            rise[out] = 0.0 if up else movable[out]
            fall[out] = movable[out] if up else 0.0

    def _price(self, d: np.ndarray, bland: bool, rise: np.ndarray, fall: np.ndarray) -> tuple[int | None, int]:
        """Entering column and direction (+1 up, -1 down), or (None, 0).

        With tol = PRICE_TOL, a column improves if it may move against its
        reduced cost: rise (1.0 where it may rise) and d_j < -tol, or fall
        and d_j > tol.  Its score max(-d_j * rise_j, d_j * fall_j) is then
        |d_j| > tol, and every other column scores at most tol (0, or the
        reduced cost's wrong-signed or sub-tolerance side).  So the first column
        of largest score is Dantzig's first improving column of largest
        |d_j|, and the first with score > tol is Bland's first improving
        column (for finite d).  The direction is up exactly when the
        column may rise and d_j < -tol.
        """
        tol = PRICE_TOL
        score = np.maximum(-d * rise, d * fall)
        j = int((score > tol).argmax() if bland else score.argmax())
        if not score.item(j) > tol:
            return None, 0
        return j, 1 if rise.item(j) and d.item(j) < -tol else -1

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


def _reoptimise(tab: _Tableau, c: np.ndarray, separate: Callable | None = None) -> tuple[str, np.ndarray]:
    """Optimise c on `tab`; then, while `separate` maps the structural part
    of the optimum to a row (coeffs, rel, rhs), `add_row` it and re-optimise
    from the same basis.  Returns the last `optimise`'s outcome and point.
    Raises LpError when a row past ROUND_CAP is asked for.
    """
    added = 0
    while True:
        outcome, x = tab.optimise(c)
        row = None if outcome != "optimal" or separate is None else separate(x[: tab.num_struct])
        if row is None:
            return outcome, x
        if added == ROUND_CAP:
            raise LpError(f"lazy-row loop failed to converge after {ROUND_CAP} rounds")
        added += 1
        tab.add_row(*row, x)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase bounded-variable primal simplex.

    Dantzig pricing with a Bland's-rule fallback after BLAND_AFTER pivots;
    raises LpError if a phase passes PIVOT_CAP * (rows + cols) pivots.
    """
    tab = _Tableau(lp.A, lp.b, lp.lo, lp.hi, lp.rels)
    outcome, x = _reoptimise(tab, lp.c)
    if outcome != "optimal":
        return LpSolution(outcome, None, None, tab.pivots)
    x = x[: tab.num_struct]
    return LpSolution(outcome, x, float(np.dot(lp.c, x)), tab.pivots)


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


def _cut_below(x: EdgeWeightVector, S: frozenset[int], tol: float) -> Cut | None:
    """Cut(S, x(delta(S))) if that value is below 2 - tol, else None."""
    value = ordered_sum(x.values[_crossing(x.n, S)])
    return Cut(S, value) if value < 2.0 - tol else None


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
            # conn's keys stay ascending (built from sorted active, only popped): ties go to the smallest.
            last = max(conn, key=conn.__getitem__)
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
        active.remove(last)
    return out


@functools.lru_cache(maxsize=None)
def _cut_masks(n: int) -> np.ndarray:
    """Read-only float crossing masks over edge order: row k is the subset {v : bit v of 2k + 1}."""
    iu, iv = edge_index(n)
    inside = (2 * np.arange(2 ** (n - 1) - 1)[:, None] + 1) >> np.arange(n) & 1
    masks = (inside[:, iu] != inside[:, iv]).astype(float)
    masks.setflags(write=False)
    return masks


def separate_subtour(x: EdgeWeightVector, *, tol: float = FEAS_TOL) -> Cut | None:
    """Most-violated subtour cut via a global minimum cut on the support graph.

    Requires fractional degree 2 everywhere (within 1e-6).  Returns the
    minimum cut, by its side holding vertex 0, when its value is below
    2 - tol, else None.  Ties within 1e-12 among the components of a
    disconnected support, else among Stoer-Wagner's cuts of the phase, go
    to the lexicographically smallest side.  Up to ENUM_CUT_MAX vertices
    the scores of all cuts (their round-off is far below 1e-9) settle it
    unless the least is below 2 - tol + 1e-9 and within 1e-9 of another.
    """
    n = x.n
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    deg = degree_vector(x)
    if np.abs(deg - 2.0).max() > 1e-6:
        worst = int(np.abs(deg - 2.0).argmax())
        raise ValueError(f"vertex {worst} has fractional degree {deg[worst]:.9f}, expected 2")
    if n <= ENUM_CUT_MAX:
        scores = _cut_masks(n) @ x.values
        k = int(scores.argmin())
        if scores[k] >= 2.0 - tol + 1e-9:
            return None
        if np.count_nonzero(scores <= scores[k] + 1e-9) == 1:
            return _cut_below(x, frozenset(v for v in range(n) if (2 * k + 1) >> v & 1), tol)

    iu, iv = edge_index(n)
    support = np.flatnonzero(x.values)
    edges = list(zip(iu[support].tolist(), iv[support].tolist()))
    comps = components(n, edges)
    if len(comps) > 1:
        # Disconnected support: every component is a zero cut.
        candidates = [(0.0, comp) for comp in comps]
    else:
        weights: dict[int, dict[int, float]] = {i: {} for i in range(n)}
        for (u, v), w in zip(edges, x.values[support].tolist()):
            weights[u][v] = w
            weights[v][u] = w
        candidates = _stoer_wagner(weights, list(range(n)))

    best_val = min(v for v, _ in candidates)
    tied = [S if 0 in S else sorted(set(range(n)).difference(S)) for v, S in candidates if v <= best_val + 1e-12]
    return _cut_below(x, frozenset(min(tied)), tol)


@dataclass(frozen=True)
class SubtourLpResult:
    """Optimal fractional tour of the subtour relaxation.

    pivots is the total simplex pivot count over the cutting-plane loop,
    phase 1 included.
    """

    x: EdgeWeightVector
    cost: float
    cuts: tuple[Cut, ...]
    pivots: int

    @property
    def rounds(self) -> int:
        """Cut rounds: each adds one cut."""
        return len(self.cuts)


@functools.lru_cache(maxsize=32)
def _degree_start(n: int, bland_after: int, pivot_cap: int) -> _Tableau:
    """The degree tableau after phase 1.

    The tableau holds x(delta(v)) = 2 for every vertex and 0 <= x_e <= 1
    over the edges in edge order.  Phase 1 reads no edge costs, so it is
    the same for every instance on n points.  Phase 2 on zero costs stops
    at its first pricing without a pivot, so `optimise` leaves the tableau
    as phase 1 did.  The simplex reads BLAND_AFTER and PIVOT_CAP from this
    module; they are arguments only to key the cache.  Every array of the
    tableau is read-only: callers solve on a `fork()` of it.
    """
    iu, iv = edge_index(n)
    num_edges = len(iu)
    degree = np.zeros((n, num_edges))
    degree[iu, np.arange(num_edges)] = 1.0
    degree[iv, np.arange(num_edges)] = 1.0
    tab = _Tableau(degree, np.full(n, 2.0), np.zeros(num_edges), np.ones(num_edges), ["="] * n)
    if _reoptimise(tab, np.zeros(num_edges))[0] != "optimal":
        raise LpError("subtour relaxation came back infeasible")
    for arr in (tab.A, tab.b, tab.art, tab.lo, tab.hi, tab.status, tab.basis):
        arr.setflags(write=False)
    return tab


def solve_subtour_lp(inst: Instance) -> SubtourLpResult:
    """The subtour relaxation over the edges in edge order (`edge_index`):
    degree rows, 0 <= x_e <= 1, and one most violated cut x(delta(S)) >= 2
    per round until `separate_subtour` finds none.

    The loop prices on the costs scaled by an exact power of two into
    [0.5, 1), which scales every reduced cost exactly and makes PRICE_TOL
    relative; `cost` is the unscaled c . x.  The first round is phase 2
    alone, since the cached start has run phase 1; its pivots still count
    from 0 against BLAND_AFTER, as in a solve from scratch.  Each round
    stops once no reduced cost exceeds PRICE_TOL relative to the largest
    cost, so `cost` can sit above the optimum: up to 4.7e-11 relative
    above it on degenerate 6-7 point inputs.
    """
    n = inst.n
    cost = edge_costs(inst)
    cuts: list[Cut] = []
    x = None

    def subtour_row(values):
        nonlocal x
        x = EdgeWeightVector(n, np.maximum(values, 0.0))
        cut = separate_subtour(x)
        if cut is None:
            return None
        cuts.append(cut)
        return _crossing(n, cut.vertices).astype(float), ">=", 2.0

    tab = _degree_start(n, BLAND_AFTER, PIVOT_CAP).fork()
    outcome, sol = _reoptimise(tab, np.ldexp(cost, -math.frexp(cost.max())[1]), subtour_row)
    if outcome != "optimal":
        raise LpError(f"subtour relaxation came back {outcome}")
    return SubtourLpResult(x, float(np.dot(cost, sol[: cost.size])), tuple(cuts), tab.pivots)
