"""The warm-started cutting-plane loop: pivot counts, agreement with HiGHS on
the final cut set, Bland's rule and the pivot cap on the re-optimisations,
rows added to a live tableau, the cached per-n degree start, the simplex
loop against the plain loop it replaced, pivot for pivot, the one lazy-row
loop both solvers share and its round cap, and invariance under scale."""

import contextlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspgap import lp
from tspgap.core import EdgeWeightVector, Instance, NormSpec, edge_costs
from tspgap.lp import LinearProgram, LpError, separate_subtour, solve_lp, solve_subtour_lp


def _random(n, p, seed):
    return Instance(np.random.default_rng(seed).random((n, 2)), NormSpec(p))


def _grid(p=1.0):
    return Instance([(i, j) for i in range(5) for j in range(5)], NormSpec(p))


def _collinear():
    xs = np.sort(np.random.default_rng(12).random(12)) * 10.0
    return Instance([(x, 0.0) for x in xs])


def _two_clusters():
    rng = np.random.default_rng(6)
    return Instance(np.vstack([rng.random((6, 2)), rng.random((6, 2)) + 100.0]))


def _bound_n40():
    # The third of the benchmark's `bound` instances (n = 30, 35, 40).
    rng = np.random.default_rng(2021)
    for n in (30, 35):
        rng.random((n, 2))
    return Instance(rng.random((40, 2)), NormSpec(2.0))


_DIFF_CASES = [
    *((f"random-n{n}-L{p:g}", lambda n=n, p=p: _random(n, p, n)) for n in (8, 20, 40, 60) for p in (1.0, 2.0)),
    ("grid-5x5-L1", _grid),
    ("collinear-12", _collinear),
    ("two-clusters", _two_clusters),
]


@pytest.mark.parametrize("name, make", _DIFF_CASES, ids=[c[0] for c in _DIFF_CASES])
def test_subtour_lp_matches_highs_on_final_cut_set(name, make):
    linprog = pytest.importorskip("scipy.optimize").linprog
    inst = make()
    res = solve_subtour_lp(inst)
    n = inst.n
    iu, iv = np.triu_indices(n, 1)
    cols = np.arange(len(iu))
    cost = [inst.dist(i, j) for i, j in zip(iu.tolist(), iv.tolist())]
    a_eq = np.zeros((n, len(iu)))
    a_eq[iu, cols] = 1.0
    a_eq[iv, cols] = 1.0
    a_ub = []
    for cut in res.cuts:
        inside = np.isin(np.arange(n), sorted(cut.vertices))
        a_ub.append(-(inside[iu] != inside[iv]).astype(float))
    ref = linprog(
        cost,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.full(len(a_ub), -2.0) if a_ub else None,
        A_eq=a_eq,
        b_eq=np.full(n, 2.0),
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert ref.status == 0
    assert abs(res.cost - ref.fun) <= 1e-9 * max(1.0, res.cost)
    assert separate_subtour(res.x) is None


def test_subtour_lp_pivot_count_is_deterministic_and_warm():
    inst = _bound_n40()
    first, second = solve_subtour_lp(inst), solve_subtour_lp(inst)
    assert first.pivots == second.pivots
    assert first.rounds == 8
    # Re-solving every round from scratch took 2,062 pivots here.
    assert 0 < first.pivots <= 2062 // 5


@pytest.mark.parametrize("make", [lambda: _random(20, 2.0, 20), _grid], ids=["random-n20", "grid-5x5-L1"])
def test_bland_rule_from_the_first_pivot_gives_the_same_cost(monkeypatch, make):
    inst = make()
    want = solve_subtour_lp(inst)
    monkeypatch.setattr(lp, "BLAND_AFTER", 0)
    got = solve_subtour_lp(inst)
    assert abs(got.cost - want.cost) <= 1e-9


def test_bland_rule_runs_on_the_warm_re_optimisations(monkeypatch):
    monkeypatch.setattr(lp, "BLAND_AFTER", 0)
    assert solve_subtour_lp(_random(20, 2.0, 20)).rounds > 0


def test_zero_pivot_cap_raises_lp_error(monkeypatch):
    monkeypatch.setattr(lp, "PIVOT_CAP", 0)
    with pytest.raises(LpError, match="exceeded 0 pivots"):
        solve_subtour_lp(_random(8, 2.0, 8))
    prog = LinearProgram(c=[1.0], A=[[1.0]], rels=[">="], b=[1.0], lo=[0.0], hi=[np.inf])
    with pytest.raises(LpError, match="exceeded 0 pivots"):
        solve_lp(prog)


def test_cap_and_infeasibility_on_a_re_optimisation(monkeypatch):
    # min x0 + x1, x0 + x1 = 1, 0 <= x <= 1; then rows are added.
    def fresh():
        tab = lp._Tableau(np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2), np.ones(2), ["="])
        outcome, x = tab.optimise(np.ones(2))
        assert outcome == "optimal"
        return tab, x

    tab, x = fresh()
    tab.add_row(np.array([1.0, 0.0]), ">=", 0.75, x)
    with monkeypatch.context() as mp:
        mp.setattr(lp, "PIVOT_CAP", 0)
        with pytest.raises(LpError, match="exceeded 0 pivots"):
            tab.optimise(np.ones(2))
    tab, x = fresh()
    tab.add_row(np.array([1.0, 1.0]), ">=", 3.0, x)
    assert tab.optimise(np.ones(2))[0] == "infeasible"


def test_cap_message_names_the_cap_of_the_phase_that_ran_over(monkeypatch):
    # Phase 2 of a second optimise may take PIVOT_CAP * (rows + columns) = 0
    # pivots; the pivots the tableau took before do not enter the message.
    tab = lp._Tableau(np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2), np.ones(2), ["="])
    assert tab.optimise(np.ones(2))[0] == "optimal" and tab.pivots == 2
    monkeypatch.setattr(lp, "PIVOT_CAP", 0)
    with pytest.raises(LpError, match="^simplex exceeded 0 pivots$"):
        tab.optimise(np.ones(2))
    assert tab.pivots == 2


def _raises_singular_basis(fn):
    # LpError, and no numpy RuntimeWarning on the way to it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LpError, match="singular basis"):
            fn()


def _singular_tableau():
    tab = lp._Tableau(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0]), np.zeros(2), np.ones(2), ["="] * 2)
    tab.basis = np.array([0, 0])  # one column twice
    return tab


def test_singular_basis_raises_lp_error():
    # Exactly singular systems: LU meets an exact zero pivot in each.  The
    # kernel calls `_solve` under its floating-point policy, so do these.
    rank_deficient = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 0.0, 1.0]])  # column 1 = 2 * column 0
    solve = lp._kernel_policy(lp._solve)
    _raises_singular_basis(lambda: solve(np.zeros((3, 3)), np.ones(3)))
    _raises_singular_basis(lambda: solve(rank_deficient, np.ones(3)))
    _raises_singular_basis(lambda: solve(rank_deficient.T, np.ones(3)))
    _raises_singular_basis(lambda: _singular_tableau().optimise(np.ones(2)))


def test_a_basis_turning_singular_inside_minimize_raises_lp_error(monkeypatch):
    # After the second pricing every row's basic column is the same one, so
    # the next iteration's solve meets a singular basis midway through the
    # simplex loop, after a pivot.
    costs = edge_costs(_random(8, 2.0, 3))
    tab = lp._degree_start(8, lp.BLAND_AFTER, lp.PIVOT_CAP).fork()
    tab.optimise(costs)
    assert tab.pivots - lp._degree_start(8, lp.BLAND_AFTER, lp.PIVOT_CAP).pivots >= 3
    price, calls = lp._Tableau._price, []

    def corrupting_price(self, *args):
        calls.append(self.pivots)
        if len(calls) == 2:
            self.basis[:] = self.basis[0]
        return price(self, *args)

    monkeypatch.setattr(lp._Tableau, "_price", corrupting_price)
    tab = lp._degree_start(8, lp.BLAND_AFTER, lp.PIVOT_CAP).fork()
    before = np.geterr()
    _raises_singular_basis(lambda: tab.optimise(costs))
    assert len(calls) == 2 and calls[1] > calls[0]
    assert np.geterr() == before


@pytest.mark.parametrize("caller", [{}, {"all": "raise"}, {"all": "ignore"}, {"invalid": "ignore", "over": "raise"}])
def test_the_kernel_policy_leaves_the_callers_errstate_as_it_was(caller):
    # The policy is set for each `optimise` call and undone after it, on
    # return and on LpError alike.
    with np.errstate(**caller):
        before = np.geterr()
        tab = lp._degree_start(7, lp.BLAND_AFTER, lp.PIVOT_CAP).fork()
        assert tab.optimise(edge_costs(_random(7, 1.0, 4)))[0] == "optimal"
        assert np.geterr() == before
        with pytest.raises(LpError, match="singular basis"):
            _singular_tableau().optimise(np.ones(2))
        assert np.geterr() == before


def _simplex_like(rng, m):
    # 0/+-1 entries, mostly zero, with some unit (slack-like) columns: bases
    # of this kind are singular now and then.
    M = rng.choice([-1.0, 0.0, 1.0], size=(m, m), p=[0.2, 0.6, 0.2])
    units = rng.random(m) < 0.3
    M[:, units] = np.eye(m)[:, units]
    return M


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.sampled_from(["gaussian", "simplex"]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_solve_matches_numpy_linalg_solve_bit_for_bit(m, kind, transpose, strided_rhs, raising, seed):
    # `_solve` calls the LAPACK gufunc behind `np.linalg.solve` directly; a
    # numpy whose wrapper and gufunc part ways fails here.
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, m)) if kind == "gaussian" else _simplex_like(rng, m)
    if transpose:
        M = M.T  # an F-ordered view, as `_minimize` passes for the duals
    rhs = rng.standard_normal((m, 2))[:, 0] if strided_rhs else rng.standard_normal(m)
    solve = lp._kernel_policy(lp._solve)  # as the kernel calls it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise") if raising else contextlib.nullcontext():
            try:
                want = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                with pytest.raises(LpError, match="singular basis"):
                    solve(M, rhs)
                return
            got = solve(M, rhs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rows_added_to_a_solved_tableau_match_highs(seed):
    # Random bounded LPs solved once, then re-optimised after each of three
    # added rows; every optimum is compared with HiGHS on the rows so far.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    lo = rng.integers(-3, 1, size=n).astype(float)
    hi = lo + rng.integers(1, 5, size=n)
    c = rng.integers(-5, 6, size=n).astype(float)
    rows, rels, rhs = [rng.integers(-3, 4, size=n).astype(float)], ["="], [float(rng.integers(-3, 4))]
    tab = lp._Tableau(np.array(rows), np.array(rhs), lo, hi, rels)
    outcome, x = tab.optimise(c)
    for k in range(4):
        a_ub = [(r if rel == "<=" else -r) for r, rel in zip(rows, rels) if rel != "="]
        b_ub = [(b if rel == "<=" else -b) for b, rel in zip(rhs, rels) if rel != "="]
        a_eq = [r for r, rel in zip(rows, rels) if rel == "="]
        b_eq = [b for b, rel in zip(rhs, rels) if rel == "="]
        ref = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq),
            b_eq=np.array(b_eq),
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        if ref.status == 2:
            assert outcome == "infeasible"
            return
        assert outcome == "optimal"
        assert float(c @ x[:n]) == pytest.approx(ref.fun, abs=1e-7)
        if k == 3:
            return
        rows.append(rng.integers(-3, 4, size=n).astype(float))
        rels.append(("<=", "=", ">=")[int(rng.integers(0, 3))])
        rhs.append(float(rng.integers(-4, 5)))
        tab.add_row(rows[-1], rels[-1], rhs[-1], x)
        outcome, x = tab.optimise(c)


def _degree_rows(n):
    # x(delta(v)) = 2 for every vertex, 0 <= x_e <= 1, as tableau arguments.
    iu, iv = np.triu_indices(n, 1)
    cols = np.arange(len(iu))
    degree = np.zeros((n, len(iu)))
    degree[iu, cols] = 1.0
    degree[iv, cols] = 1.0
    return degree, np.full(n, 2.0), np.zeros(len(iu)), np.ones(len(iu)), ["="] * n


def _fresh_degree_start(n, bland_after, pivot_cap):
    # What a solve from scratch starts from: the degree tableau before phase 1.
    return lp._Tableau(*_degree_rows(n))


def _certify_n13():
    # The first of the benchmark's `certify` random instances.
    return Instance(np.random.default_rng(2021).random((13, 2)), NormSpec(1.0))


def _outcome(inst):
    try:
        res = solve_subtour_lp(inst)
    except LpError as exc:
        return str(exc)
    return res.cost.hex(), res.rounds, res.pivots, res.x


@pytest.mark.parametrize("n", range(3, 17))
def test_cached_degree_start_matches_a_fresh_feasibility_step(n):
    fresh = _fresh_degree_start(n, lp.BLAND_AFTER, lp.PIVOT_CAP)
    assert fresh.optimise(np.zeros(n * (n - 1) // 2))[0] == "optimal"
    cached = lp._degree_start(n, lp.BLAND_AFTER, lp.PIVOT_CAP)
    for name in ("A", "b", "art", "basis", "status", "lo", "hi"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name
    assert cached.pivots == fresh.pivots > 0


def test_cached_degree_start_is_read_only_and_forks_copy_it():
    start = lp._degree_start(7, lp.BLAND_AFTER, lp.PIVOT_CAP)
    shared = {"A": start.A, "b": start.b, "art": start.art}
    state = {name: getattr(start, name) for name in ("lo", "hi", "status", "basis")}
    for name, arr in {**shared, **state}.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    tab = start.fork()
    for name, arr in state.items():
        assert not np.shares_memory(getattr(tab, name), arr), name
        getattr(tab, name)[0] = arr[0]


def test_solves_do_not_change_the_cached_start():
    # A, then a different instance B with cuts, then A again.
    a, b = _random(13, 2.0, 113), _random(13, 1.0, 213)
    start = lp._degree_start(13, lp.BLAND_AFTER, lp.PIVOT_CAP)
    before = {name: getattr(start, name).copy() for name in ("lo", "hi", "status", "basis")}
    first = solve_subtour_lp(a)
    assert solve_subtour_lp(b).rounds > 0
    again = solve_subtour_lp(a)
    assert first.rounds > 0
    assert (again.cost.hex(), again.x, again.pivots) == (first.cost.hex(), first.x, first.pivots)
    for name, arr in before.items():
        assert np.array_equal(getattr(start, name), arr), name


@pytest.mark.parametrize("bland_after, pivot_cap", [(30, 50), (10, 50), (0, 50), (1000, 1), (1000, 0)])
def test_limits_are_read_per_call(monkeypatch, bland_after, pivot_cap):
    inst = _certify_n13()
    # The start under the default limits is cached before they change.
    phase1 = lp._degree_start(13, lp.BLAND_AFTER, lp.PIVOT_CAP).pivots
    if bland_after == 30:
        # Bland takes over in the first round's phase 2.
        assert phase1 < bland_after < solve_subtour_lp(inst).pivots
    monkeypatch.setattr(lp, "BLAND_AFTER", bland_after)
    monkeypatch.setattr(lp, "PIVOT_CAP", pivot_cap)
    cached = _outcome(inst)
    monkeypatch.setattr(lp, "_degree_start", _fresh_degree_start)
    assert cached == _outcome(inst)
    if pivot_cap == 0:
        assert cached == "simplex exceeded 0 pivots"


def test_bland_rule_from_the_first_phase_1_pivot(monkeypatch):
    seen = []
    price = lp._Tableau._price

    def spy(self, d, bland, rise, fall):
        seen.append((self.pivots, bland))
        return price(self, d, bland, rise, fall)

    lp._degree_start.cache_clear()
    solve_subtour_lp(_certify_n13())  # caches the start under the default limits only
    monkeypatch.setattr(lp._Tableau, "_price", spy)
    monkeypatch.setattr(lp, "BLAND_AFTER", 0)
    solve_subtour_lp(_certify_n13())
    assert seen[0] == (0, True)
    assert all(bland for _, bland in seen)


def test_bland_count_restarts_at_add_row_and_forks_keep_the_start(monkeypatch):
    # With BLAND_AFTER = 1, Dantzig prices only at the count origin: 0 on a
    # fresh tableau, the pivot count at the last `add_row` after one.
    seen = []
    price = lp._Tableau._price

    def spy(self, d, bland, rise, fall):
        seen.append((self.pivots, bland))
        return price(self, d, bland, rise, fall)

    monkeypatch.setattr(lp._Tableau, "_price", spy)
    monkeypatch.setattr(lp, "BLAND_AFTER", 1)
    inst = _two_clusters()
    cost = edge_costs(inst)

    def solve(tab, origin):
        seen.clear()
        outcome, x = tab.optimise(cost)
        assert outcome == "optimal"
        assert [bland for _, bland in seen] == [p - origin >= 1 for p, _ in seen]
        return seen[0], x

    parent = lp._Tableau(*_degree_rows(inst.n))
    first, x = solve(parent, 0)
    assert first == (0, False)
    # The cached degree start has pivoted from 0, so its fork, a first cut
    # round, prices by Bland from its first call.
    start = lp._degree_start(inst.n, lp.BLAND_AFTER, lp.PIVOT_CAP)
    assert solve(start.fork(), 0)[0] == (start.pivots, True)
    cut = separate_subtour(EdgeWeightVector(inst.n, np.maximum(x[: cost.size], 0.0)))
    parent.add_row(lp._crossing(inst.n, cut.vertices).astype(float), ">=", 2.0, x)
    origin = parent.pivots
    child = parent.fork()
    assert solve(child, origin)[0] == (origin, False)
    assert child.pivots > origin + 1
    # A fork made after pivots still counts from its parent's start.
    assert solve(child.fork(), origin)[0] == (child.pivots, True)


_OPTIMIZED_SCRIPT = """
import hashlib
import numpy as np
from tspgap.core import Instance, NormSpec
from tspgap.localsearch import LocalSearchParams, local_search
from tspgap.lp import solve_subtour_lp

rng = np.random.default_rng(2021)
for n in (30, 35):
    rng.random((n, 2))
inst = Instance(rng.random((40, 2)), NormSpec(2.0))
res = solve_subtour_lp(inst)
print("debug" if __debug__ else "optimized", res.cost.hex(), res.pivots)
inst, trace = local_search(6, LocalSearchParams(rng_seed=19, epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2))
lines = "".join(f"{r.ratio.hex()} {r.delta.hex()} {r.eta.hex()}\\n" for r in trace.records)
print(trace.restarts, len(trace.records), trace.final_ratio.hex(), hashlib.sha256(lines.encode()).hexdigest())
print(hashlib.sha256(np.ascontiguousarray(inst.points).tobytes()).hexdigest())
"""


def test_bound_instance_under_optimize_flag():
    # Under -O (no assert runs) and -W error (any warning fails): the n = 40
    # `bound` instance's golden cost and pivots (tests/test_lp.py), and the
    # seed-19 search golden (tests/test_localsearch.py).
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-W", "error", "-c", _OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == [
        "optimized", "0x1.34a389b5dbb00p+2", "285",
        "259", "25", "0x1.0456983a7f132p+0", "ac4e9be11fd928a6eafa975996a1b104e0e937831effa654b6525b1adec32667",
        "e1186a8261d2d0e8c5eaadc9de17928ae43120f2a7db0bc72afa3579176ed4f5",
    ]


class _ReferenceTableau(lp._Tableau):
    """The simplex loop as it was before its per-call masks: `nonbasic_values`
    and the pricing masks rebuilt from `status` every iteration, and the
    ratio test on filtered arrays.  Copied verbatim, with the `lp` module's
    names qualified, except that each exit returns its basis's point solved
    anew; kept as the oracle the loop must match pivot for pivot."""

    def _minimize(self, c: np.ndarray, limit: int) -> tuple[str, np.ndarray]:
        """Primal simplex on objective c until optimal, unbounded, or the
        pivot count reaches limit.  Returns "optimal" or "unbounded" with
        the basic solution of the basis it stopped on."""
        start = self.start
        movable = self.lo != self.hi
        while True:
            if self.pivots >= limit:
                raise lp.LpError(f"simplex exceeded {limit - start} pivots")
            bland = self.pivots - start >= lp.BLAND_AFTER
            basis = self.basis
            Bmat = self.A[:, basis]
            y = lp._solve(Bmat.T, c[basis])
            enter, direction = self._price(c - y @ self.A, bland, movable)
            if enter is None:
                return "optimal", _basic_point(self)
            xb = lp._solve(Bmat, self.b - self.A @ self.nonbasic_values())
            w = lp._solve(Bmat, self.A[:, enter])
            delta = -direction * w

            # Ratio test: the entering variable's own range versus the rows
            # whose basic variable moves toward a finite bound.
            t_best = math.inf
            leave = -1  # -1 means bound flip
            if self.lo[enter] != -math.inf and self.hi[enter] != math.inf:
                t_best = self.hi[enter] - self.lo[enter]
            room = np.where(delta < 0.0, xb - self.lo[basis], self.hi[basis] - xb)
            mag = np.abs(delta)
            rows = ((mag > lp.PIVOT_TOL) & (room < math.inf)).nonzero()[0]
            steps = np.maximum(room[rows] / mag[rows], 0.0)
            for i, tt in zip(rows.tolist(), steps.tolist()):
                if tt < t_best - 1e-12:
                    better = True
                elif tt <= t_best + 1e-12 and leave >= 0:
                    # Tie between basic rows: Bland wants the smallest leaving
                    # index, Dantzig the fattest pivot element.
                    if bland:
                        better = basis[i] < basis[leave]
                    else:
                        better = abs(w[i]) > abs(w[leave])
                elif tt <= t_best + 1e-12 and leave == -1 and tt < t_best:
                    better = True
                else:
                    better = False
                if better:
                    t_best = min(t_best, tt)
                    leave = i

            if t_best == math.inf:
                return "unbounded", _basic_point(self)

            self.pivots += 1
            if leave == -1:
                # Bound flip, basis unchanged.
                self.status[enter] = lp._AT_UPPER if direction > 0 else lp._AT_LOWER
                continue
            self.status[basis[leave]] = lp._AT_LOWER if delta[leave] < 0.0 else lp._AT_UPPER
            basis[leave] = enter
            self.status[enter] = lp._BASIC

    def _price(self, d: np.ndarray, bland: bool, movable: np.ndarray) -> tuple[int | None, int]:
        """Entering column and direction (+1 up, -1 down), or (None, 0).

        A column improves if it is nonbasic, not fixed, and may move against
        its reduced cost.  Dantzig takes the first improving column of
        largest |d_j|, Bland the first improving column.
        """
        tol = lp.PRICE_TOL
        st = self.status
        rise = lp._CAN_RISE[st] & (d < -tol)
        improving = (rise | (lp._CAN_FALL[st] & (d > tol))) & movable
        j = int(np.argmax(improving if bland else np.where(improving, np.abs(d), 0.0)))
        if not improving[j]:
            return None, 0
        return j, 1 if rise[j] else -1



def _basic_point(tab):
    # The basic solution of `tab`'s basis, solved anew.
    x = tab.nonbasic_values()
    x[tab.basis] = lp._kernel_policy(lp._solve)(tab.A[:, tab.basis], tab.b - tab.A @ x)
    return x


def _pair(*args):
    return lp._Tableau(*args), _ReferenceTableau(*args)


def _optimise(tab, c):
    # (outcome, point); after an LpError, its message and the point solved
    # anew on the basis it left (or that solve's message).
    try:
        return tab.optimise(c)
    except LpError as exc:
        try:
            return str(exc), _basic_point(tab)
        except LpError as again:
            return str(exc), str(again)


def _state(tab, outcome, x):
    return outcome, tab.basis.tolist(), tab.status.tobytes(), tab.pivots, x if isinstance(x, str) else x.tobytes()


def _optimise_both(tabs, c):
    # The same state on both tableaux, the point included; returns the first's (outcome, point).
    results = [_optimise(tab, c) for tab in tabs]
    new, ref = (_state(tab, *result) for tab, result in zip(tabs, results))
    assert new == ref
    return results[0]


def _random_program(rng):
    # Bounds of every kind: boxed, fixed, lower only, upper only and free.
    # Half the programs have entries in -2..2, for degenerate bases and ties.
    n, m = int(rng.integers(1, 7)), int(rng.integers(0, 5))
    top = 2 if rng.random() < 0.5 else 4
    scale = 1.0 if rng.random() < 0.5 else rng.random() * 3.0
    c = rng.integers(-5, 6, size=n) * scale
    A = rng.integers(1 - top, top, size=(m, n)) * (1.0 if top == 2 or rng.random() < 0.5 else rng.random((m, n)) * 2.0)
    b = rng.integers(1 - top, top + 1, size=m).astype(float)
    kind = rng.integers(0, 5, size=n)
    base = rng.integers(-3, 2, size=n).astype(float)
    lo = np.where((kind == 2) | (kind == 4), -math.inf, base)
    hi = np.where(kind == 1, base, np.where((kind == 3) | (kind == 4), math.inf, base + rng.integers(1, 5, size=n)))
    rels = [("<=", "=", ">=")[int(k)] for k in rng.integers(0, 3, size=m)]
    return c, A, b, lo, hi, rels


def _constructed(A, b, lo, hi, rels):
    # The tableau's arrays as its constructor first built them: [A | I],
    # the slack bounds after the structural ones, statuses from the bounds,
    # the residual of that nonbasic point, then one signed artificial
    # column per row appended and made basic.
    m, n = A.shape
    slack_lo, slack_hi = np.array([lp._SLACK_BOUNDS[rel] for rel in rels]).reshape(m, 2).T
    A = np.hstack([A, np.eye(m)])
    lo, hi = np.concatenate([lo, slack_lo]), np.concatenate([hi, slack_hi])
    status = np.where(lo == -math.inf, np.where(hi == math.inf, lp._FREE, lp._AT_UPPER), lp._AT_LOWER).astype(np.int8)
    xn = np.where(status == lp._AT_LOWER, lo, np.where(status == lp._AT_UPPER, hi, 0.0))
    resid = b - A @ xn
    return {
        "A": np.hstack([A, np.diag(np.where(resid >= 0, 1.0, -1.0))]),
        "b": b,
        "lo": np.concatenate([lo, np.full(m, 0.0)]),
        "hi": np.concatenate([hi, np.full(m, math.inf)]),
        "status": np.concatenate([status, np.full(m, lp._BASIC, dtype=np.int8)]),
        "art": np.concatenate([np.zeros(n + m, dtype=bool), np.full(m, True)]),
        "basis": np.arange(n + m, n + 2 * m),
    }


def _arrays(tab):
    return {name: getattr(tab, name) for name in ("A", "b", "lo", "hi", "status", "art", "basis")}


def test_the_tableau_constructor_is_pinned():
    # Every array `_Tableau.__init__` builds, by dtype, shape and bytes, on
    # random programs with every relation and bound kind, and on the
    # degree rows the subtour LP starts from.
    programs = [_random_program(np.random.default_rng(seed))[1:] for seed in range(300)]
    programs += [_degree_rows(n) for n in (3, 6, 10)]
    seen_rels, seen_bounds = set(), set()
    for A, b, lo, hi, rels in programs:
        tab = lp._Tableau(A, b, lo, hi, rels)
        want = _constructed(A, b, lo, hi, rels)
        got = _arrays(tab)
        for name in want:
            assert (got[name].dtype, got[name].shape) == (want[name].dtype, want[name].shape), name
            assert got[name].tobytes() == want[name].tobytes(), name
        assert (tab.num_struct, tab.pivots, tab.start) == (A.shape[1], 0, 0)
        seen_rels.update(rels)
        seen_bounds.update(zip(np.isfinite(lo).tolist(), np.isfinite(hi).tolist(), (lo == hi).tolist()))
    assert seen_rels == {"<=", "=", ">="}
    # Free, upper only, lower only, boxed and fixed.
    assert seen_bounds == {(False, False, False), (False, True, False), (True, False, False),
                           (True, True, False), (True, True, True)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0, lp.BLAND_AFTER]))
def test_simplex_matches_the_reference_loop_on_random_programs(seed, bland_after):
    # After each optimise, on the program and then after each of up to three
    # added rows: the same outcome, basis, statuses, pivots and x bytes.
    rng = np.random.default_rng(seed)
    c, A, b, lo, hi, rels = _random_program(rng)
    n = len(c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "BLAND_AFTER", bland_after)
        tabs = _pair(A, b, lo, hi, rels)
        for k in range(4):
            outcome, x = _optimise_both(tabs, c)
            if k == 3 or outcome not in ("optimal", "infeasible", "unbounded"):
                return
            row = rng.integers(-3, 4, size=n).astype(float)
            rel, rhs = ("<=", "=", ">=")[int(rng.integers(0, 3))], float(rng.integers(-4, 5))
            for tab in tabs:
                tab.add_row(row, rel, rhs, x)


def _check_hand_offs(mp):
    # The point of every `_minimize` exit, phase 1's included, is checked
    # against the point solved anew on a fork of the basis it stopped on;
    # the list holds the outcomes.
    minimize, outcomes = lp._Tableau._minimize, []

    def checked(self, c, limit):
        outcome, x = minimize(self, c, limit)
        assert x.tobytes() == _basic_point(self.fork()).tobytes()
        outcomes.append(outcome)
        return outcome, x

    mp.setattr(lp._Tableau, "_minimize", checked)
    return outcomes


def test_subtour_rounds_use_the_optimum_handed_back():
    # The draws of the seed-19 search: every round of `_reoptimise` and,
    # after each cut, phase 1's check take the point the simplex ended on.
    rng = np.random.default_rng(19)
    lp._degree_start(6, lp.BLAND_AFTER, lp.PIVOT_CAP)
    with pytest.MonkeyPatch.context() as mp:
        outcomes = _check_hand_offs(mp)
        rounds = sum(solve_subtour_lp(Instance(rng.random((6, 2)))).rounds for _ in range(259))
    assert rounds > 0 and outcomes == ["optimal"] * (259 + 2 * rounds)


def test_optimise_returns_the_basic_point_at_every_outcome():
    # On random programs, each re-optimised after one added row: the point
    # `optimise` returns is, byte for byte, the basic solution of the basis
    # it stopped on, whatever the outcome.
    seen = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        c, A, b, lo, hi, rels = _random_program(rng)
        tab = lp._Tableau(A, b, lo, hi, rels)
        for _ in range(2):
            try:
                outcome, x = tab.optimise(c)
            except LpError:
                break
            assert x.tobytes() == _basic_point(tab).tobytes()
            seen.add(outcome)
            tab.add_row(rng.integers(-3, 4, size=len(c)).astype(float), "<=", float(rng.integers(-4, 5)), x)
    assert seen == {"optimal", "unbounded", "infeasible"}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_programs_use_the_optimum_handed_back(seed):
    rng = np.random.default_rng(seed)
    c, A, b, lo, hi, rels = _random_program(rng)
    # Up to three rows, added whatever the optimum, as in the test above.
    kinds = ("<=", "=", ">=")
    rows = [
        (rng.integers(-3, 4, size=len(c)).astype(float), kinds[int(rng.integers(0, 3))], float(rng.integers(-4, 5)))
        for _ in range(3)
    ]
    with pytest.MonkeyPatch.context() as mp:
        outcomes = _check_hand_offs(mp)
        try:
            outcome, _ = lp._reoptimise(lp._Tableau(A, b, lo, hi, rels), c, lambda x: rows.pop() if rows else None)
        except LpError:
            return
    assert outcomes and set(outcomes) <= {"optimal", "unbounded"}


def test_subtour_lp_solve_count_is_pinned(monkeypatch):
    # Dense solves of one n = 6 subtour LP with one cut round, from the
    # cached degree start; the simplex that re-solved the duals after bound
    # flips and the optimum after each optimise made 42.
    inst = _random(6, 2.0, 0)
    lp._degree_start(6, lp.BLAND_AFTER, lp.PIVOT_CAP)
    calls = []
    solve = lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args: calls.append(1) or solve(*args))
    res = solve_subtour_lp(inst)
    assert (res.cost.hex(), res.rounds, res.pivots, len(calls)) == ("0x1.935369dcd163dp+1", 1, 25, 38)


@pytest.mark.parametrize("bland_after", [0, lp.BLAND_AFTER])
@pytest.mark.parametrize(
    "make",
    [_grid, _collinear, lambda: _random(9, 2.0, 9), _two_clusters],
    ids=["grid-5x5-L1", "collinear-12", "random-n9", "two-clusters"],
)
def test_cut_loop_matches_the_reference_loop(monkeypatch, make, bland_after):
    # The cutting-plane loop from the degree rows before phase 1, once per
    # simplex loop, compared after every optimise; it ends on the cost and
    # pivots of `solve_subtour_lp`.
    monkeypatch.setattr(lp, "BLAND_AFTER", bland_after)
    inst = make()
    n = inst.n
    tabs = _pair(*_degree_rows(n))
    cost = edge_costs(inst)
    rounds = 0
    while True:
        outcome, x = _optimise_both(tabs, cost)
        assert outcome == "optimal"
        values = x[: cost.size]
        cut = separate_subtour(EdgeWeightVector(n, np.maximum(values, 0.0)))
        if cut is None:
            break
        rounds += 1
        for tab in tabs:
            tab.add_row(lp._crossing(n, cut.vertices).astype(float), ">=", 2.0, x)
    want = solve_subtour_lp(inst)
    assert (float(np.dot(cost, values)).hex(), rounds, tabs[0].pivots) == (want.cost.hex(), want.rounds, want.pivots)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("n", range(6, 11))
def test_subtour_lp_is_invariant_under_coordinate_scale(n, p):
    # The loop prices on costs scaled by a power of two into [0.5, 1), so
    # PRICE_TOL is relative to the largest cost.  At the powers of two next
    # to 1e-9 and 1e9 every cost scales exactly, and so does the whole solve.
    # At 1e-9 and 1e9 the scaled coordinates round, which can reorder tied L1
    # reduced costs (as at 1e-3), so there the pivot count may move but the
    # cuts and the cost may not.
    def cuts(res):
        return res.rounds, [cut.vertices for cut in res.cuts]

    for seed in range(4):
        pts = np.random.default_rng(100 * n + seed).random((n, 2))
        want = solve_subtour_lp(Instance(pts, NormSpec(p)))
        for scale in (2.0**-30, 2.0**30):
            got = solve_subtour_lp(Instance(pts * scale, NormSpec(p)))
            assert (got.pivots, got.x, got.cost, *cuts(got)) == (want.pivots, want.x, want.cost * scale, *cuts(want))
        for scale in (1e-9, 1e9):
            got = solve_subtour_lp(Instance(pts * scale, NormSpec(p)))
            assert cuts(got) == cuts(want)
            assert got.cost / scale == pytest.approx(want.cost, rel=1e-12)


def test_both_solvers_run_the_one_loop(monkeypatch):
    seen = []
    loop = lp._reoptimise

    def spy(tab, c, separate=None):
        seen.append(separate is None)
        return loop(tab, c, separate)

    monkeypatch.setattr(lp, "_reoptimise", spy)
    # A cold degree start runs its phase 1 through the loop too, with no separator.
    lp._degree_start.cache_clear()
    solve_lp(LinearProgram(c=[-1.0], A=[[1.0]], rels=["<="], b=[1.0], lo=[0.0], hi=[np.inf]))
    solve_subtour_lp(_random(8, 1.0, 8))
    assert seen == [True, True, False]


def test_a_separator_that_never_stops_hits_the_round_cap(monkeypatch):
    # Each round adds a row the optimum already satisfies.  A tableau of
    # 1,000 added rows takes over a minute of dense solves, so the cap is lowered.
    assert lp.ROUND_CAP == 1000
    monkeypatch.setattr(lp, "ROUND_CAP", 20)
    tab = lp._Tableau(np.ones((1, 1)), np.ones(1), np.zeros(1), np.full(1, np.inf), ["<="])
    calls = []

    def satisfied(x):
        calls.append(x[0])
        return np.ones(1), "<=", 2.0

    with pytest.raises(LpError, match="after 20 rounds"):
        lp._reoptimise(tab, -np.ones(1), satisfied)
    assert (calls, tab.m) == ([1.0] * 21, 21)

