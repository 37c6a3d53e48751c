"""The warm-started cutting-plane loop: pivot counts, agreement with HiGHS on
the final cut set, Bland's rule and the pivot cap on the re-optimisations,
rows added to a live tableau, and the cached per-n degree start."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspgap import lp
from tspgap.core import Instance, NormSpec
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


def test_cap_and_infeasibility_on_a_re_optimisation():
    # min x0 + x1, x0 + x1 = 1, 0 <= x <= 1; then rows are added.
    def fresh():
        tab = lp._Tableau(np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2), np.ones(2), ["="])
        assert tab.optimise(np.ones(2), 100, 1e-9) == "optimal"
        return tab

    tab = fresh()
    tab.add_row(np.array([1.0, 0.0]), ">=", 0.75)
    with pytest.raises(LpError, match="exceeded 0 pivots"):
        tab.optimise(np.ones(2), 0, 1e-9)
    tab = fresh()
    tab.add_row(np.array([1.0, 1.0]), ">=", 3.0)
    assert tab.optimise(np.ones(2), 100, 1e-9) == "infeasible"


def test_singular_basis_raises_lp_error(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(LpError, match="singular basis"):
        solve_subtour_lp(_random(8, 2.0, 8))


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
    outcome = tab.optimise(c, 1000, 1e-9)
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
        x = tab.solution()[:n]
        assert float(c @ x) == pytest.approx(ref.fun, abs=1e-7)
        if k == 3:
            return
        rows.append(rng.integers(-3, 4, size=n).astype(float))
        rels.append(("<=", "=", ">=")[int(rng.integers(0, 3))])
        rhs.append(float(rng.integers(-4, 5)))
        tab.add_row(rows[-1], rels[-1], rhs[-1])
        outcome = tab.optimise(c, 1000, 1e-9)


def _fresh_degree_start(n, bland_after, pivot_cap):
    # What a solve from scratch starts from: the degree tableau before phase 1.
    iu, iv = np.triu_indices(n, 1)
    cols = np.arange(len(iu))
    degree = np.zeros((n, len(iu)))
    degree[iu, cols] = 1.0
    degree[iv, cols] = 1.0
    return lp._Tableau(degree, np.full(n, 2.0), np.zeros(len(iu)), np.ones(len(iu)), ["="] * n)


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
    assert fresh.make_feasible(lp.PIVOT_CAP * (n + n * (n - 1) // 2), 1e-9, 0)
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

    def spy(self, d, tol, bland, movable):
        seen.append((self.pivots, bland))
        return price(self, d, tol, bland, movable)

    lp._degree_start.cache_clear()
    solve_subtour_lp(_certify_n13())  # caches the start under the default limits only
    monkeypatch.setattr(lp._Tableau, "_price", spy)
    monkeypatch.setattr(lp, "BLAND_AFTER", 0)
    solve_subtour_lp(_certify_n13())
    assert seen[0] == (0, True)
    assert all(bland for _, bland in seen)


_OPTIMIZED_SCRIPT = """
import numpy as np
from tspgap.core import Instance, NormSpec
from tspgap.lp import solve_subtour_lp

rng = np.random.default_rng(2021)
for n in (30, 35):
    rng.random((n, 2))
inst = Instance(rng.random((40, 2)), NormSpec(2.0))
res = solve_subtour_lp(inst)
print("debug" if __debug__ else "optimized", res.cost.hex(), res.pivots)
"""


def test_bound_instance_under_optimize_flag():
    # The n = 40 `bound` instance's golden cost and pivots (tests/test_lp.py).
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["optimized", "0x1.34a389b5dbb00p+2", "285"]
