"""Simplex correctness against scipy, separation behavior, subtour LP values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tspgap.core import Edge, EdgeWeightVector, Instance, NormSpec, degree_vector
from tspgap.families import IJK, closed_form_lp_I2, fractional_xijk, gen_I2
from tspgap.lp import (
    FEAS_TOL,
    LinearProgram,
    separate_subtour,
    solve_lp,
    solve_subtour_lp,
)


def _scipy_solve(lp: LinearProgram):
    c = np.array(lp.objective)
    if lp.maximize:
        c = -c
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in lp.rows:
        if rel == "<=":
            a_ub.append(coeffs)
            b_ub.append(rhs)
        elif rel == ">=":
            a_ub.append([-v for v in coeffs])
            b_ub.append(-rhs)
        else:
            a_eq.append(coeffs)
            b_eq.append(rhs)
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(lp.bounds),
        method="highs",
    )
    return res


def _assert_matches_scipy(lp: LinearProgram, tol: float = 1e-7):
    ours = solve_lp(lp)
    ref = _scipy_solve(lp)
    if ref.status == 2:
        assert ours.status == "infeasible"
    elif ref.status == 3:
        assert ours.status == "unbounded"
    else:
        assert ours.status == "optimal"
        want = -ref.fun if lp.maximize else ref.fun
        assert ours.objective_value == pytest.approx(want, abs=tol)


def test_simple_maximization():
    # max x+y, x+2y <= 4, 3x+y <= 6, x,y >= 0 -> (1.6, 1.2), value 2.8
    lp = LinearProgram(
        objective=(1.0, 1.0),
        rows=(((1.0, 2.0), "<=", 4.0), ((3.0, 1.0), "<=", 6.0)),
        bounds=((0.0, None), (0.0, None)),
        maximize=True,
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.8)
    assert sol.values == pytest.approx([1.6, 1.2])


def test_infeasible_detected():
    lp = LinearProgram(
        objective=(1.0,),
        rows=(((1.0,), ">=", 2.0), ((1.0,), "<=", 1.0)),
        bounds=((0.0, None),),
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(
        objective=(1.0,),
        rows=(((1.0,), ">=", 0.0),),
        bounds=((0.0, None),),
        maximize=True,
    )
    assert solve_lp(lp).status == "unbounded"


def test_free_and_upper_bounded_variables():
    # Free variable pulled negative; boxed variable pinned at its cap.
    lp = LinearProgram(
        objective=(1.0, -2.0),
        rows=(((1.0, 1.0), "=", 3.0),),
        bounds=((None, None), (0.0, 5.0)),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([-2.0, 5.0])
    assert sol.objective_value == pytest.approx(-12.0)


def test_equality_system_with_negative_rhs():
    lp = LinearProgram(
        objective=(2.0, 3.0, 1.0),
        rows=(((1.0, 1.0, 1.0), "=", 1.0), ((1.0, -1.0, 0.0), "=", -0.5)),
        bounds=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
    )
    _assert_matches_scipy(lp)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    rows = []
    for _ in range(m):
        coeffs = tuple(float(v) for v in rng.integers(-4, 5, size=n))
        rel = ("<=", "=", ">=")[int(rng.integers(0, 3))]
        rows.append((coeffs, rel, float(rng.integers(-6, 7))))
    bounds = []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            bounds.append((0.0, None))
        elif kind == 1:
            bounds.append((0.0, float(rng.integers(1, 5))))
        else:
            bounds.append((float(rng.integers(-4, 0)), float(rng.integers(0, 5))))
    lp = LinearProgram(
        objective=tuple(float(v) for v in rng.integers(-5, 6, size=n)),
        rows=tuple(rows),
        bounds=tuple(bounds),
        maximize=bool(rng.integers(0, 2)),
    )
    _assert_matches_scipy(lp)


def test_separation_finds_disconnected_halves():
    # Two disjoint triangles: global min cut 0, maximally violated.
    w = {}
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[Edge(a, b)] = 1.0
    cut = separate_subtour(EdgeWeightVector(6, w))
    assert cut is not None
    side = set(cut.vertices)
    assert side in ({0, 1, 2}, {3, 4, 5})
    assert cut.value == pytest.approx(0.0)


def test_separation_accepts_tour_vector():
    x = EdgeWeightVector(5, {Edge(a, (a + 1) % 5): 1.0 for a in range(5)})
    assert separate_subtour(x) is None


def test_separation_on_fractional_family_vector():
    # The canonical fractional vector satisfies all subtour constraints.
    x = fractional_xijk(IJK(1, 2, 1))
    assert separate_subtour(x) is None


def test_subtour_lp_on_unit_square():
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    res = solve_subtour_lp(inst)
    assert res.cost == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(degree_vector(res.x), 2.0, atol=1e-7)


def test_subtour_lp_needs_cut_on_clustered_points():
    # Two tight triangles far apart: degree LP alone would use two subtours.
    pts = [(0, 0), (1, 0), (0.5, 0.8), (50, 0), (51, 0), (50.5, 0.8)]
    inst = Instance(pts)
    res = solve_subtour_lp(inst)
    assert res.cuts, "expected at least one subtour cut"
    # Cut constraints hold at the optimum.
    for cut in res.cuts:
        total = sum(
            w for e, w in res.x.items() if (e.u in set(cut.vertices)) != (e.v in set(cut.vertices))
        )
        assert total >= 2.0 - FEAS_TOL


def test_subtour_lp_matches_family_closed_form():
    for trip in [(0, 0, 0), (1, 2, 1), (2, 1, 0)]:
        p = IJK(*trip)
        res = solve_subtour_lp(gen_I2(p))
        assert res.cost == pytest.approx(closed_form_lp_I2(p), abs=1e-7)


def test_subtour_lp_invariant_under_vertex_shuffle():
    rng = np.random.default_rng(11)
    inst = gen_I2(IJK(1, 1, 1))
    perm = rng.permutation(inst.n)
    shuffled = Instance(inst.points[perm], inst.norm)
    a = solve_subtour_lp(inst)
    b = solve_subtour_lp(shuffled)
    assert a.cost == pytest.approx(b.cost, abs=1e-7)


def test_lp_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(objective=(), rows=(), bounds=())
    with pytest.raises(ValueError):
        LinearProgram(objective=(1.0,), rows=(((1.0, 2.0), "<=", 1.0),), bounds=((0.0, None),))
    with pytest.raises(ValueError):
        LinearProgram(objective=(1.0,), rows=(((1.0,), "<", 1.0),), bounds=((0.0, None),))
    with pytest.raises(ValueError):
        LinearProgram(objective=(1.0,), rows=(), bounds=((2.0, 1.0),))


# The subtour LP's cost (as float.hex), cut rounds, cut count and simplex
# pivots (the loop's total, phase 1 included), frozen bit for bit.  The
# instances are the benchmark's: random L2 points at n = 30, 35, 40 and
# random n = 13-15 points under L1/L2, each list drawn in order from
# default_rng(2021).
_GOLDEN_BOUND = [
    (30, 2.0, "0x1.25a5b58758dccp+2", 6, 6, 247),
    (35, 2.0, "0x1.2a027997437d4p+2", 6, 6, 271),
    (40, 2.0, "0x1.34a389b5dbb00p+2", 8, 8, 285),
]
_GOLDEN_CERTIFY = [
    (13, 1.0, "0x1.14066831c7b42p+2", 3, 3, 90),
    (13, 2.0, "0x1.7c652ed08877bp+1", 3, 3, 95),
    (14, 2.0, "0x1.acdbc068b685ep+1", 5, 5, 126),
    (15, 1.0, "0x1.e0537267f4df8p+1", 1, 1, 81),
]


def _golden_cases():
    for table in (_GOLDEN_BOUND, _GOLDEN_CERTIFY):
        rng = np.random.default_rng(2021)
        for n, p, cost_hex, rounds, cuts, pivots in table:
            yield Instance(rng.random((n, 2)), NormSpec(p)), cost_hex, rounds, cuts, pivots


@pytest.mark.parametrize("k", range(len(_GOLDEN_BOUND) + len(_GOLDEN_CERTIFY)))
def test_subtour_lp_golden_bit_exact(k):
    inst, cost_hex, rounds, cuts, pivots = list(_golden_cases())[k]
    res = solve_subtour_lp(inst)
    assert (res.cost.hex(), res.rounds, len(res.cuts), res.pivots) == (cost_hex, rounds, cuts, pivots)
