"""Simplex correctness against scipy, separation behavior, subtour LP values."""

import functools
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tspgap import lp
from tspgap.core import EdgeWeightVector, Instance, NormSpec, degree_vector, edge_index
from tspgap.families import IJK, closed_form_lp_I2, fractional_xijk, gen_I2
from tspgap.lp import (
    FEAS_TOL,
    LinearProgram,
    separate_subtour,
    solve_lp,
    solve_subtour_lp,
)


def _scipy_solve(lp: LinearProgram, c=None, presolve: bool = True):
    rels = np.array(lp.rels, dtype=object)
    sign = np.where(rels == ">=", -1.0, 1.0)
    ub = rels != "="
    eq = rels == "="
    res = linprog(
        lp.c if c is None else c,
        A_ub=(sign[:, None] * lp.A)[ub] if ub.any() else None,
        b_ub=(sign * lp.b)[ub] if ub.any() else None,
        A_eq=lp.A[eq] if eq.any() else None,
        b_eq=lp.b[eq] if eq.any() else None,
        bounds=list(zip(lp.lo, lp.hi)),
        method="highs",
        options={"presolve": presolve},
    )
    return res


def _assert_matches_scipy(lp: LinearProgram, tol: float = 1e-7):
    ours = solve_lp(lp)
    ref = _scipy_solve(lp)
    if ref.status == 2 and _scipy_solve(lp, c=np.zeros_like(lp.c)).status == 0:
        # HiGHS presolve reports some unbounded LPs as infeasible; when the
        # same region under zero cost is feasible, the verdict without
        # presolve stands.
        ref = _scipy_solve(lp, presolve=False)
    if ref.status == 2:
        assert ours.status == "infeasible"
    elif ref.status == 3:
        assert ours.status == "unbounded"
    else:
        assert ours.status == "optimal"
        assert ours.objective_value == pytest.approx(ref.fun, abs=tol)


def test_simple_maximization():
    # max x+y, x+2y <= 4, 3x+y <= 6, x,y >= 0 -> (1.6, 1.2), value 2.8,
    # as min -x-y.
    lp = LinearProgram(
        c=[-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], rels=["<=", "<="], b=[4.0, 6.0],
        lo=[0.0, 0.0], hi=[np.inf, np.inf],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-2.8)
    assert sol.values == pytest.approx([1.6, 1.2])


def test_infeasible_detected():
    lp = LinearProgram(c=[1.0], A=[[1.0], [1.0]], rels=[">=", "<="], b=[2.0, 1.0], lo=[0.0], hi=[np.inf])
    sol = solve_lp(lp)
    assert (sol.status, sol.values, sol.objective_value) == ("infeasible", None, None)


def test_unbounded_detected():
    lp = LinearProgram(c=[-1.0], A=[[1.0]], rels=[">="], b=[0.0], lo=[0.0], hi=[np.inf])
    sol = solve_lp(lp)
    assert (sol.status, sol.values, sol.objective_value) == ("unbounded", None, None)


def test_free_and_upper_bounded_variables():
    # Free variable pulled negative; boxed variable pinned at its cap.
    lp = LinearProgram(c=[1.0, -2.0], A=[[1.0, 1.0]], rels=["="], b=[3.0], lo=[-np.inf, 0.0], hi=[np.inf, 5.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([-2.0, 5.0])
    assert sol.objective_value == pytest.approx(-12.0)


def test_equality_system_with_negative_rhs():
    lp = LinearProgram(
        c=[2.0, 3.0, 1.0], A=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], rels=["=", "="], b=[1.0, -0.5],
        lo=np.zeros(3), hi=np.ones(3),
    )
    _assert_matches_scipy(lp)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(16473)  # unbounded: HiGHS with presolve reported these three infeasible
@example(955034844)
@example(13864257)
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    A, rels, b = [], [], []
    for _ in range(m):
        A.append(rng.integers(-4, 5, size=n))
        rels.append(("<=", "=", ">=")[int(rng.integers(0, 3))])
        b.append(float(rng.integers(-6, 7)))
    lo, hi = [], []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            lo.append(0.0)
            hi.append(np.inf)
        elif kind == 1:
            lo.append(0.0)
            hi.append(float(rng.integers(1, 5)))
        else:
            lo.append(float(rng.integers(-4, 0)))
            hi.append(float(rng.integers(0, 5)))
    c = rng.integers(-5, 6, size=n)
    if rng.integers(0, 2):
        c = -c  # a maximisation, as minimising -c
    lp = LinearProgram(c=c, A=A, rels=rels, b=b, lo=lo, hi=hi)
    _assert_matches_scipy(lp)


def test_separation_finds_disconnected_halves():
    # Two disjoint triangles: global min cut 0, maximally violated.
    w = {(a, b): 1.0 for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]}
    cut = separate_subtour(EdgeWeightVector.from_pairs(6, w))
    assert cut is not None
    side = set(cut.vertices)
    assert side in ({0, 1, 2}, {3, 4, 5})
    assert cut.value == pytest.approx(0.0)


def test_separation_accepts_tour_vector():
    x = EdgeWeightVector.from_pairs(5, {(a, (a + 1) % 5): 1.0 for a in range(5)})
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
    iu, iv = edge_index(inst.n)
    for cut in res.cuts:
        inside = np.isin(np.arange(inst.n), sorted(cut.vertices))
        total = res.x.values[inside[iu] != inside[iv]].sum()
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
    with pytest.raises(ValueError, match="at least one variable"):
        LinearProgram(c=[], A=[], rels=[], b=[], lo=[], hi=[])
    with pytest.raises(ValueError, match="A has shape"):
        LinearProgram(c=[1.0], A=[[1.0, 2.0]], rels=["<="], b=[1.0], lo=[0.0], hi=[np.inf])
    with pytest.raises(ValueError, match="b has shape"):
        LinearProgram(c=[1.0], A=[[1.0]], rels=["<="], b=[1.0, 2.0], lo=[0.0], hi=[np.inf])
    with pytest.raises(ValueError, match="lo has shape"):
        LinearProgram(c=[1.0], A=[[1.0]], rels=["<="], b=[1.0], lo=[0.0, 0.0], hi=[np.inf])
    with pytest.raises(ValueError, match="unknown relation"):
        LinearProgram(c=[1.0], A=[[1.0]], rels=["<"], b=[1.0], lo=[0.0], hi=[np.inf])
    with pytest.raises(ValueError, match="empty bound interval"):
        LinearProgram(c=[1.0], A=[], rels=[], b=[], lo=[2.0], hi=[1.0])
    lp = LinearProgram(c=[1.0], A=[], rels=[], b=[], lo=[2.0], hi=[3.0])
    assert lp.A.shape == (0, 1)
    with pytest.raises(ValueError, match="read-only"):
        lp.c[0] = 0.0


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


def _solve_separating_with(inst, tol):
    # The cutting-plane loop stopped once no cut lies below 2 - tol.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "separate_subtour", functools.partial(lp.separate_subtour, tol=tol))
        return solve_subtour_lp(inst)


def _degree_two_vectors():
    """LP optima of random L1/L2 instances, n = 6-30, stopped after the
    first round (tol = 2.5: subtours left), at a partial cut set (tol = 1)
    and at the optimum; then the family vectors x_ijk."""
    for n in (6, 9, 14, 20, 30):
        for p in (1.0, 2.0):
            inst = Instance(np.random.default_rng(100 * n + int(p)).random((n, 2)), NormSpec(p))
            for tol in (2.5, 1.0, FEAS_TOL):
                yield f"n{n}-L{p:g}-tol{tol:g}", _solve_separating_with(inst, tol).x
    for trip in [(0, 0, 0), (1, 2, 1), (3, 0, 2), (2, 5, 4)]:
        yield f"xijk-{trip}", fractional_xijk(IJK(*trip))


_DEGREE_TWO = list(_degree_two_vectors())


@pytest.mark.parametrize("x", [x for _, x in _DEGREE_TWO], ids=[name for name, _ in _DEGREE_TWO])
def test_separation_matches_networkx_stoer_wagner(x):
    nx = pytest.importorskip("networkx")
    iu, iv = edge_index(x.n)
    graph = nx.Graph()
    graph.add_nodes_from(range(x.n))
    for k in np.flatnonzero(x.values):
        graph.add_edge(int(iu[k]), int(iv[k]), weight=float(x.values[k]))
    want = nx.stoer_wagner(graph)[0] if nx.is_connected(graph) else 0.0
    # tol = -1 reports the minimum cut whatever its value (at most 2 < 3).
    assert abs(separate_subtour(x, tol=-1.0).value - want) <= 1e-9
    assert (separate_subtour(x) is None) == (want >= 2.0 - FEAS_TOL)


def _cycles(n, *cycles):
    # The 0/1 vector of disjoint cycles (of 3 or more vertices) covering range(n).
    w = np.zeros(n * (n - 1) // 2)
    iu, iv = edge_index(n)
    index = {(int(u), int(v)): k for k, (u, v) in enumerate(zip(iu, iv))}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            w[index[min(a, b), max(a, b)]] = 1.0
    return w


def _lp_rounds(n):
    # Every round's x of the cutting-plane loop on random instances, and
    # more degree optima (tol = 2.5 stops after the first round, with
    # subtours left).
    seen = []
    separate = lp.separate_subtour

    def recording(x):
        seen.append(x)
        return separate(x, tol=tol)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "separate_subtour", recording)
        for seed in range(30):
            rng = np.random.default_rng(1000 * n + seed)
            inst = Instance(rng.random((n, 2 + seed % 2)), NormSpec((1.0, 1.5, 2.0)[seed % 3]))
            tol = FEAS_TOL if seed < 10 else 2.5
            solve_subtour_lp(inst)
    return seen


def _small_vectors():
    """Degree-2 vectors on 3-10 points, by kind."""
    rng = np.random.default_rng(5)
    for n in range(3, 11):
        yield f"lp-rounds-n{n}", _lp_rounds(n)
        tours = [_cycles(n, [int(v) for v in rng.permutation(n)]) for _ in range(5)]
        yield f"tours-n{n}", [EdgeWeightVector(n, t) for t in tours]
    yield "xijk", [
        fractional_xijk(IJK(i, j, k)) for i in range(5) for j in range(5) for k in range(5) if i + j + k <= 4
    ]
    yield "components", [
        EdgeWeightVector(6, _cycles(6, [0, 1, 2], [3, 4, 5])),
        EdgeWeightVector(6, _cycles(6, [0, 4, 2], [3, 1, 5])),
        EdgeWeightVector(9, _cycles(9, [0, 1, 2], [3, 4, 5], [6, 7, 8])),
        EdgeWeightVector(10, _cycles(10, [8, 1, 2], [3, 9, 5], [6, 7, 0, 4])),
        EdgeWeightVector(7, 0.5 * _cycles(7, [0, 1, 2], [3, 4, 5, 6]) + 0.5 * _cycles(7, [0, 1, 2], [3, 5, 4, 6])),
    ]
    # Mixes a*C1 + b*C2 + c*C3 of the cycle covers A + BC, AB + C and a
    # Hamiltonian cycle on A = {0, 1, 2}, B = {3, 4, 5}, C = {6, 7, 8}:
    # cut(A) = 2 - 2a and cut(C) = 2 - 2b, the two smallest.  Their gap
    # 2 |a - b| runs across the 1e-9 margin, and a alone puts cut(A) near
    # 2 - FEAS_TOL.
    covers = [
        _cycles(9, [0, 1, 2], [3, 4, 5, 6, 7, 8]),
        _cycles(9, [0, 1, 2, 3, 4, 5], [6, 7, 8]),
        _cycles(9, list(range(9))),
    ]
    ties = []
    for a, b in [(0.3 + d, 0.3) for d in (0.0, 1e-13, -1e-13, -4e-13, -1e-12, 2e-10, -4e-10, 6e-10, -6e-10, 2e-9, 1e-7)] + [
        (FEAS_TOL / 2 + d, 0.0) for d in (-1e-9, -6e-10, -5e-10, -4e-10, -1e-12, 0.0, 1e-12, 4e-10, 1e-9)
    ]:
        ties.append(EdgeWeightVector(9, a * covers[0] + b * covers[1] + (1.0 - a - b) * covers[2]))
    yield "near-ties", ties


_SMALL = list(_small_vectors())


@pytest.mark.parametrize("tol", [FEAS_TOL, -1.0, 2.5], ids=["feas-tol", "tol-minus-1", "tol-2.5"])
@pytest.mark.parametrize("xs", [xs for _, xs in _SMALL], ids=[name for name, _ in _SMALL])
def test_enumerated_separation_matches_stoer_wagner(monkeypatch, xs, tol):
    # Up to ENUM_CUT_MAX points separation scores every cut and calls
    # Stoer-Wagner only on near-ties; the cap at 0 sends every vector
    # through Stoer-Wagner (or the components).  Same cut, bit for bit.
    def digest(cut):
        return None if cut is None else (tuple(sorted(cut.vertices)), cut.value.hex())

    assert all(x.n <= lp.ENUM_CUT_MAX for x in xs)
    got = [digest(separate_subtour(x, tol=tol)) for x in xs]
    monkeypatch.setattr(lp, "ENUM_CUT_MAX", 0)
    assert got == [digest(separate_subtour(x, tol=tol)) for x in xs]


def test_enumerated_separation_takes_every_branch(monkeypatch):
    # The near-tie corpus reaches all three outcomes of the scores: no cut,
    # one cut settled by them, and Stoer-Wagner on a near-tie.
    calls = []
    stoer_wagner = lp._stoer_wagner
    monkeypatch.setattr(lp, "_stoer_wagner", lambda *args: calls.append(1) or stoer_wagner(*args))
    outcomes = set()
    for x in dict(_SMALL)["near-ties"]:
        before = len(calls)
        cut = separate_subtour(x)
        outcomes.add("sw" if len(calls) > before else "none" if cut is None else "cut")
    assert outcomes == {"none", "cut", "sw"}


def test_cut_masks_rows_are_the_subsets_holding_vertex_0():
    for n in (3, 6, 10):
        masks = lp._cut_masks(n)
        assert masks.shape == (2 ** (n - 1) - 1, n * (n - 1) // 2) and not masks.flags.writeable
        subsets = [[v for v in range(n) if (2 * k + 1) >> v & 1] for k in range(masks.shape[0])]
        assert sorted(map(tuple, subsets)) == sorted({(0,) + S for r in range(n - 1) for S in combinations(range(1, n), r)})
        want = np.array([lp._crossing(n, S) for S in subsets], dtype=float)
        assert masks.tobytes() == want.tobytes()


def _stoer_wagner_tuple_key(weights, vertices):
    # Oracle: lp._stoer_wagner with the phase pick's tie-break spelled out
    # by the key (weight, -vertex) instead of read off conn's key order.
    active = sorted(vertices)
    groups = {v: [v] for v in active}
    W = {u: dict(weights[u]) for u in active}
    out = []
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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 30),
    st.sampled_from(["ties", "floats"]),
    st.sampled_from([0.1, 0.3, 1.0]),
    st.integers(0, 2**31 - 1),
)
def test_stoer_wagner_matches_tuple_key_pick(n, kind, density, seed):
    # Density 1 draws complete graphs, 0.1 mostly disconnected ones; weights
    # from {0.25, 0.5, 1} tie often.  Edges and vertices come in shuffled order.
    rng = np.random.default_rng(seed)
    weights = {v: {} for v in rng.permutation(n).tolist()}
    for u, v in combinations(rng.permutation(n).tolist(), 2):
        if rng.random() < density:
            w = float(rng.choice([0.25, 0.5, 1.0])) if kind == "ties" else float(rng.random())
            weights[u][v] = weights[v][u] = w
    vertices = rng.permutation(n).tolist()
    assert lp._stoer_wagner(weights, vertices) == _stoer_wagner_tuple_key(weights, vertices)


def _bound_supports():
    # The support graphs solve_subtour_lp hands Stoer-Wagner on the random
    # L2 instances of the `bound` benchmark workload (seed 2021, n = 30, 35, 40).
    seen = []
    stoer_wagner = lp._stoer_wagner

    def recording(weights, vertices):
        seen.append((weights, vertices))
        return stoer_wagner(weights, vertices)

    base = np.random.default_rng(2021)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "_stoer_wagner", recording)
        for n in (30, 35, 40):
            solve_subtour_lp(Instance(base.random((n, 2)), NormSpec(2.0)))
    return seen


def test_stoer_wagner_matches_tuple_key_pick_on_lp_supports():
    supports = _bound_supports()
    assert len(supports) >= 3
    rng = np.random.default_rng(7)
    for weights, vertices in supports:
        shuffled = rng.permutation(vertices).tolist()
        assert lp._stoer_wagner(weights, vertices) == _stoer_wagner_tuple_key(weights, vertices)
        assert lp._stoer_wagner(weights, shuffled) == _stoer_wagner_tuple_key(weights, shuffled)
