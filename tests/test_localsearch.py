"""Gradient machinery, improvement LP, tour pools, and the search driver."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from tspgap import core, localsearch, lp
from tspgap.core import (
    EdgeWeightVector,
    Instance,
    NormSpec,
    Tour,
    degree_vector,
    edge_costs,
    edge_index,
    edge_position,
    fractional_cost,
    tour_length,
)
from tspgap.ellipse import ellipse_construct
from tspgap.exact import ENUM_MAX, HELD_KARP_MAX, checked_ratio, enumerate_tours, held_karp
from tspgap.families import IJK, gen_I2
from tspgap.localsearch import (
    LocalSearchParams,
    TourPool,
    build_tour_pool,
    grad_fractional,
    grad_g,
    grad_tour_length,
    improvement_lp,
    local_opt_certificate,
    local_search,
    random_instance,
)
from tspgap.lp import LpError, solve_subtour_lp


def _fd_gradient(fn, pts, h=1e-6):
    flat = pts.ravel().copy()
    out = np.empty_like(flat)
    for idx in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[idx] += h
        dn[idx] -= h
        out[idx] = (fn(up.reshape(pts.shape)) - fn(dn.reshape(pts.shape))) / (2 * h)
    return out


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_tour_gradient_matches_finite_differences(p):
    rng = np.random.default_rng(42)
    pts = rng.uniform(size=(5, 2))
    norm = NormSpec(p)
    t = Tour([0, 2, 4, 1, 3])
    g = grad_tour_length(Instance(pts, norm), t)
    fd = _fd_gradient(lambda q: tour_length(Instance(q, norm), t), pts)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_fractional_gradient_matches_finite_differences(p):
    rng = np.random.default_rng(43)
    pts = rng.uniform(size=(6, 2))
    norm = NormSpec(p)
    x = solve_subtour_lp(Instance(pts, norm)).x
    g = grad_fractional(Instance(pts, norm), x)
    fd = _fd_gradient(lambda q: fractional_cost(Instance(q, norm), x), pts)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5


def _loop_edge_gradient(inst, pairs):
    # The per-edge loop the array gradients replaced, kept as their reference.
    p = inst.norm.p
    pts = inst.points
    G = np.zeros_like(pts)
    for u, v, weight in pairs:
        diff = pts[u] - pts[v]
        nrm = float(np.sum(np.abs(diff) ** p) ** (1.0 / p))
        term = weight * np.sign(diff) * np.abs(diff) ** (p - 1.0) / nrm ** (p - 1.0)
        G[u] += term
        G[v] -= term
    return G.ravel()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1.1, 1.5, 2.0, 2.5, 3.0]), st.sampled_from([1, 2, 3]))
def test_gradients_match_the_per_edge_loop_bit_for_bit(seed, p, d):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    inst = Instance(rng.uniform(size=(n, d)), NormSpec(p))
    t = Tour(rng.permutation(n))
    o = t.order
    tour_pairs = [(min(a, b), max(a, b), 1.0) for a, b in zip(o, o[1:] + o[:1])]
    assert grad_tour_length(inst, t).tobytes() == _loop_edge_gradient(inst, tour_pairs).tobytes()
    # Random weights on a random support, in edge order.
    iu, iv = edge_index(n)
    x = EdgeWeightVector(n, np.where(rng.random(len(iu)) < 0.4, rng.random(len(iu)), 0.0))
    pairs = [(iu[k], iv[k], x.values[k]) for k in np.flatnonzero(x.values)]
    assert grad_fractional(inst, x).tobytes() == _loop_edge_gradient(inst, pairs).tobytes()


def _tour_pairs(t):
    o = t.order
    return [(a, b, 1.0) for a, b in zip(o, o[1:] + o[:1])]


@pytest.mark.parametrize("p", [1.1, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pooled_gradient_rows_match_each_tour_bit_for_bit(monkeypatch, p, d):
    # improvement_lp takes every pooled tour's gradient in one array pass;
    # each row is still that tour's own gradient minus the fractional term.
    inst = Instance(np.random.default_rng(10 * d + int(p)).uniform(size=(7, d)), NormSpec(p))
    x = solve_subtour_lp(inst).x
    pool = build_tour_pool(inst, 0.5 * held_karp(inst).length)
    r = pool.reference / fractional_cost(inst, x)
    frac = r * grad_fractional(inst, x)
    programs = []
    solve = localsearch.solve_lp
    monkeypatch.setattr(localsearch, "solve_lp", lambda lp: programs.append(lp) or solve(lp))
    improvement_lp(inst, pool, x, r)
    rows = programs[0].A[:, :-1]
    assert len(pool.tours) >= 5
    for row, t in zip(rows, pool.tours, strict=True):
        assert row.tobytes() == (grad_tour_length(inst, t) - frac).tobytes()
        assert row.tobytes() == (_loop_edge_gradient(inst, _tour_pairs(t)) - frac).tobytes()


def test_tour_gradient_zeros_match_the_per_edge_loop():
    # p = 3 and x gaps of 1e-200: the x terms underflow to signed zeros.
    # In tour order 0, 1, 2, 3 vertex 1's outgoing term is -0.0 and its
    # incoming one 0.0: the loop's (0.0 - 0.0) + -0.0 is 0.0, while their
    # bare difference -0.0 - 0.0 is -0.0.
    inst = Instance([(2e-200, 0.0), (1e-200, 1.0), (2e-200, 2.0), (4e-200, 3.0)], NormSpec(3.0))
    for order in ([0, 1, 2, 3], [0, 3, 2, 1], [1, 0, 3, 2]):
        t = Tour(order)
        got = grad_tour_length(inst, t)
        assert got.tobytes() == _loop_edge_gradient(inst, _tour_pairs(t)).tobytes()


def test_fractional_gradient_zeros_match_the_per_edge_loop():
    # The same underflow on a fractional x: every x term is a signed zero,
    # a vertex whose terms are all -0.0 sums to 0.0 as in the loop, which
    # starts from 0.0, and vertex 4, touched by no support edge, stays 0.0.
    inst = Instance([(2e-200, 0.0), (1e-200, 1.0), (2e-200, 2.0), (4e-200, 3.0), (0.0, 5.0)], NormSpec(3.0))
    supports = (
        {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 1.0, (1, 3): 0.5, (2, 3): 0.5},
        {(0, 3): 1.0, (1, 2): 0.25, (1, 3): 0.75, (0, 1): 0.5},
        {(2, 3): 1.0, (0, 2): 0.5},
    )
    for weights in supports:
        x = EdgeWeightVector.from_pairs(5, weights)
        iu, iv = edge_index(5)
        pairs = [(iu[k], iv[k], x.values[k]) for k in np.flatnonzero(x.values)]
        got = grad_fractional(inst, x)
        assert got.tobytes() == _loop_edge_gradient(inst, pairs).tobytes()
        assert got.reshape(5, 2)[4].tobytes() == np.zeros(2).tobytes()


def test_gradient_rejects_p_one():
    inst = Instance([(0, 0), (1, 0), (0, 1)], NormSpec(1.0))
    with pytest.raises(ValueError):
        grad_tour_length(inst, Tour([0, 1, 2]))


def test_gradient_translation_invariance():
    # Shifting every point together never changes any pairwise length, so
    # per-axis gradient entries must sum to zero.
    rng = np.random.default_rng(4)
    inst = Instance(rng.uniform(size=(7, 3)), NormSpec(2.5))
    t = Tour(rng.permutation(7))
    per_point = grad_tour_length(inst, t).reshape(7, 3)
    assert np.allclose(per_point.sum(axis=0), 0.0, atol=1e-12)


def test_grad_g_is_the_linear_combination():
    rng = np.random.default_rng(5)
    inst = Instance(rng.uniform(size=(6, 2)))
    t = held_karp(inst).tour
    x = solve_subtour_lp(inst).x
    r = 1.07
    lhs = grad_g(inst, t, x, r)
    rhs = grad_tour_length(inst, t) - r * grad_fractional(inst, x)
    assert np.allclose(lhs, rhs, atol=1e-14)


@pytest.mark.parametrize("seed, p", [(seed, p) for seed in range(3) for p in (1.5, 2.0, 3.0)])
def test_improvement_lp_rows_are_the_stacked_grad_g_rows(monkeypatch, seed, p):
    # improvement_lp computes the fractional gradient once per LP; its rows
    # are still grad_g of each pooled tour in tour order, bit for bit.
    inst = Instance(np.random.default_rng(seed).uniform(size=(7, 2)), NormSpec(p))
    x = solve_subtour_lp(inst).x
    pool = build_tour_pool(inst, 0.25 * held_karp(inst).length)
    r = pool.reference / fractional_cost(inst, x)
    programs = []
    solve = localsearch.solve_lp
    monkeypatch.setattr(localsearch, "solve_lp", lambda lp: programs.append(lp) or solve(lp))
    improvement_lp(inst, pool, x, r)
    want = np.array([grad_g(inst, t, x, r) for t in sorted(pool.tours, key=lambda t: t.order)])
    assert len(pool.tours) > 1
    assert programs[0].A[:, :-1].tobytes() == want.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        LocalSearchParams(epsilon0=0.0)
    with pytest.raises(ValueError):
        LocalSearchParams(epsilon2=-1e-9)
    with pytest.raises(ValueError):
        LocalSearchParams(p=1.0)
    with pytest.raises(ValueError):
        LocalSearchParams(p=float("inf"))
    with pytest.raises(ValueError):
        LocalSearchParams(max_iters=0)


def test_tour_pool_window_enforced():
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    short = Tour([0, 1, 2, 3])  # length 4
    crossing = Tour([0, 2, 1, 3])  # length 2 + 2*sqrt(2)
    # The window lives in build_tour_pool; a pool holds what it is given.
    assert build_tour_pool(inst, 0.1).tours == (short,)
    assert crossing in build_tour_pool(inst, 1.0).tours
    with pytest.raises(ValueError, match="empty tour pool"):
        TourPool(tours=(), reference=4.0)


def test_build_tour_pool_square():
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    tight = build_tour_pool(inst, 1e-6)
    assert tight.tours == (Tour([0, 1, 2, 3]),)
    # Window wide enough for the two crossing tours as well.
    wide = build_tour_pool(inst, 10.0)
    assert len(wide.tours) == 3


def _frozenset_pool(inst, window):
    # The pool's tours as a set, computed as build_tour_pool did when pools
    # were unordered and improvement_lp sorted them on every call.
    P = enumerate_tours(inst.n)
    lengths = inst.distance_matrix()[P, np.roll(P, -1, axis=1)].sum(axis=1)
    return frozenset(Tour(row) for row in P[lengths <= lengths.min() + window])


def test_build_tour_pool_comes_out_sorted_by_order():
    sizes = []
    for n in range(5, ENUM_MAX + 1):
        for seed in range(3):
            inst = random_instance(n, 2.0, np.random.default_rng(100 * n + seed))
            window = 2e-2 * held_karp(inst).length
            pool = build_tour_pool(inst, window)
            assert pool.tours == tuple(sorted(_frozenset_pool(inst, window), key=lambda t: t.order)), (n, seed)
            sizes.append(len(pool.tours))
    assert max(sizes) > 1


@pytest.mark.parametrize(
    "epsilon3, sizes",
    [(1e-2, [1, 2, 3, 3, 4, 5, 5, 5, 5, 6]), (1e-3, [1, 2, 1, 1, 1, 2, 1, 1, 1, 2])],
)
def test_grown_pool_is_the_pruned_union(monkeypatch, epsilon3, sizes):
    # Above ENUM_MAX each iteration's pool is the last one plus the current
    # optimal tour, less the tours outside the window, sorted by order.  The
    # narrower window drops tours along the way.
    params = LocalSearchParams(rng_seed=0, epsilon0=1e-6, epsilon1=5e-4, epsilon3=epsilon3, max_iters=10)
    seen = []
    real = localsearch.improvement_lp

    def spy(inst, pool, x, r):
        seen.append((inst, pool))
        return real(inst, pool, x, r)

    monkeypatch.setattr(localsearch, "improvement_lp", spy)
    local_search(ENUM_MAX + 1, params)
    last = frozenset()
    for inst, pool in seen:
        ex = held_karp(inst)
        window = params.epsilon3 * ex.length
        last = frozenset(t for t in last | {ex.tour} if tour_length(inst, t) <= ex.length + window)
        assert pool.reference == ex.length
        assert pool.tours == tuple(sorted(last, key=lambda t: t.order))
    assert [len(pool.tours) for _, pool in seen] == sizes


def test_derived_fields_read_their_source():
    res = solve_subtour_lp(random_instance(12, 2.0, np.random.default_rng(0)))
    assert res.rounds == len(res.cuts) > 0
    params = LocalSearchParams(rng_seed=19, epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2)
    _, trace = local_search(6, params)
    assert len(trace.records) > 1
    assert trace.final_ratio == trace.records[-1].ratio


def test_build_tour_pool_size_cap():
    rng = np.random.default_rng(0)
    inst = Instance(rng.uniform(size=(ENUM_MAX + 1, 2)))
    with pytest.raises(ValueError):
        build_tour_pool(inst, 0.1)


def test_improvement_lp_zero_on_fully_constrained_square():
    # All three tours of the square pull in conflicting directions; no
    # common ascent direction exists and delta collapses to zero.
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    pool = build_tour_pool(inst, 10.0)
    x = solve_subtour_lp(inst).x
    r = pool.reference / fractional_cost(inst, x)
    _, delta = improvement_lp(inst, pool, x, r)
    assert delta == pytest.approx(0.0, abs=1e-9)


def test_improvement_lp_at_curved_optimum():
    # The curved 6-point construction is a genuine local maximum: with the
    # full near-optimal pool the improvement value vanishes, with only the
    # single best tour constraining it stays large.
    res = ellipse_construct(0, 0, 1e-9)
    inst = res.instance
    ex = held_karp(inst)
    x = solve_subtour_lp(inst).x
    r = ex.length / fractional_cost(inst, x)
    full = build_tour_pool(inst, 1e-4 * ex.length)
    assert len(full.tours) == 7
    _, delta_full = improvement_lp(inst, full, x, r)
    assert delta_full <= 1e-9
    assert local_opt_certificate(inst, full, x, epsilon1=1e-6)
    single = TourPool(tours=(ex.tour,), reference=ex.length)
    _, delta_single = improvement_lp(inst, single, x, r)
    assert delta_single > 1.0
    assert not local_opt_certificate(inst, single, x, epsilon1=1e-6)


def test_improvement_direction_raises_g_and_ratio():
    # First-order sign agreement: a positive LP value means a small step
    # along w increases every pooled tour's g, and the exact ratio follows.
    res = ellipse_construct(0, 0, 1e-9)
    inst = res.instance
    ex = held_karp(inst)
    x = solve_subtour_lp(inst).x
    r = ex.length / fractional_cost(inst, x)
    single = TourPool(tours=(ex.tour,), reference=ex.length)
    w, delta = improvement_lp(inst, single, x, r)
    assert delta > 0
    eta = 1e-7
    moved = Instance(inst.points + eta * w.reshape(inst.n, inst.dim), inst.norm)
    g_before = tour_length(inst, ex.tour) - r * fractional_cost(inst, x)
    g_after = tour_length(moved, ex.tour) - r * fractional_cost(moved, x)
    assert g_after > g_before


def test_random_instance_is_deterministic():
    a = random_instance(6, 2.0, np.random.default_rng(9))
    b = random_instance(6, 2.0, np.random.default_rng(9))
    assert np.array_equal(a.points, b.points)
    assert a.norm.p == 2.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_instance_in_unit_square(seed):
    inst = random_instance(7, 2.0, np.random.default_rng(seed))
    assert inst.n == 7
    assert inst.points.min() >= 0.0 and inst.points.max() <= 1.0


def test_local_search_monotone_and_certified():
    params = LocalSearchParams(rng_seed=19, epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2)
    inst, trace = local_search(6, params)
    ratios = [rec.ratio for rec in trace.records]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert trace.converged
    assert trace.final_ratio == ratios[-1] > 1.01
    assert trace.records[0].iteration == 0
    ex = held_karp(inst)
    x = solve_subtour_lp(inst).x
    pool = build_tour_pool(inst, params.epsilon3 * ex.length)
    assert local_opt_certificate(inst, pool, x, epsilon1=params.epsilon1)


def test_ratio_state_skips_held_karp_on_integral_lp(monkeypatch):
    calls = []
    monkeypatch.setattr(localsearch, "held_karp", lambda inst: calls.append("held_karp") or held_karp(inst))
    monkeypatch.setattr(localsearch, "solve_subtour_lp", lambda inst: calls.append("lp") or solve_subtour_lp(inst))
    # The square's LP optimum is its tour: settled by the LP alone.
    square = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert localsearch._ratio_state(square, 1.0) is None and calls == ["lp"]
    inst = gen_I2(IJK(0, 0, 0))
    ratio, opt_len, x, tour = localsearch._ratio_state(inst, 1.0)
    assert calls == ["lp", "lp", "held_karp"]
    assert tour_length(inst, tour) == opt_len
    assert x == solve_subtour_lp(inst).x
    assert ratio == pytest.approx(18.0 / 17.0, abs=1e-7)

    # The search is the one that always solved OPT: with no LP optimum
    # counted as integral, every state past the table runs Held-Karp.
    params = dict(epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2)
    runs = []
    for tol in (localsearch._INTEGRAL_TOL, -1.0):
        monkeypatch.setattr(localsearch, "_INTEGRAL_TOL", tol)
        runs.append([local_search(6, LocalSearchParams(rng_seed=s, **params)) for s in (19, 32, 25)])
    for (inst, trace), (ref_inst, ref_trace) in zip(*runs):
        assert trace == ref_trace
        assert inst.points.tobytes() == ref_inst.points.tobytes()


def test_ratio_state_checks_lp_at_most_opt(monkeypatch):
    # A relaxation reported above the optimal tour length is an LP fault,
    # not a ratio below 1.
    def inflated(inst):
        res = solve_subtour_lp(inst)
        return lp.SubtourLpResult(res.x, 1.25 * res.cost, res.cuts, res.pivots)

    monkeypatch.setattr(localsearch, "solve_subtour_lp", inflated)
    with pytest.raises(LpError, match="exceeds the optimal tour length"):
        localsearch._ratio_state(gen_I2(IJK(0, 0, 0)), 1.0)


# local_search(6) at the criterion-9 parameters, frozen bit for bit: draws
# until the start, accepted records, the final ratio (float.hex), sha256 of
# the records' "ratio delta eta" float.hex lines, and sha256 of the final
# points' bytes.
_GOLDEN_SEARCH = [
    (
        19, 259, 25, "0x1.0456983a7f132p+0",
        "ac4e9be11fd928a6eafa975996a1b104e0e937831effa654b6525b1adec32667",
        "e1186a8261d2d0e8c5eaadc9de17928ae43120f2a7db0bc72afa3579176ed4f5",
    ),
    (
        32, 163, 87, "0x1.0614904376408p+0",
        "1479aee52e1a7f3169983acfeea72fc812c4ff074fe9527cc7ea3c1bac03acf3",
        "ef43a60ad93d77d0e5e8ad981e8c16ec3ff7b7fbaa1d6efeecc884e4f735e57a",
    ),
    (
        25, 186, 98, "0x1.06148ca4258b1p+0",
        "b3e1a4cd9e9153b9f5c4801d7718ec18639917273f01bd109d9a454e93b0748f",
        "9c655ff0b40c8581038fe201cdf7e37484101ac05779706bff10f5b337fad5f1",
    ),
]


@pytest.mark.parametrize("seed, restarts, n_records, final_hex, records_sha, points_sha", _GOLDEN_SEARCH)
def test_local_search_golden_bit_exact(seed, restarts, n_records, final_hex, records_sha, points_sha):
    params = LocalSearchParams(rng_seed=seed, epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2)
    inst, trace = local_search(6, params)
    lines = "".join(f"{r.ratio.hex()} {r.delta.hex()} {r.eta.hex()}\n" for r in trace.records)
    assert trace.restarts == restarts
    assert len(trace.records) == n_records
    assert trace.final_ratio.hex() == final_hex
    assert hashlib.sha256(lines.encode()).hexdigest() == records_sha
    assert hashlib.sha256(np.ascontiguousarray(inst.points).tobytes()).hexdigest() == points_sha


def test_search_separates_without_stoer_wagner(monkeypatch):
    # At n = 6 every separation of the seed-19 search is settled by the
    # scores of all cuts, and the golden above still holds.
    calls = []
    stoer_wagner = lp._stoer_wagner
    monkeypatch.setattr(lp, "_stoer_wagner", lambda *args: calls.append(1) or stoer_wagner(*args))
    test_local_search_golden_bit_exact(*_GOLDEN_SEARCH[0])
    assert calls == []


def test_search_above_enum_cap_runs_held_karp_once_per_state(monkeypatch):
    # Above ENUM_MAX the pool grows from the accepted state's optimal tour,
    # which _ratio_state already found; no Held-Karp call happens outside
    # it.  The trace is the one recorded when the pool re-ran Held-Karp.
    calls = {"inside": 0, "outside": 0}
    depth = []
    real_held_karp, real_ratio_state = localsearch.held_karp, localsearch._ratio_state

    def counted_held_karp(inst):
        calls["inside" if depth else "outside"] += 1
        return real_held_karp(inst)

    def counted_ratio_state(inst, floor):
        depth.append(1)
        try:
            return real_ratio_state(inst, floor)
        finally:
            depth.pop()

    monkeypatch.setattr(localsearch, "held_karp", counted_held_karp)
    monkeypatch.setattr(localsearch, "_ratio_state", counted_ratio_state)
    n = ENUM_MAX + 1
    params = LocalSearchParams(rng_seed=0, epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2, max_iters=4)
    inst, trace = local_search(n, params)
    lines = "".join(f"{r.ratio.hex()} {r.delta.hex()} {r.eta.hex()}\n" for r in trace.records)
    assert (trace.restarts, len(trace.records), trace.final_ratio.hex()) == (15, 5, "0x1.04d450eab0b59p+0")
    assert hashlib.sha256(lines.encode()).hexdigest() == "eeb5f68f7b3639767c563fb20f36e4060b527b69ea6d6dc83cb4dbf6fb5a9c7b"
    assert (
        hashlib.sha256(np.ascontiguousarray(inst.points).tobytes()).hexdigest()
        == "2b5c6d7a5633ff556a75a66f093f015fd95fef2b12756179d6dc3e17710ecfcf"
    )
    assert calls == {"inside": 24, "outside": 0}  # 28 when the pool re-ran it


def test_search_solve_count_is_pinned(monkeypatch):
    # Dense solves of the seed-19 search from a cached degree start; the
    # simplex that re-solved the duals after bound flips and the optimum
    # after each optimise made 12,267.
    lp._degree_start(6, lp.BLAND_AFTER, lp.PIVOT_CAP)
    calls = []
    solve = lp._solve
    monkeypatch.setattr(lp, "_solve", lambda *args: calls.append(1) or solve(*args))
    test_local_search_golden_bit_exact(*_GOLDEN_SEARCH[0])
    assert len(calls) == 2541  # 11,422 before the vertex-table screen


def test_search_subtour_lp_count_is_pinned(monkeypatch):
    # Subtour LPs of the seed-19 search: the vertex table passes over 300
    # of the 328 that the search solved without it.
    calls = []
    solve = localsearch.solve_subtour_lp
    monkeypatch.setattr(localsearch, "solve_subtour_lp", lambda inst: calls.append(1) or solve(inst))
    test_local_search_golden_bit_exact(*_GOLDEN_SEARCH[0])
    assert len(calls) == 28


@pytest.mark.parametrize("n", [3, 5, HELD_KARP_MAX + 1])
def test_local_search_refuses_sizes_before_any_draw(monkeypatch, n):
    # Up to 5 points every vertex of the subtour polytope is a tour (the
    # facet tests below), so no draw can beat 1 + epsilon0.
    monkeypatch.setattr(localsearch, "random_instance", lambda *args: pytest.fail("drew an instance"))
    with pytest.raises(ValueError, match=rf"needs 6 <= n <= {HELD_KARP_MAX}, got {n}: .* every ratio is 1"):
        local_search(n, LocalSearchParams())


def test_draw_cap_error_says_to_lower_epsilon0(monkeypatch):
    monkeypatch.setattr(localsearch, "_RESTART_CAP", 3)
    with pytest.raises(localsearch.LocalSearchError) as err:
        local_search(6, LocalSearchParams(rng_seed=0, epsilon0=1.0))
    assert str(err.value) == "no random 6-point start with ratio > 1 + 1.0 in 3 draws; lower epsilon0"


# -- the subtour polytope's vertex table (n = 6; tours alone below) ----------


def _table(n):
    # (rows, k): the 6-point vertex table, or below six points the k tours
    # of `enumerate_tours(n)` as 0/1 rows over edge order; the facet test
    # shows that those are every vertex.
    if n == 6:
        return localsearch._vertex_table()
    tours = enumerate_tours(n)
    u, v = tours, np.roll(tours, -1, axis=1)
    rows = np.zeros((len(tours), n * (n - 1) // 2))
    rows[np.arange(len(tours))[:, None], edge_position(n, np.minimum(u, v), np.maximum(u, v))] = 1.0
    return rows, len(tours)


@pytest.mark.parametrize("n, rows", [(3, 1), (4, 3), (5, 12), (6, 120)])
def test_vertex_table_rows_are_distinct_subtour_points(n, rows):
    # Distinct 0/1 rows that pass every cut are distinct tours, as many as
    # there are: the first rows are all the tours.
    table, tours = _table(n)
    assert table.shape == (rows, n * (n - 1) // 2) and (n < 6 or not table.flags.writeable)
    assert tours == len(enumerate_tours(n)) and len(np.unique(table, axis=0)) == rows
    for k, row in enumerate(table):
        assert np.array_equal(degree_vector(EdgeWeightVector(n, row)), np.full(n, 2.0))
        assert (lp._cut_masks(n) @ row >= 2.0).all()
        assert set(row.tolist()) <= ({0.0, 1.0} if k < tours else {0.0, 0.5, 1.0})


@pytest.mark.parametrize("n, facets", [(4, 3), (5, 20), (6, 40)])
def test_vertex_table_facets_are_subtour_inequalities(n, facets):
    # The table's hull lies in the subtour polytope (rows feasible, above),
    # and each of its facets is one of the polytope's own inequalities, so
    # the hull is the whole polytope and every vertex is a table row.  The
    # hull is taken in coordinates of the degree equations' affine hull.
    table, _ = _table(n)
    iu, iv = edge_index(n)
    m = len(iu)
    incidence = np.zeros((n, m))
    incidence[iu, np.arange(m)] = incidence[iv, np.arange(m)] = 1.0
    directions = np.linalg.svd(incidence)[2][n:].T
    y = (table - table[0]) @ directions
    hull = ConvexHull(y)  # raises unless the hull spans the affine hull
    _, first = np.unique(np.round(hull.equations, 9), axis=0, return_index=True)
    faces = {frozenset(np.flatnonzero(np.abs(y @ eq[:-1] + eq[-1]) <= 1e-7).tolist()) for eq in hull.equations[first]}
    # x_e >= 0, x_e <= 1 and every cut >= 2, each by the rows it is tight at.
    lhs = np.vstack([np.eye(m), -np.eye(m), lp._cut_masks(n)])
    rhs = np.concatenate([np.zeros(m), -np.ones(m), np.full(len(lhs) - 2 * m, 2.0)])
    values = table @ lhs.T
    assert (values >= rhs - 1e-12).all()
    tight = {frozenset(np.flatnonzero(col <= r + 1e-12).tolist()) for col, r in zip(values.T, rhs)}
    assert len(faces) == facets and faces <= tight


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_vertex_table_minimum_is_the_subtour_lp(p):
    rng = np.random.default_rng(int(p * 10))
    for n, count in ((4, 40), (5, 40), (6, 160)):
        table, _ = _table(n)
        for _ in range(count):
            inst = random_instance(n, p, rng)
            values = table @ edge_costs(inst)
            res = solve_subtour_lp(inst)
            assert res.cost == pytest.approx(values.min(), rel=1e-12, abs=0)
            assert np.abs(table - res.x.values).max(axis=1).min() <= 1e-9


def test_the_six_point_table_is_pinned(monkeypatch):
    # The table `_ratio_state` reads for a 6-point state: its bytes (C order)
    # and its k = 60 tour rows.
    read, real = [], localsearch._vertex_table
    monkeypatch.setattr(localsearch, "_vertex_table", lambda *args: read.append(real(*args)) or read[-1])
    localsearch._ratio_state(gen_I2(IJK(0, 0, 0)), 1.0)
    (table, k), = read
    assert (table.shape, k) == ((120, 15), 60)
    assert hashlib.sha256(table.tobytes()).hexdigest() == "bb3fd2d076151dcfa16dbaa269970ad25b3fd66248b9c17c49d3807f4f9f7188"


def test_a_six_point_state_computes_its_edge_costs_once(monkeypatch):
    # The vertex-table screen and the subtour LP of one state share the
    # instance's read-only cost vector.
    shapes, real = [], core._row_norms
    monkeypatch.setattr(core, "_row_norms", lambda diff, p: shapes.append(diff.shape) or real(diff, p))
    inst = gen_I2(IJK(0, 0, 0))
    assert localsearch._ratio_state(inst, 1.0) is not None
    assert shapes.count((15, 2)) == 1
    costs = edge_costs(inst)
    assert costs is edge_costs(inst) and not costs.flags.writeable


def test_ratio_state_reads_the_table_only_up_to_six_points(monkeypatch):
    # 18/17 at gen_I2(0, 0, 0): settled below the margin with no LP, open
    # inside it; at n = 5 and 7 there is no table, so every state solves its LP.
    inst = gen_I2(IJK(0, 0, 0))
    ratio = localsearch._ratio_state(inst, 1.0)[0]
    rng = np.random.default_rng(0)
    near, far = random_instance(5, 2.0, rng), random_instance(7, 2.0, rng)
    calls = []
    monkeypatch.setattr(localsearch, "solve_subtour_lp", lambda inst: calls.append(inst.n) or solve_subtour_lp(inst))
    assert localsearch._ratio_state(inst, ratio * (1 + 2e-9)) is None and calls == []
    assert localsearch._ratio_state(inst, ratio) is None and calls == [6]
    assert localsearch._ratio_state(far, 2.0) is None and calls == [6, 7]
    assert localsearch._ratio_state(near, 1.0) is None and calls == [6, 7, 5]


_SCREEN_PARAMS = dict(epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2)


def _unscreened_ratio_state(inst, floor):
    # No vertex table and no integral-LP exit: every state solves its LP
    # and Held-Karp.
    res = solve_subtour_lp(inst)
    exact = held_karp(inst)
    ratio = checked_ratio(exact.length, res.cost)
    return (ratio, exact.length, res.x, exact.tour) if ratio > floor else None


@pytest.mark.parametrize("seed, max_iters", [(19, 500), (32, 500), (25, 500), (3, 30)])
def test_screened_search_equals_the_unscreened_one(monkeypatch, seed, max_iters):
    params = LocalSearchParams(rng_seed=seed, max_iters=max_iters, **_SCREEN_PARAMS)
    inst, trace = local_search(6, params)
    monkeypatch.setattr(localsearch, "_ratio_state", _unscreened_ratio_state)
    ref_inst, ref_trace = local_search(6, params)
    assert trace == ref_trace and trace.converged == (max_iters == 500)
    assert inst.points.tobytes() == ref_inst.points.tobytes()


def test_line_search_lets_an_evaluation_fault_escape(monkeypatch):
    # Only a step that collapses two points is halved; a ValueError from
    # the LP or Held-Karp of a step propagates.
    real = localsearch._ratio_state
    started = []

    def faulty(inst, floor):
        if started:
            raise ValueError("evaluation fault")
        state = real(inst, floor)
        if state is not None:
            started.append(inst)  # the start; its first step faults
        return state

    monkeypatch.setattr(localsearch, "_ratio_state", faulty)
    with pytest.raises(ValueError, match="evaluation fault"):
        local_search(6, LocalSearchParams(rng_seed=19, **_SCREEN_PARAMS))
    assert len(started) == 1


def _rejecting_search(monkeypatch, direction, **params):
    """Run local_search(6) at seed 19 with improvement_lp returning
    direction(start points) at delta 1 and every step rejected.  Returns
    the start, the direction and the trace, and the candidates tried."""
    real = localsearch._ratio_state
    start, tried = [], []

    def reject_steps(inst, floor):
        if start:
            tried.append(inst)
            return None
        state = real(inst, floor)
        if state is not None:
            start.append(inst)
        return state

    monkeypatch.setattr(localsearch, "_ratio_state", reject_steps)
    monkeypatch.setattr(localsearch, "improvement_lp", lambda inst, pool, x, r: (direction(inst.points), 1.0))
    _, trace = local_search(6, LocalSearchParams(rng_seed=19, **{**_SCREEN_PARAMS, **params}))
    step = direction(start[0].points).reshape(6, 2)
    return start[0], step, trace, tried


def _assert_tried(start, step, tried, etas):
    assert [c.points.tobytes() for c in tried] == [(start.points + eta * step).tobytes() for eta in etas]


def test_line_search_stops_below_the_step_floor(monkeypatch):
    # Every step rejected: the ladder tries 1, 1/2, ..., down to the last
    # eta >= epsilon2 (2**-23 >= 1e-7 > 2**-24), then the search stops at
    # its start, flagged converged.
    start, step, trace, tried = _rejecting_search(monkeypatch, lambda pts: np.full(pts.size, 0.25))
    _assert_tried(start, step, tried, [0.5**k for k in range(24)])
    assert trace.converged and len(trace.records) == 1
    assert trace.records[0].iteration == 0 and trace.records[0].eta == 0.0


def test_line_search_halves_a_step_that_collapses_two_points(monkeypatch):
    # At eta = 1 the direction puts vertex 1 on vertex 0, so that step is
    # never evaluated; the ladder goes on at 1/2 and stops below epsilon2.
    def onto_vertex_0(pts):
        w = np.zeros(pts.size)
        w[2:4] = pts[0] - pts[1]
        return w

    start, step, trace, tried = _rejecting_search(monkeypatch, onto_vertex_0, epsilon2=0.2)
    with pytest.raises(ValueError, match="coincident points 0 and 1"):
        Instance(start.points + step, start.norm)
    _assert_tried(start, step, tried, [0.5, 0.25])
    assert trace.converged and len(trace.records) == 1
