"""Gradient machinery, improvement LP, tour pools, and the search driver."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspgap import localsearch
from tspgap.core import EdgeWeightVector, Instance, NormSpec, Tour, edge_index, fractional_cost, tour_length
from tspgap.ellipse import ellipse_construct
from tspgap.exact import ENUM_MAX, held_karp
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
from tspgap.lp import solve_subtour_lp


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
    # The per-edge loop `_edge_gradient` replaced, kept as its reference.
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
@given(st.integers(0, 2**31 - 1), st.sampled_from([1.1, 1.5, 2.0, 2.5, 3.0]), st.sampled_from([2, 3]))
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
    pool = TourPool(tours=frozenset({short}), reference=4.0, window=0.1)
    pool.check(inst)
    bad = TourPool(tours=frozenset({short, crossing}), reference=4.0, window=0.1)
    with pytest.raises(ValueError):
        bad.check(inst)
    pruned = bad.pruned(inst, 4.0, 0.1)
    assert pruned.tours == frozenset({short})


def test_build_tour_pool_square():
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    tight = build_tour_pool(inst, 1e-6)
    assert tight.tours == frozenset({Tour([0, 1, 2, 3])})
    # Window wide enough for the two crossing tours as well.
    wide = build_tour_pool(inst, 10.0)
    assert len(wide.tours) == 3


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
    single = TourPool(tours=frozenset({ex.tour}), reference=ex.length, window=1e-4 * ex.length)
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
    single = TourPool(tours=frozenset({ex.tour}), reference=ex.length, window=1e-4 * ex.length)
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


def _held_karp_first_ratio_state(inst):
    # The evaluation order before the integral-LP shortcut: always solve OPT.
    exact = held_karp(inst)
    lp = solve_subtour_lp(inst)
    return exact.length / lp.cost, exact.length, lp.x, exact.tour


def test_ratio_state_skips_held_karp_on_integral_lp(monkeypatch):
    calls = []

    def counting_held_karp(inst):
        calls.append(inst.n)
        return held_karp(inst)

    monkeypatch.setattr(localsearch, "held_karp", counting_held_karp)
    square = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    ratio, opt_len, x, tour = localsearch._ratio_state(square)
    assert calls == [] and tour is None
    assert (ratio, opt_len) == (1.0, 4.0)
    assert x == solve_subtour_lp(square).x
    ratio, opt_len, _, tour = localsearch._ratio_state(gen_I2(IJK(0, 0, 0)))
    assert calls == [6]
    assert tour_length(gen_I2(IJK(0, 0, 0)), tour) == opt_len
    assert ratio == pytest.approx(18.0 / 17.0, abs=1e-7)

    params = dict(epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2)
    runs = []
    for ratio_state in (localsearch._ratio_state, _held_karp_first_ratio_state):
        monkeypatch.setattr(localsearch, "_ratio_state", ratio_state)
        runs.append([local_search(6, LocalSearchParams(rng_seed=s, **params)) for s in (19, 32, 25)])
    for (inst, trace), (ref_inst, ref_trace) in zip(*runs):
        assert trace == ref_trace
        assert inst.points.tobytes() == ref_inst.points.tobytes()


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


def test_search_above_enum_cap_runs_held_karp_once_per_state(monkeypatch):
    # Above ENUM_MAX the pool grows from the accepted state's optimal tour,
    # which _ratio_state already found; no Held-Karp call happens outside
    # it.  The trace is the one recorded when the pool re-ran Held-Karp.
    calls = {"held_karp": 0, "states": 0}
    real_held_karp, real_ratio_state = localsearch.held_karp, localsearch._ratio_state

    def counted_held_karp(inst):
        calls["held_karp"] += 1
        return real_held_karp(inst)

    def counted_ratio_state(inst):
        state = real_ratio_state(inst)
        calls["states"] += state[3] is not None
        return state

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
    assert calls["held_karp"] == calls["states"] == 24  # 28 when the pool re-ran it
