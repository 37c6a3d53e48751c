"""Exact solvers: Held-Karp against brute force, caps, ratio plumbing."""

import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspgap.core import COINCIDENT_TOL, Instance, NormSpec, Tour, tour_length
from tspgap import exact
from tspgap.exact import (
    ENUM_MAX,
    HELD_KARP_MAX,
    ExactResult,
    enumerate_tours,
    held_karp,
    heuristic_tour,
    integrality_ratio,
)
from tspgap.families import IJK, gen_I2
from tspgap.lp import LpError


def brute_force(inst):
    """Optimal tour by scanning `enumerate_tours`; 3 <= n <= ENUM_MAX.  The
    oracle Held-Karp is checked against.

    Each length adds the closing edges 0 - first and last - 0, then the
    path edges in order; the first minimum wins.
    """
    n = inst.n
    if not 3 <= n <= ENUM_MAX:
        raise ValueError(f"brute_force handles 3 <= n <= {ENUM_MAX}, got {n}")
    P = enumerate_tours(n)
    D = inst.distance_matrix()
    cost = D[0, P[:, 1]] + D[P[:, -1], 0]
    for k in range(1, n - 1):
        cost += D[P[:, k], P[:, k + 1]]
    best = int(cost.argmin())
    return ExactResult(Tour(P[best].tolist()), float(cost[best]), "brute_force")


def test_unit_square_optimum():
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    res = held_karp(inst)
    assert res.length == pytest.approx(4.0, abs=1e-12)
    assert res.tour == Tour([0, 1, 2, 3])
    assert res.method == "held_karp"


def test_brute_force_square():
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    res = brute_force(inst)
    assert res.length == pytest.approx(4.0, abs=1e-12)
    assert res.method == "brute_force"


def _grid_points(rng, n, side=4):
    """n distinct points of the side x side integer grid: many equal-length
    paths, so the DP's tie-breaking decides the tour."""
    cells = rng.choice(side * side, size=n, replace=False)
    return np.stack([cells % side, cells // side], axis=1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(4, 8), st.booleans())
def test_held_karp_agrees_with_brute_force(seed, n, grid):
    rng = np.random.default_rng(seed)
    p = (1.0, 2.0, 3.0)[seed % 3]
    pts = _grid_points(rng, n) if grid else rng.uniform(size=(n, 2))
    inst = Instance(pts, NormSpec(p))
    hk = held_karp(inst)
    bf = brute_force(inst)
    assert hk.length == pytest.approx(bf.length, abs=1e-9)
    assert tour_length(inst, hk.tour) == pytest.approx(hk.length, rel=1e-12)


# held_karp's length (as float.hex) and canonical tour, frozen bit for bit.
# Cases are (kind, n, p, seed): "uniform" points in the unit square, or
# "grid" points of the 4 x 4 integer grid under L1, where every case has
# 2-16 optimal tours and the tie-break picks the one returned.
_GOLDEN = [
    (("uniform", 13, 1.0, 113), "0x1.1624b9959b404p+2", (0, 1, 4, 7, 9, 2, 5, 8, 11, 10, 3, 6, 12)),
    (("uniform", 13, 2.0, 113), "0x1.d2244a292010ep+1", (0, 1, 4, 7, 9, 2, 5, 8, 11, 10, 3, 6, 12)),
    (("uniform", 14, 1.0, 114), "0x1.0740106bd921cp+2", (0, 6, 11, 13, 5, 12, 3, 1, 7, 10, 2, 9, 4, 8)),
    (("uniform", 14, 2.0, 114), "0x1.9fd409f6e0b79p+1", (0, 6, 13, 11, 5, 12, 3, 1, 7, 10, 2, 9, 4, 8)),
    (("uniform", 15, 1.0, 115), "0x1.3937940bf5016p+2", (0, 3, 8, 1, 7, 14, 13, 4, 10, 5, 2, 6, 12, 11, 9)),
    (("uniform", 15, 2.0, 115), "0x1.f3ac7643e13f9p+1", (0, 3, 11, 12, 6, 5, 2, 10, 4, 13, 14, 7, 1, 8, 9)),
    (("uniform", 16, 1.0, 116), "0x1.245b85a00c215p+2", (0, 11, 3, 4, 7, 12, 5, 9, 14, 2, 10, 8, 15, 1, 6, 13)),
    (("uniform", 16, 2.0, 116), "0x1.dc663f72c21c3p+1", (0, 11, 3, 4, 7, 12, 5, 9, 14, 2, 10, 8, 15, 6, 1, 13)),
    (("grid", 8, 1.0, 8), "0x1.c000000000000p+3", (0, 1, 2, 6, 7, 5, 3, 4)),
    (("grid", 9, 1.0, 9), "0x1.c000000000000p+3", (0, 1, 4, 2, 3, 5, 8, 6, 7)),
    (("grid", 10, 1.0, 10), "0x1.8000000000000p+3", (0, 2, 6, 7, 3, 4, 5, 9, 1, 8)),
    (("grid", 10, 1.0, 13), "0x1.c000000000000p+3", (0, 1, 3, 2, 5, 7, 6, 4, 8, 9)),
]


@pytest.mark.parametrize("case, length_hex, order", _GOLDEN)
def test_held_karp_golden_bit_exact(case, length_hex, order):
    kind, n, p, seed = case
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2)) if kind == "uniform" else _grid_points(rng, n)
    res = held_karp(Instance(pts, NormSpec(p)))
    assert res.length.hex() == length_hex
    assert res.tour.order == order


def _held_karp_per_mask(inst):
    """Reference: the same DP one mask at a time, with a parent table."""
    D = inst.distance_matrix()
    r = inst.n - 1
    Dr, d0, full = D[1:, 1:], D[0, 1:], (1 << r) - 1
    dp = np.full((full + 1, r), np.inf)
    parent = np.full((full + 1, r), -1)
    for v in range(r):
        dp[1 << v, v] = d0[v]
    for s in range(1, full + 1):
        if s & (s - 1):
            vs = np.nonzero([s >> v & 1 for v in range(r)])[0]
            cand = dp[s ^ (1 << vs)] + Dr[:, vs].T
            dp[s, vs] = cand.min(axis=1)
            parent[s, vs] = cand.argmin(axis=1)
    closing = dp[full] + d0
    v, s, path = int(closing.argmin()), full, []
    length = float(closing[v])
    while v >= 0:
        path.append(v + 1)
        v, s = int(parent[s, v]), s ^ (1 << v)
    return length, Tour([0] + path[::-1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 10), st.booleans())
def test_held_karp_matches_per_mask_reference_bit_exact(seed, n, grid):
    rng = np.random.default_rng(seed)
    pts = _grid_points(rng, n) if grid else rng.uniform(size=(n, 2))
    inst = Instance(pts, NormSpec((1.0, 2.0, 3.0)[seed % 3]))
    res = held_karp(inst)
    length, tour = _held_karp_per_mask(inst)
    assert res.length.hex() == length.hex()
    assert res.tour == tour


def test_held_karp_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(9, 2))
    inst = Instance(pts)
    perm = rng.permutation(9)
    relabeled = Instance(pts[perm])
    assert held_karp(inst).length == pytest.approx(held_karp(relabeled).length, rel=1e-12)


def test_size_caps_enforced():
    rng = np.random.default_rng(1)
    big = Instance(rng.uniform(size=(HELD_KARP_MAX + 1, 2)))
    with pytest.raises(ValueError):
        held_karp(big)
    mid = Instance(rng.uniform(size=(ENUM_MAX + 1, 2)))
    with pytest.raises(ValueError):
        brute_force(mid)


def test_returned_tour_attains_reported_length():
    p = IJK(1, 2, 1)
    inst = gen_I2(p)
    res = held_karp(inst)
    assert tour_length(inst, res.tour) == pytest.approx(res.length, rel=1e-12)


def test_integrality_ratio_at_least_one():
    rng = np.random.default_rng(9)
    for _ in range(3):
        inst = Instance(rng.uniform(size=(7, 2)))
        r = integrality_ratio(inst)
        assert isinstance(r, float)
        assert r >= 1.0 - 1e-9


def test_integrality_ratio_known_value():
    assert integrality_ratio(gen_I2(IJK(0, 0, 0))) == pytest.approx(18.0 / 17.0, abs=1e-7)


def _two_opt_gain(inst, order):
    """Largest length decrease any 2-opt move on the cyclic order achieves."""
    D = inst.distance_matrix()
    n = len(order)
    gain = 0.0
    for a in range(n):
        for c in range(a + 2, n):
            if a == 0 and c == n - 1:
                continue  # the two edges share vertex order[0]
            b, d = order[a + 1], order[(c + 1) % n]
            old = D[order[a], b] + D[order[c], d]
            gain = max(gain, old - D[order[a], order[c]] - D[b, d])
    return gain


@pytest.mark.parametrize("seed", range(6))
def test_heuristic_tour_is_a_deterministic_two_opt_optimum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 31))
    inst = Instance(rng.uniform(size=(n, 2)), NormSpec((1.0, 2.0)[seed % 2]))
    tour, length = heuristic_tour(inst)
    assert sorted(tour.order) == list(range(n))
    D = inst.distance_matrix()
    o = tour.order
    assert length == pytest.approx(sum(D[o[i - 1], o[i]] for i in range(n)), rel=1e-12)
    assert heuristic_tour(inst) == (tour, length)
    assert _two_opt_gain(inst, o) <= 1e-12


def _reference_heuristic_tour(inst):
    """heuristic_tour over numpy scalars indexed from the distance matrix:
    the oracle for its list-of-rows lookups."""
    dmat = inst.distance_matrix()
    n = inst.n
    unvisited = set(range(1, n))
    order = [0]
    while unvisited:
        here = order[-1]
        nxt = min(unvisited, key=lambda v: (dmat[here, v], v))
        unvisited.remove(nxt)
        order.append(nxt)
    improved = True
    while improved:
        improved = False
        for a in range(n - 1):
            for c in range(a + 2, n):
                if a == 0 and c == n - 1:
                    continue
                b, d = a + 1, (c + 1) % n
                delta = (
                    dmat[order[a], order[c]] + dmat[order[b], order[d]]
                    - dmat[order[a], order[b]] - dmat[order[c], order[d]]
                )
                if delta < -1e-12:
                    order[b : c + 1] = reversed(order[b : c + 1])
                    improved = True
    tour = Tour(order)
    return tour, tour_length(inst, tour)


def test_heuristic_tour_matches_the_numpy_indexed_reference():
    rng = np.random.default_rng(22)
    for k in range(200):
        n = int(rng.integers(5, 41))
        inst = Instance(rng.uniform(size=(n, 2)), NormSpec((1.0, 2.0)[k % 2]))
        tour, length = heuristic_tour(inst)
        want, want_length = _reference_heuristic_tour(inst)
        assert tour.order == want.order and length.hex() == want_length.hex(), (k, n)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 9), st.booleans())
def test_heuristic_tour_never_beats_held_karp(seed, n, grid):
    rng = np.random.default_rng(seed)
    pts = _grid_points(rng, n) if grid else rng.uniform(size=(n, 2))
    inst = Instance(pts, NormSpec((1.0, 2.0)[seed % 2]))
    opt = held_karp(inst).length
    assert heuristic_tour(inst)[1] >= opt * (1 - 1e-12)


def test_integrality_ratio_rejects_opt_below_lp(monkeypatch):
    # An "optimum" of length 1 lies below the relaxation cost 17/3.
    monkeypatch.setattr(
        exact, "held_karp", lambda inst: ExactResult(Tour(range(inst.n)), 1.0, "held_karp")
    )
    with pytest.raises(LpError, match="exceeds the optimal tour length"):
        integrality_ratio(gen_I2(IJK(0, 0, 0)))


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_integrality_ratio_rejects_an_inflated_lp_at_any_scale(monkeypatch, scale):
    # A relaxation reported at 1.25x its cost lies above the optimum of an
    # 8-point instance however small its coordinates are.
    real = exact.solve_subtour_lp

    def inflated(inst):
        res = real(inst)
        return dataclasses.replace(res, cost=1.25 * res.cost)

    monkeypatch.setattr(exact, "solve_subtour_lp", inflated)
    pts = np.random.default_rng(8).uniform(size=(8, 2)) * scale
    with pytest.raises(LpError, match="exceeds the optimal tour length"):
        integrality_ratio(Instance(pts))


_BELOW_LP_SCRIPT = """
from tspgap import exact
from tspgap.core import Tour
from tspgap.families import IJK, gen_I2
from tspgap.lp import LpError

print("debug" if __debug__ else "optimized")
exact.held_karp = lambda inst: exact.ExactResult(Tour(range(inst.n)), 1.0, "held_karp")
try:
    exact.integrality_ratio(gen_I2(IJK(0, 0, 0)))
except LpError:
    print("raised")
"""


def test_integrality_ratio_check_survives_optimize_flag():
    src = os.path.dirname(os.path.dirname(exact.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BELOW_LP_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["optimized", "raised"]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(6, 10), st.sampled_from([1.0, 2.0]))
# With an absolute pricing tolerance this draw's subtour LP stopped one pivot
# short of its optimum at scale 1e-6.
@example(seed=3182, n=6, p=1.0)
def test_integrality_ratio_invariant_under_relabel_shift_and_scale(seed, n, p):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    want = integrality_ratio(Instance(pts, NormSpec(p)))
    moved = [
        pts[rng.permutation(n)],
        pts + rng.uniform(-50.0, 50.0, size=2),
        pts * 1e3,
        pts * 1e-3,
        pts * 1e6,
        pts * 1e-6,
    ]
    for q in moved:
        assert integrality_ratio(Instance(q, NormSpec(p))) == pytest.approx(want, rel=1e-9)


_NEAR_GAPS = [0.5 * COINCIDENT_TOL, COINCIDENT_TOL, math.nextafter(COINCIDENT_TOL, 1.0), 1.5 * COINCIDENT_TOL, 4 * COINCIDENT_TOL]


@pytest.mark.parametrize("gap", _NEAR_GAPS)
@pytest.mark.parametrize("seed, p", [(seed, p) for seed in range(4) for p in (1.0, 2.0)])
def test_near_coincident_pair_solves_or_raises_a_clean_error(seed, p, gap):
    # Point 0 sits at the origin and a copy of it at (gap, 0), so the stored
    # gap is exact.  At or inside COINCIDENT_TOL the pair is rejected by
    # name; outside it the ratio is that of the instance without the copy:
    # a zero-length detour moves OPT and the subtour LP by at most 2 * gap.
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(int(rng.integers(5, 10)), 2))
    pts -= pts[0]
    near = np.vstack([pts, [gap, 0.0]])
    if gap <= COINCIDENT_TOL:
        with pytest.raises(ValueError, match=rf"^coincident points 0 and {len(pts)}$"):
            Instance(near, NormSpec(p))
        return
    want = integrality_ratio(Instance(pts, NormSpec(p)))
    assert integrality_ratio(Instance(near, NormSpec(p))) == pytest.approx(want, rel=1e-9)


def _python_brute_force(inst):
    # The pure-Python scan `brute_force` replaced, kept as its oracle.
    D = inst.distance_matrix().tolist()
    best_cost, best_perm = np.inf, None
    for perm in itertools.permutations(range(1, inst.n)):
        if perm[0] > perm[-1]:
            continue
        cost = D[0][perm[0]] + D[perm[-1]][0]
        for a, b in zip(perm, perm[1:]):
            cost += D[a][b]
        if cost < best_cost:
            best_cost, best_perm = cost, perm
    return (0,) + best_perm, best_cost


@pytest.mark.parametrize("n", range(3, 9))
def test_enumerate_tours_is_the_canonical_lexicographic_list(n):
    want = [(0,) + perm for perm in itertools.permutations(range(1, n)) if perm[0] < perm[-1]]
    got = enumerate_tours(n)
    assert [tuple(row) for row in got.tolist()] == want
    assert enumerate_tours(n) is got
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0] = 1


def test_enumerate_tours_cap():
    assert len(enumerate_tours(ENUM_MAX)) == 181440  # 9!/2
    for n in (2, ENUM_MAX + 1):
        with pytest.raises(ValueError, match="tour enumeration"):
            enumerate_tours(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 8), st.booleans())
def test_brute_force_matches_the_python_scan_bit_for_bit(seed, n, grid):
    rng = np.random.default_rng(seed)
    pts = _grid_points(rng, n) if grid else rng.uniform(size=(n, 2))
    inst = Instance(pts, NormSpec((1.0, 2.0, 3.0)[seed % 3]))
    res = brute_force(inst)
    order, cost = _python_brute_force(inst)
    assert (res.tour.order, res.length.hex()) == (order, cost.hex())


def test_layers_are_cached_read_only_int32_rows_without_v():
    for r in (2, 5, 9):
        layers = exact._layers(r)
        assert exact._layers(r) is layers
        assert [T.shape for T in layers] == [(r, math.comb(r - 1, k - 1)) for k in range(2, r + 1)]
        for k, T in enumerate(layers, start=2):
            assert T.dtype == np.int32 and not T.flags.writeable
            for v, row in enumerate(T.tolist()):
                assert all(bin(t).count("1") == k - 1 and not t >> v & 1 for t in row)
                assert row == sorted(set(row))
        # The same r * 2^(r-1) indices as one per (end vertex, mask) pair,
        # less the r singletons of the DP base.
        assert sum(T.size for T in layers) == r * 2 ** (r - 1) - r


@functools.lru_cache(maxsize=None)
def _layer_steps(r):
    # (v, S) for each popcount layer k >= 2 and each v < r, where S lists
    # the masks of layer k that hold v, ascending.
    masks = np.arange(1 << r)
    popcount = np.zeros_like(masks)
    for v in range(r):
        popcount += (masks >> v) & 1
    steps = []
    for k in range(2, r + 1):
        layer = masks[popcount == k]
        for v in range(r):
            steps.append((v, layer[layer & (1 << v) != 0]))
    return steps


def _held_karp_per_layer_step(inst):
    """Reference: the mask-major table, one numpy step per popcount layer
    and end vertex, as held_karp ran before its vertex-major table."""
    D = inst.distance_matrix()
    r = inst.n - 1
    Dr, d0, full = D[1:, 1:], D[0, 1:], (1 << r) - 1
    dp = np.full((full + 1, r), np.inf)
    dp[1 << np.arange(r), np.arange(r)] = d0
    for v, S in _layer_steps(r):
        dp[S, v] = (dp[S ^ (1 << v)] + Dr[:, v]).min(axis=1)
    closing = dp[full] + d0
    v = int(closing.argmin())
    length = float(closing[v])
    path, s = [v + 1], full
    while s != 1 << v:
        s ^= 1 << v
        v = int((dp[s] + Dr[:, v]).argmin())
        path.append(v + 1)
    return length, Tour([0] + path[::-1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 13), st.booleans())
def test_held_karp_matches_the_per_layer_step_table_bit_exact(seed, n, grid):
    # Grid cases run under L1, where many tours tie.
    rng = np.random.default_rng(seed)
    pts = _grid_points(rng, n) if grid else rng.uniform(size=(n, 2))
    inst = Instance(pts, NormSpec(1.0 if grid else (1.0, 2.0, 3.0)[seed % 3]))
    res = held_karp(inst)
    length, tour = _held_karp_per_layer_step(inst)
    assert (res.length.hex(), res.tour) == (length.hex(), tour)


@pytest.mark.parametrize("block", [1, 7, 2**20])
@pytest.mark.parametrize("n", range(12, 16))
def test_held_karp_bits_do_not_depend_on_the_block_size(monkeypatch, n, block):
    # 1 and 7 split layers inside rows and leave partial last blocks; 2**20
    # takes each layer in one gather.
    rng = np.random.default_rng(n)
    cases = [Instance(rng.uniform(size=(n, 2)), NormSpec(2.0)), Instance(_grid_points(rng, n), NormSpec(1.0))]
    want = [held_karp(inst) for inst in cases]
    monkeypatch.setattr(exact, "_BLOCK_COLUMNS", block)
    for inst, ref in zip(cases, want):
        res = held_karp(inst)
        assert (res.length.hex(), res.tour) == (ref.length.hex(), ref.tour)


def test_held_karp_peak_memory_is_the_table_plus_a_block():
    n = 16
    inst = Instance(np.random.default_rng(16).uniform(size=(n, 2)))
    held_karp(inst)  # builds the cached layers and the distance matrix
    tracemalloc.start()
    try:
        held_karp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (n - 1) * 2 ** (n - 1) * 8 + 2**20
