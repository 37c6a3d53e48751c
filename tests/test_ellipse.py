"""Curved-geometry constructions: closure residuals, symmetry, reference ratios."""

import decimal
import hashlib
import math
import random

import numpy as np
import pytest

from tspgap import ellipse
from tspgap.core import fractional_cost, tour_length
from tspgap.ellipse import (
    DEFAULT_EPS,
    EllipseConstructionError,
    InnerPlacementError,
    OuterPlacementError,
    _find_root,
    diff_inner,
    diff_outer,
    ellipse_construct,
)
from tspgap.exact import held_karp
from tspgap.families import IJK, fractional_xijk
from tspgap.lp import solve_subtour_lp


def test_flat_six_point_case_is_exact():
    # With no inner or outer chain the closure equations solve in closed
    # form: corner half-width 9/10, middle spread 3/20, ratio 43/42.
    res = ellipse_construct(0, 0, DEFAULT_EPS)
    assert res.params.b == pytest.approx(0.9, abs=1e-9)
    assert res.params.e == pytest.approx(0.0, abs=1e-12)
    assert res.params.f == pytest.approx(0.15, abs=1e-9)
    assert res.ratio == pytest.approx(43 / 42, abs=1e-12)
    assert res.instance.n == 6


@pytest.mark.parametrize(
    "i,j,want",
    [(0, 0, 1.0238), (1, 1, 1.060), (3, 6, 1.1319)],
)
def test_reference_ratios(i, j, want):
    res = ellipse_construct(i, j, DEFAULT_EPS)
    assert res.ratio == pytest.approx(want, abs=1e-3)
    assert res.instance.n == 2 * i + j + 6


def test_residuals_closed_within_eps():
    res = ellipse_construct(1, 2, DEFAULT_EPS)
    assert abs(res.inner_residual) <= DEFAULT_EPS
    assert abs(res.outer_residual) <= DEFAULT_EPS


def test_biaxial_symmetry_of_output():
    res = ellipse_construct(2, 3, DEFAULT_EPS)
    pts = res.instance.points
    # Mirror across each axis permutes the vertex set.
    for signs in ((-1.0, 1.0), (1.0, -1.0)):
        mirrored = pts * np.array(signs)
        for q in mirrored:
            assert np.min(np.abs(pts - q).max(axis=1)) <= 1e-9


def test_outer_vertices_lie_on_a_common_ellipse():
    res = ellipse_construct(3, 2, DEFAULT_EPS)
    inst = res.instance
    b, e = res.params.b, res.params.e
    # Recover the axes from the corner condition.
    big_a = (math.hypot(b + e, 1.0) + math.hypot(b - e, 1.0)) / 2.0
    big_b = math.sqrt(big_a**2 - e**2)
    for idx, label in enumerate(inst.labels):
        if label.startswith("Z"):
            x, y = inst.points[idx]
            assert x**2 / big_a**2 + y**2 / big_b**2 == pytest.approx(1.0, abs=1e-7)


def test_exact_solvers_confirm_the_shortcut(subtests=None):
    # Held-Karp agrees with the construction's tour length and the subtour
    # LP with the fractional vector's cost.
    for i, j in [(0, 1), (1, 0), (1, 1)]:
        res = ellipse_construct(i, j, DEFAULT_EPS)
        inst = res.instance
        x = fractional_xijk(IJK(i, j, i))
        lp = solve_subtour_lp(inst)
        frac = fractional_cost(inst, x)
        assert lp.cost == pytest.approx(frac, abs=1e-6)
        opt = held_karp(inst)
        assert opt.length / lp.cost == pytest.approx(res.ratio, abs=1e-9)


def test_ratio_ladder_is_nondecreasing():
    # Best construction per size over the tested ladder.
    best = {}
    for n in (6, 9, 12, 18):
        candidates = []
        for i in range((n - 6) // 2 + 1):
            j = n - 6 - 2 * i
            try:
                candidates.append(ellipse_construct(i, j, DEFAULT_EPS).ratio)
            except EllipseConstructionError:
                continue
        assert candidates, n
        best[n] = max(candidates)
    ns = sorted(best)
    for a, b in zip(ns, ns[1:]):
        assert best[b] >= best[a] - 1e-12


def test_diff_functions_vanish_at_flat_solution():
    # Hand-checkable closure at i=0, j=0, b=9/10, f=3/20.
    ys = (-0.15, 0.15)
    assert diff_inner(0, ys, 0.9) == pytest.approx(0.0, abs=1e-12)
    corners = ((-0.9, 1.0), (0.9, 1.0))
    assert diff_outer(0, corners, 0.15, 0.9) == pytest.approx(0.0, abs=1e-12)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        ellipse_construct(-1, 0, DEFAULT_EPS)
    with pytest.raises(ValueError):
        ellipse_construct(0, 0, 0.0)


# float.hex of (ratio, b, e, f, inner residual, outer residual) for every
# row with n = 2i + j + 6 <= 12 at the default eps, frozen from the
# scan-bracket-bisect construction.
_GOLDEN = {
    (0, 0): (
        "0x1.0618618618619p+0", "0x1.cccccccccccccp-1", "0x0.0p+0",
        "0x1.3333333333330p-3", "0x0.0p+0", "0x0.0p+0",
    ),
    (0, 1): (
        "0x1.08d1d93457b93p+0", "0x1.b749e85537cdap-1", "0x0.0p+0",
        "0x1.c24412513b122p-3", "0x1.0000000000000p-52", "0x0.0p+0",
    ),
    (0, 2): (
        "0x1.0a66cf9f129f1p+0", "0x1.ab12b7c8a6d16p-1", "0x0.0p+0",
        "0x1.0c5ef2fb783b0p-2", "0x0.0p+0", "0x0.0p+0",
    ),
    (1, 0): (
        "0x1.0a918eb35f8f1p+0", "0x1.8a66666648d56p+0", "0x1.ebbcf0a5f40f4p-4",
        "0x1.440b0c788432ap-2", "0x1.8000000000000p-50", "0x0.0p+0",
    ),
    (0, 3): (
        "0x1.0b719d9de7e1ap+0", "0x1.a31b46584eb3ep-1", "0x0.0p+0",
        "0x1.29cfc708978e6p-2", "0x1.0000000000000p-50", "0x0.0p+0",
    ),
    (1, 1): (
        "0x1.0f4c15deebdccp+0", "0x1.6e22222204911p+0", "0x1.a4177900eaa36p-1",
        "0x1.c23db2255e21ep-2", "0x0.0p+0", "0x0.0p+0",
    ),
    (0, 4): (
        "0x1.0c2f41a05e3afp+0", "0x1.9d79258983daep-1", "0x0.0p+0",
        "0x1.3f4ddd7110b6ep-2", "0x1.2000000000000p-49", "0x1.0000000000000p-51",
    ),
    (1, 2): (
        "0x1.1233eb6b39c06p+0", "0x1.6e22222204911p+0", "0x1.076dffd8e1f8bp-2",
        "0x1.130d00a2e5dfcp-1", "0x1.4000000000000p-50", "0x0.0p+0",
    ),
    (2, 0): (
        "0x1.0d0da387eb765p+0", "0x1.0bddddddcf155p+1", "0x1.63baf8647a300p-1",
        "0x1.e663c91cf82b4p-2", "0x1.0000000000000p-51", "0x1.8000000000000p-50",
    ),
    (0, 5): (
        "0x1.0cbd19ba4c170p+0", "0x1.99456f6c96b6cp-1", "0x0.0p+0",
        "0x1.4fbc4eb6a7b84p-2", "0x1.0000000000000p-52", "0x1.0000000000000p-51",
    ),
    (1, 3): (
        "0x1.139724e32bb8cp+0", "0x1.51ddddddc04cdp+0", "0x1.4c95b012f9eccp+0",
        "0x1.1722cbd525546p-1", "0x1.0000000000000p-51", "0x0.0p+0",
    ),
    (2, 1): (
        "0x1.132fb0928a6b4p+0", "0x1.fb77777759e67p+0", "0x1.bb51cb69b73fcp-1",
        "0x1.594905949572cp-1", "0x1.0000000000000p-50", "0x1.0000000000000p-52",
    ),
    (0, 6): (
        "0x1.0d2b2a7dae56bp+0", "0x1.9603ecd226df2p-1", "0x0.0p+0",
        "0x1.5cb83b8aecf66p-2", "0x1.c000000000000p-50", "0x0.0p+0",
    ),
    (1, 4): (
        "0x1.15010d95eb79dp+0", "0x1.51ddddddc04cdp+0", "0x1.2e68989de5a62p+0",
        "0x1.2e96e0fb76b78p-1", "0x1.c000000000000p-50", "0x0.0p+0",
    ),
    (2, 2): (
        "0x1.16e78e10b8b95p+0", "0x1.fb77777759e67p+0", "0x1.4ebad4854e92ep-1",
        "0x1.a380004bc8a94p-1", "0x1.0000000000000p-52", "0x1.c000000000000p-50",
    ),
    (3, 0): (
        "0x1.0e9f9daf871d9p+0", "0x1.5288888879c00p+1", "0x1.b1070f6324c7cp-1",
        "0x1.485aae6207aa9p-1", "0x0.0p+0", "0x1.8000000000000p-50",
    ),
}

# At eps = 1e-15 the two smallest flat rows close to the same bits.  The
# rows with an outer chain have tie residuals at roundoff there, so golden
# section meets an infeasible b and the best coarse sample stands.
_GOLDEN_TIGHT = {
    (0, 0): _GOLDEN[(0, 0)],
    (0, 1): _GOLDEN[(0, 1)],
    (1, 0): (
        "0x1.0a48759172133p+0", "0x1.6e22222222222p+0", "0x1.4ed032a2632e5p+0",
        "0x1.24f86d1916fc2p-2", "0x1.0000000000000p-51", "0x0.0p+0",
    ),
    (1, 1): (
        "0x1.0f4c15deec449p+0", "0x1.6e22222222222p+0", "0x1.a41778fea361bp-1",
        "0x1.c23db2258e7fap-2", "0x1.0000000000000p-51", "0x0.0p+0",
    ),
}


# The first rows whose outer chain holds two or more ties, frozen from the
# same construction as _GOLDEN.
_GOLDEN_CHAINS = {
    (4, 0): (
        "0x1.0fb8b75cc9a92p+0", "0x1.a7555555468ccp+1", "0x1.2c7791b34da16p-1",
        "0x1.b1b1118bb6bcap-1", "0x1.0000000000000p-50", "0x1.c000000000000p-50",
    ),
    (5, 0): (
        "0x1.107f18fefc589p+0", "0x1.fc22222213599p+1", "0x1.4c751e2e9a68ep-2",
        "0x1.0e944aaa48278p+0", "0x1.0000000000000p-49", "0x1.4000000000000p-50",
    ),
    (4, 1): (
        "0x1.17829462c2160p+0", "0x1.a7555555468ccp+1", "0x1.0abf9354e2c7ap-2",
        "0x1.47c25915a0d1ep+0", "0x1.0000000000000p-50", "0x1.0000000000000p-52",
    ),
}


# Rows whose inner chain holds three or more ties: _hexes, then the sha256 of
# the point array's float64 bytes, frozen from the same construction as
# _GOLDEN.
_GOLDEN_INNER_CHAINS = {
    (0, 7): (
        ("0x1.0d82fb3c24768p+0", "0x1.936b61764c964p-1", "0x0.0p+0",
         "0x1.673d169b7c248p-2", "0x1.8000000000000p-51", "0x0.0p+0"),
        "3baa6d88e59b24407a9f6034a3a9175d34e75653ba2c4eaeb5336d104606ab96",
    ),
    (0, 8): (
        ("0x1.0dca973c168bap+0", "0x1.914da02e4972cp-1", "0x0.0p+0",
         "0x1.6fedbef7be2a3p-2", "0x1.0000000000000p-52", "0x0.0p+0"),
        "412af01e8e02008a1501e904e03f75fd6d9d48f981910de5ced204cc38bcbe9c",
    ),
    (0, 10): (
        ("0x1.0e3811d40c710p+0", "0x1.8e1156925b8b6p-1", "0x0.0p+0",
         "0x1.7d6c6efa4893ap-2", "0x1.0000000000000p-50", "0x0.0p+0"),
        "fec23e741d3069c6d4b25a405e8e3c36af808bb48ebadc275bb76faa19945760",
    ),
    (1, 7): (
        ("0x1.178569eb59fdep+0", "0x1.51ddddddc04cdp+0", "0x1.e4a679ade766cp-1",
         "0x1.5adf63e66ee48p-1", "0x1.4000000000000p-50", "0x0.0p+0"),
        "0931bc14d6af53ab7d057630fd7b533cdb495be785638af5669340504f9c7ce8",
    ),
}


# Rows whose outer chain holds a tie, at the n of certify's set-up build
# (3, 2) and with two outer ties (4, 4): _hexes, then the sha256 of the
# point array's float64 bytes, frozen from the same construction as _GOLDEN.
_GOLDEN_OUTER_CHAINS = {
    (3, 2): (
        ("0x1.1a0fe3a885235p+0", "0x1.5288888879c00p+1", "0x1.ca9c36d456a7cp-3",
         "0x1.2d4418ca8a1dcp+0", "0x1.4000000000000p-50", "0x1.0000000000000p-52"),
        "40352372d0ebaa49499016aeab86c65fb30f6776fef5790054af0f4efc180dd9",
    ),
    (4, 4): (
        ("0x1.21c7319f7e500p+0", "0x1.a35b293b730a9p+1", "0x1.90b1191d7a33ep-1",
         "0x1.d69b88509afacp+0", "0x1.8000000000000p-51", "0x1.1000000000000p-48"),
        "5c586d17c770c9ba009c7f486d4b58e5030ead7203b037fe42f7f9763fdc9d2d",
    ),
}


def _hexes(res):
    p = res.params
    return tuple(v.hex() for v in (res.ratio, p.b, p.e, p.f, res.inner_residual, res.outer_residual))


@pytest.mark.parametrize("ij", sorted(_GOLDEN))
def test_constructions_are_bit_exact(ij):
    assert _hexes(ellipse_construct(*ij)) == _GOLDEN[ij]


@pytest.mark.parametrize("ij", sorted(_GOLDEN_TIGHT))
def test_tight_eps_constructions_are_bit_exact(ij):
    assert _hexes(ellipse_construct(*ij, 1e-15)) == _GOLDEN_TIGHT[ij]


@pytest.mark.parametrize("ij", sorted(_GOLDEN_CHAINS))
def test_multi_tie_outer_chains_are_bit_exact(ij):
    assert _hexes(ellipse_construct(*ij)) == _GOLDEN_CHAINS[ij]


@pytest.mark.parametrize("ij", sorted(_GOLDEN_INNER_CHAINS))
def test_long_inner_chains_are_bit_exact(ij):
    res = ellipse_construct(*ij)
    points = np.ascontiguousarray(res.instance.points, dtype="<f8").tobytes()
    assert (_hexes(res), hashlib.sha256(points).hexdigest()) == _GOLDEN_INNER_CHAINS[ij]


@pytest.mark.parametrize("ij", sorted(_GOLDEN_OUTER_CHAINS))
def test_outer_tie_chains_are_bit_exact(ij):
    res = ellipse_construct(*ij)
    points = np.ascontiguousarray(res.instance.points, dtype="<f8").tobytes()
    assert (_hexes(res), hashlib.sha256(points).hexdigest()) == _GOLDEN_OUTER_CHAINS[ij]


# Three infeasible coarse b of row (3, 2), by scan index: the outcomes of
# the 72 scan samples over e (None for a raise, else whether the residual is
# positive) and the exact message outer_vertices(3, b, f) raises.
_INFEASIBLE_OUTER = [
    (0, {None}, "residual does not change sign on [0.0, 4.420833333333333]"),  # b ~ 0.105
    (12, {None, False}, "residual does not change sign on [0.0, 9.720833333333333]"),  # b ~ 1.43
    (36, {True}, "residual does not change sign on [0.0, 20.320833333333333]"),  # b ~ 4.08
]


@pytest.mark.parametrize("s,kinds,message", _INFEASIBLE_OUTER, ids=["all-raise", "all-negative", "all-positive"])
def test_infeasible_outer_scans_keep_their_messages(s, kinds, message):
    lo, hi = ellipse._B_RANGE
    b = lo + (hi - lo) * (s + 0.5) / ellipse._COARSE_SAMPLES
    f = ellipse.inner_vertices(2, b)[-1]
    seen = set()
    for k in range(ellipse._COARSE_SAMPLES):
        try:
            seen.add(ellipse._outer_attempt(3, b, f, 4.0 * (b + 1.0) * (k + 0.5) / ellipse._COARSE_SAMPLES)[0] > 0)
        except ellipse._BracketError:
            seen.add(None)
    assert seen == kinds
    with pytest.raises(OuterPlacementError) as info:
        ellipse.outer_vertices(3, b, f)
    assert str(info.value) == message


def _count_calls(monkeypatch, names, fn, *args):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(ellipse, name)

        def spy(*a, _real=real, _name=name):
            calls[_name] += 1
            return _real(*a)

        monkeypatch.setattr(ellipse, name, spy)
    fn(*args)
    return calls


# _inner_attempt, _outer_attempt, _outer_tie and inner_vertices calls per
# construction of the curved rows (i <= 1, no outer tie) and of certify's
# row (3, 2), frozen from the construction whose inner scans, i = 1 outer
# scans and flat scans over b settle points by their closures'
# monotonicity, and whose i = 1 scan over b skips the b that
# _outer_excluded rules out (its two probes are among the outer attempts):
# work counts that do not move with machine load.  Computing every inner
# point, the six curved rows made 36,312 inner attempts, and row (3, 2)
# 9,498; computing every outer and flat point, they made 12,377 inner and
# 14,824 outer attempts; without the exclusion rows (1, 0) and (1, 1) made
# 2,596 and 2,613 inner and 2,011 and 1,793 outer attempts, in 118
# inner_vertices calls each.
_CURVED_WORK = {
    (0, 0): (580, 0, 0, 27),
    (0, 1): (460, 0, 0, 20),
    (0, 2): (665, 0, 0, 28),
    (1, 0): (1165, 1693, 0, 52),
    (0, 3): (726, 0, 0, 29),
    (1, 1): (1168, 1475, 0, 52),
    (3, 2): (2650, 2856, 2856, 118),
}


@pytest.mark.parametrize("ij", sorted(_CURVED_WORK))
def test_curved_rows_keep_their_work_counts(monkeypatch, ij):
    names = ("_inner_attempt", "_outer_attempt", "_outer_tie", "inner_vertices")
    calls = _count_calls(monkeypatch, names, ellipse_construct, *ij)
    assert tuple(calls[name] for name in names) == _CURVED_WORK[ij]


def test_settled_scan_samples_cut_the_full_outer_ties(monkeypatch):
    # Row (3, 2) made 7,419 full _outer_tie calls when every scan sample
    # converged its tie; a settled sample makes none.
    calls = _count_calls(monkeypatch, ("_outer_tie",), ellipse_construct, 3, 2)
    assert calls["_outer_tie"] <= 3000


def test_fine_scan_retry_is_bit_exact():
    # At eps = 1e-16 no b on the 72-sample grid is feasible for (1, 0); the
    # 16x finer grid finds one.
    assert _hexes(ellipse_construct(1, 0, 1e-16)) == (
        "0x1.0a8c190e62decp+0", "0x1.85fbbbbbbbbbcp+0", "0x1.0f3e67afe8b6cp-1",
        "0x1.3f26b3f62d71dp-2", "0x0.0p+0", "0x0.0p+0",
    )


def test_tight_eps_search_stays_cheap(monkeypatch):
    # At eps = 1e-15 about half the b near the maximum are infeasible, so
    # golden section breaks off; the b-search must not rescan densely.
    calls = []
    real = ellipse._evaluate
    monkeypatch.setattr(ellipse, "_evaluate", lambda *a: calls.append(a[2]) or real(*a))
    ellipse_construct(2, 2, 1e-15)
    assert len(calls) <= 200


def test_tight_eps_flat_failure_keeps_its_class():
    with pytest.raises(InnerPlacementError):
        ellipse_construct(0, 2, 1e-15)


def test_find_root_rejects_a_sign_change_without_a_root():
    def step(x):
        return -1.0 if x < 0.3 else 1.0

    with pytest.raises(OuterPlacementError, match="above eps"):
        _find_root(step, 0.0, 1.0, 8, 1e-9, OuterPlacementError)
    with pytest.raises(OuterPlacementError, match="does not change sign"):
        _find_root(lambda x: 1.0, 0.0, 1.0, 8, 1e-9, OuterPlacementError)


def test_find_root_skips_failed_samples_and_propagates_bracket_errors():
    def gappy(x):
        if x < 0.25:
            raise InnerPlacementError("left of the window")
        return x - 0.5

    assert _find_root(gappy, 0.0, 1.0, 8, 1e-12, OuterPlacementError) == pytest.approx(0.5, abs=1e-12)

    def hole(x):
        if x not in (0.25, 0.75):
            raise InnerPlacementError("inside the bracket")
        return x - 0.5

    with pytest.raises(InnerPlacementError):
        _find_root(hole, 0.0, 1.0, 2, 1e-9, OuterPlacementError)


@pytest.mark.parametrize("ij", [(0, 1), (1, 1)])
def test_shortcut_parts_are_built_once_per_construction(monkeypatch, ij):
    # x_ijk and the anchor pseudo-tour depend on (i, j) alone, not on b.
    calls = []
    real = ellipse.pseudo_tour
    monkeypatch.setattr(ellipse, "pseudo_tour", lambda p, *rest: calls.append(p) or real(p, *rest))
    ellipse_construct(*ij)
    assert len(calls) == 1


# -- the chain ties against a scalar bisection over a closure ---------------


def _closure_bisect(fn, lo, hi):
    """Bisection of fn on [lo, hi] by calls to fn, the form the chain ties
    are checked against: same endpoint rules, midpoints and 100-step cap."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ellipse._BracketError
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _closure_inner_tie(c, y_h, b):
    return _closure_bisect(lambda t: c + (t - y_h) - math.hypot(b - t, 1.0), y_h, b)


def _closure_outer_tie(c, zx, zy, f, A, B, lo, hi):
    def tie(theta):
        px, py = A * math.cos(theta), B * math.sin(theta)
        return c + math.hypot(px - zx, py - zy) - math.hypot(px - f, py)

    return _closure_bisect(tie, lo, hi)


def _outcome(tie, *args):
    try:
        return tie(*args).hex()
    except ellipse._BracketError:
        return "bracket"


def _inner_brackets(rng, count):
    for _ in range(count):
        b = rng.uniform(0.05, 8.0)
        f, y_h = rng.uniform(0.0, b), rng.uniform(-b, b)
        c = math.hypot(b + f, 1.0) + 2.0 - math.hypot(b - f, 1.0) - math.hypot(b + y_h, 1.0)
        if rng.random() < 0.3:
            c += rng.uniform(-4.0, 4.0)  # often a bracket of one sign
        yield c, y_h, b


def _outer_brackets(rng, count):
    for _ in range(count):
        b = rng.uniform(0.05, 8.0)
        A, B = ellipse._ellipse_axes(b, rng.uniform(0.0, 4.0 * (b + 1.0)))
        lo = math.atan2(1.0 / B, b / A)
        hi = rng.uniform(lo, math.pi - lo)
        zx, zy = A * math.cos(hi), B * math.sin(hi)
        f = rng.uniform(0.0, b)
        c = math.hypot(b - f, 1.0) + math.hypot(b + f, 1.0) - 2.0 - math.hypot(zx + f, zy)
        if rng.random() < 0.3:
            c += rng.uniform(-4.0, 4.0)
        yield c, zx, zy, f, A, B, lo, hi


def _zero_end_brackets():
    """(tie, bracket, end) for brackets whose residual is exactly 0.0 at that end."""
    A, B = ellipse._ellipse_axes(2.0, 1.0)
    lo = math.atan2(1.0 / B, 2.0 / A)
    zx, zy = A * math.cos(lo), B * math.sin(lo)
    return [
        (ellipse._inner_tie, (math.hypot(1.5 - 0.25, 1.0), 0.25, 1.5), 0.25),  # at y_h
        (ellipse._inner_tie, (-0.25, 0.25, 1.5), 1.5),  # at b: -0.25 + 1.25 - 1.0
        (ellipse._outer_tie, (math.hypot(zx - 0.5, zy), zx, zy, 0.5, A, B, lo, 2.0), lo),  # at lo
    ]


@pytest.mark.parametrize(
    "tie,oracle,brackets",
    [
        (ellipse._inner_tie, _closure_inner_tie, _inner_brackets),
        (ellipse._outer_tie, _closure_outer_tie, _outer_brackets),
    ],
    ids=["inner", "outer"],
)
def test_inline_ties_match_the_closure_bisection(tie, oracle, brackets):
    outcomes = set()
    zero_ends = [args for t, args, _ in _zero_end_brackets() if t is tie]
    for args in [*brackets(random.Random(19), 2500), *zero_ends]:
        got = _outcome(tie, *args)
        assert got == _outcome(oracle, *args), args
        outcomes.add(got == "bracket")
    assert outcomes == {False, True}  # both roots and same-sign brackets were drawn


def test_tie_endpoints_with_zero_residual_are_roots():
    for tie, args, end in _zero_end_brackets():
        assert tie(*args) == end


def _ulps(x, k):
    """x moved by k ulps (toward +inf for k > 0)."""
    toward = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


def _adversarial_inner_brackets(rng, count):
    """Inner-tie brackets where the sign of the residual near the
    closed-form root is hardest to call, in equal shares: a root at a
    random t with c moved by 0 to 8 ulps either way (b from 1e-6 to 1e3),
    y_h within a few ulps of b, K = c + b - y_h within ulps of 1 (root at
    b), large |c| with a root far from 0, and ends of one sign."""
    for n in range(count):
        kind = n % 5
        b = 10.0 ** rng.uniform(-6.0, 3.0)
        y_h = b - rng.uniform(0.0, 2.0 * b)
        if kind == 1:
            y_h = _ulps(b, -rng.randint(1, 6))
        elif kind == 3:
            y_h = -(10.0 ** rng.uniform(3.0, 15.0))
        t = rng.uniform(y_h, b)
        c = math.hypot(b - t, 1.0) - (t - y_h)
        if kind == 2:
            c = 1.0 - (b - y_h)
        elif kind == 4:
            c += rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 16.0)
        yield _ulps(c, rng.randint(-8, 8)), y_h, b


def test_inner_tie_window_matches_the_closure_bisection_on_adversarial_brackets():
    outcomes = set()
    for args in _adversarial_inner_brackets(random.Random(22), 25000):
        got = _outcome(ellipse._inner_tie, *args)
        assert got == _outcome(_closure_inner_tie, *args), [x.hex() for x in args]
        outcomes.add(got == "bracket")
    assert outcomes == {False, True}


def _count_hypot(monkeypatch, tie, *args):
    calls = []
    real = math.hypot
    monkeypatch.setattr(math, "hypot", lambda *a: calls.append(a) or real(*a))
    root = tie(*args)
    monkeypatch.setattr(math, "hypot", real)
    return root, len(calls)


def test_inner_tie_evaluates_only_inside_its_window(monkeypatch):
    # The one inner tie of row (0, 2) at its golden b and f: both ends plus
    # the midpoints inside the window, where a plain bisection evaluates 54.
    b, f = float.fromhex(_GOLDEN[(0, 2)][1]), float.fromhex(_GOLDEN[(0, 2)][3])
    args = (math.hypot(b + f, 1.0) + 2.0 - math.hypot(b - f, 1.0) - math.hypot(b - f, 1.0), -f, b)
    root, evals = _count_hypot(monkeypatch, ellipse._inner_tie, *args)
    want, plain = _count_hypot(monkeypatch, _closure_inner_tie, *args)
    assert (evals, plain) == (12, 54) and root == want
    # An unbounded window, the one taken without a closed form, evaluates
    # every midpoint.
    monkeypatch.setattr(ellipse, "_INNER_WINDOW", math.inf)
    assert _count_hypot(monkeypatch, ellipse._inner_tie, *args) == (want, plain)


def _tie_slope(zx, zy, f, A, B, theta):
    px, py = A * math.cos(theta), B * math.sin(theta)
    tx, ty = -A * math.sin(theta), B * math.cos(theta)
    return (tx * (px - zx) + ty * (py - zy)) / math.hypot(px - zx, py - zy) - (tx * (px - f) + ty * py) / math.hypot(
        px - f, py
    )


def _flattest_point(zx, zy, f, A, B, lo, hi):
    """The angle of least |slope| among 63 inside [lo, hi].  On the upper arc
    the slope never vanishes (the chord from Z to p stays above F)."""
    grid = [lo + (hi - lo) * k / 64 for k in range(1, 64)]
    return min(grid, key=lambda t: abs(_tie_slope(zx, zy, f, A, B, t)))


def _adversarial_outer_brackets(rng, count):
    """Outer-tie brackets where the windowed signs are hardest to call, in
    equal shares, with b from 1e-3 to 1e3: a root at a random angle, a root
    within a few ulps of either end, a root next to the previous vertex
    (small r_Z), and a near-tangent slope (the root where the slope is
    least); c is then moved by 0 to 8 ulps."""
    for n in range(count):
        kind = n % 5
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        A, B = ellipse._ellipse_axes(b, rng.uniform(0.0, 4.0 * (b + 1.0)))
        lo = math.atan2(1.0 / B, b / A)
        hi = rng.uniform(lo, math.pi - lo)
        zx, zy = A * math.cos(hi), B * math.sin(hi)
        f = rng.uniform(0.0, b)
        if kind == 0:
            t = rng.uniform(lo, hi)
        elif kind == 1:
            t = _ulps(lo, rng.randint(0, 6))
        elif kind == 2:
            t = _ulps(hi, -rng.randint(0, 6))
        elif kind == 3:
            t = hi - (hi - lo) * 10.0 ** rng.uniform(-15.0, -2.0)
        else:
            t = _flattest_point(zx, zy, f, A, B, lo, hi)
        px, py = A * math.cos(t), B * math.sin(t)
        c = math.hypot(px - f, py) - math.hypot(px - zx, py - zy)
        yield _ulps(c, rng.randint(-8, 8)), zx, zy, f, A, B, lo, hi


def test_outer_tie_window_matches_the_closure_bisection_on_adversarial_brackets():
    outcomes = set()
    for args in _adversarial_outer_brackets(random.Random(28), 25000):
        got = _outcome(ellipse._outer_tie, *args)
        assert got == _outcome(_closure_outer_tie, *args), [x.hex() for x in args]
        outcomes.add(got == "bracket")
    assert outcomes == {False, True}


def test_outer_tie_evaluates_few_residuals(monkeypatch):
    # The one outer tie of row (3, 2) at its golden b, e and f: two hypot
    # calls per residual, where a plain bisection computes 53 residuals.
    b, e, f = (float.fromhex(x) for x in _GOLDEN_OUTER_CHAINS[(3, 2)][0][1:4])
    A, B = ellipse._ellipse_axes(b, e)
    lo = math.atan2(1.0 / B, b / A)
    c = math.hypot(b - f, 1.0) + math.hypot(b + f, 1.0) - 2.0 - math.hypot(f - b, 1.0)
    args = (c, -b, 1.0, f, A, B, lo, math.pi - lo)
    root, evals = _count_hypot(monkeypatch, ellipse._outer_tie, *args)
    want, plain = _count_hypot(monkeypatch, _closure_outer_tie, *args)
    assert (evals, plain) == (36, 106) and root == want
    # Unbounded error bounds leave no window: every midpoint is computed,
    # after the four Newton evaluations that found no proven slope.
    monkeypatch.setattr(ellipse, "_TIE_ERR", math.inf)
    assert _count_hypot(monkeypatch, ellipse._outer_tie, *args) == (want, plain + 8)


# -- each point evaluated once ----------------------------------------------


def _gappy(x):
    if x < 0.25:
        raise InnerPlacementError("left of the window")
    return x - 0.5


@pytest.mark.parametrize(
    "fn,lo,hi,samples,root",
    [
        (lambda x: x * x - 2.0, 0.0, 2.0, 8, None),  # halves down to adjacent floats
        (lambda x: x - 0.5, 0.0, 1.0, 8, 0.5),  # the first midpoint is the root
        (_gappy, 0.0, 1.0, 8, 0.5),  # failed samples skipped
        (lambda x: x - 1e-300, -1.0, 1.0, 2, None),  # 100 halvings, then one more point
    ],
    ids=["smooth", "exact-midpoint", "skipped-samples", "step-cap"],
)
def test_find_root_evaluates_each_point_once(fn, lo, hi, samples, root):
    calls = []

    def spy(x):
        calls.append(x)
        return fn(x)

    got = _find_root(spy, lo, hi, samples, 1e-9, OuterPlacementError)
    assert len(calls) == len(set(calls))
    assert got in calls
    if root is not None:
        assert got == root
    assert abs(fn(got)) <= 1e-9


def test_bisect_returns_the_residual_it_holds():
    calls = []

    def fn(x):
        calls.append(x)
        return x * x - 2.0

    root, resid = ellipse._bisect(fn, 1.0, 2.0, -1.0, 2.0)
    assert resid == fn(root) and 1.0 not in calls and 2.0 not in calls
    assert fn(math.nextafter(root, 0.0)) < 0.0 < fn(math.nextafter(root, 2.0))  # adjacent floats
    assert ellipse._bisect(fn, 1.0, 2.0, 0.0, 2.0) == (1.0, 0.0)
    with pytest.raises(ellipse._BracketError):
        ellipse._bisect(fn, 1.0, 2.0, 1.0, 2.0)


def test_inner_vertices_attempt_each_f_once(monkeypatch):
    calls = []
    real = ellipse._inner_attempt
    monkeypatch.setattr(ellipse, "_inner_attempt", lambda j, b, f: calls.append((j, b, f)) or real(j, b, f))
    b = float.fromhex("0x1.51ddddddc04cdp+0")  # row (1, 4) of _GOLDEN
    ys = ellipse.inner_vertices(4, b)
    assert len(calls) == len(set(calls)) and (4, b, ys[-1]) in calls
    assert ys == real(4, b, ys[-1])[1]
    # Whole builds, whose settled scans and bisections probe points that
    # later midpoints can repeat: each (b, f) is still attempted once.
    for ij in [(0, 2), (1, 1), (3, 2)]:
        calls.clear()
        ellipse_construct(*ij)
        assert len(calls) == len(set(calls)) > 0


def test_outer_vertices_attempt_each_e_once(monkeypatch):
    calls = []
    real = ellipse._outer_attempt
    monkeypatch.setattr(ellipse, "_outer_attempt", lambda i, b, f, e: calls.append(e) or real(i, b, f, e))
    b, f = float.fromhex("0x1.0bddddddcf155p+1"), float.fromhex("0x1.e663c91cf82b4p-2")  # row (2, 0)
    e, zline = ellipse.outer_vertices(2, b, f)
    assert len(calls) == len(set(calls)) and e in calls
    assert e.hex() == _GOLDEN[(2, 0)][2]
    assert zline == real(2, b, f, e)[1]


# -- settled scan samples ----------------------------------------------------


def _attempt_outcome(i, b, f, e):
    """(raised, residual) of the exact outer attempt."""
    try:
        return False, ellipse._outer_attempt(i, b, f, e)[0]
    except ellipse._BracketError:
        return True, None


def _settle_outcome(i, b, f, e):
    try:
        return False, ellipse._outer_settle(i, b, f, e)
    except ellipse._BracketError:
        return True, None


def _check_settled(i, b, f, e, seen):
    raised, sign = _settle_outcome(i, b, f, e)
    if raised:
        seen.add("raise")
        assert _attempt_outcome(i, b, f, e) == (True, None), (i, b.hex(), f.hex(), e.hex())
    elif sign is not None:
        seen.add("sign")
        assert sign in (1.0, -1.0)
        exact_raised, resid = _attempt_outcome(i, b, f, e)
        assert not exact_raised and resid != 0.0 and (resid > 0) == (sign > 0), (i, b.hex(), f.hex(), e.hex())
    else:
        seen.add("unsure")


def test_settler_agrees_with_the_exact_attempt_on_random_chains():
    rng = random.Random(28)
    seen = set()
    for _ in range(3000):
        i = rng.randint(2, 9)
        b = 10.0 ** rng.uniform(-1.3, 0.9)
        f = rng.uniform(0.0, b)
        e = rng.uniform(0.0, 4.0 * (b + 1.0))
        _check_settled(i, b, f, e, seen)
    assert seen == {"raise", "sign", "unsure"}


@pytest.mark.parametrize("ij", [(2, 0), (3, 2), (4, 4), (5, 0)])
def test_settler_agrees_with_the_exact_attempt_next_to_a_root(ij):
    # Focal abscissas within ulps to six scan cells of the root, where the
    # closure residual is smallest and a settled sign is hardest to prove.
    res = ellipse_construct(*ij)
    b, e_star, f = res.params.b, res.params.e, res.params.f
    cell = 4.0 * (b + 1.0) / ellipse._COARSE_SAMPLES
    rng = random.Random(ij[0] * 100 + ij[1])
    seen = set()
    for k in range(600):
        if k % 3 == 0:
            e = _ulps(e_star, rng.randint(-64, 64))
        elif k % 3 == 1:
            e = e_star + rng.choice((-1.0, 1.0)) * cell * 10.0 ** rng.uniform(-12.0, 0.0)
        else:
            e = e_star + rng.uniform(-6.0, 6.0) * cell
        if e >= 0.0:
            _check_settled(ij[0], b, f, e, seen)
    assert {"sign", "unsure"} <= seen


def _outer_find_root(i, b, f, settled):
    """outer_vertices' root search, with or without its settler: the root's
    hex, or the error's class and message."""
    tried = {}
    try:
        return _find_root(
            ellipse._memo(tried, lambda e: ellipse._outer_attempt(i, b, f, e)),
            0.0, 4.0 * (b + 1.0), ellipse._COARSE_SAMPLES, DEFAULT_EPS, OuterPlacementError,
            (lambda e: ellipse._outer_settle(i, b, f, e)) if settled else None,
        ).hex()
    except EllipseConstructionError as exc:
        return type(exc).__name__, str(exc)


def test_find_root_with_the_settler_keeps_roots_and_messages():
    lo, hi = ellipse._B_RANGE
    outcomes = set()
    for i in (2, 3, 4, 5):
        for s in range(0, ellipse._COARSE_SAMPLES, 3):
            b = lo + (hi - lo) * (s + 0.5) / ellipse._COARSE_SAMPLES
            f = ellipse.inner_vertices(2, b)[-1]
            got = _outer_find_root(i, b, f, True)
            assert got == _outer_find_root(i, b, f, False), (i, b.hex())
            outcomes.add(isinstance(got, str))
    assert outcomes == {False, True}


def test_find_root_with_a_settler_evaluates_only_the_bracket_and_its_midpoints():
    # A settler that knows every sign but the one near 0.3: fn sees the
    # unsure sample, the settled bracketing pair and the bisection midpoints,
    # each once, and the root and its residual are the ones without it.
    calls = []

    def fn(x):
        calls.append(x)
        return x * x - 0.5

    def settle(x):
        if abs(x - 0.3) < 0.05:
            return None
        if x < 0.2:
            raise ellipse._BracketError
        return 1.0 if x * x > 0.5 else -1.0

    root = _find_root(fn, 0.0, 1.0, 16, 1e-9, OuterPlacementError, settle)
    assert len(calls) == len(set(calls)) and root in calls
    scan = [x for x in calls if any(x == (s + 0.5) / 16 for s in range(16))]
    assert scan == [0.28125, 0.34375, 0.65625, 0.71875]
    calls.clear()
    assert _find_root(fn, 0.0, 1.0, 16, 1e-9, OuterPlacementError) == root
    # Without a sign change the message is the one without a settler.
    calls.clear()
    with pytest.raises(OuterPlacementError, match=r"^residual does not change sign on \[0.0, 1.0\]$"):
        _find_root(lambda x: fn(x) - 1.0, 0.0, 1.0, 16, 1e-9, OuterPlacementError, lambda x: -1.0 if x < 0.9 else None)
    assert calls == [0.90625, 0.96875]


# -- the settled inner closure ---------------------------------------------


def _root_outcome(fn, lo, hi, samples, eps, err):
    """_find_root's root as hex, or its error's class and message (which
    carry the bracket, or the root and its residual)."""
    try:
        return _find_root(fn, lo, hi, samples, eps, InnerPlacementError, err=err).hex()
    except EllipseConstructionError as exc:
        return type(exc).__name__, str(exc)


def _inner_closure(j, b):
    """inner_vertices' residual of f, each point's attempt built once."""
    return ellipse._memo({}, lambda f: ellipse._inner_attempt(j, b, f))


def _inner_range(b):
    """inner_vertices' scan range and its last sample, the right end of
    every point its scan and bisection evaluate."""
    lo, hi = b * 1e-9, b * (1 - 1e-9)
    n = ellipse._COARSE_SAMPLES
    return lo, hi, lo + (hi - lo) * (n - 0.5) / n


def _inner_root_cases(rng, count):
    """(j, b, lo, hi, samples, eps) for the inner root search in four equal
    shares: inner_vertices' own range, a random bracket around the root, a
    bracket within a few ulps of the root, and one just right of it.  b is
    log-uniform on [2^-10, 2^10] or uniform on the b-search range; eps is
    the default or the least float, so that most messages carry the root
    and its residual."""
    for n in range(count):
        j = rng.randrange(4)
        b = 2.0 ** rng.uniform(-10.0, 10.0) if n % 2 else rng.uniform(*ellipse._B_RANGE)
        lo, hi, last = _inner_range(b)
        eps = rng.choice((DEFAULT_EPS, 5e-324))
        kind = n // 2 % 4
        root = None
        if kind:
            try:
                root = _find_root(_inner_closure(j, b), lo, hi, 72, 1.0, InnerPlacementError, err=ellipse._inner_err(j, b))
            except InnerPlacementError:
                kind = 0
        if kind == 0:
            yield j, b, lo, hi, ellipse._COARSE_SAMPLES, eps
        elif kind == 1:
            yield j, b, rng.uniform(lo, root), rng.uniform(root, last), rng.randint(1, 12), eps
        elif kind == 2:
            yield j, b, _ulps(root, -rng.randint(0, 6)), min(_ulps(root, rng.randint(1, 6)), last), rng.randint(1, 4), eps
        else:
            yield j, b, _ulps(root, rng.randint(1, 4)), min(_ulps(root, rng.randint(5, 40)), last), rng.randint(1, 4), eps


def test_find_root_with_err_matches_the_plain_path_on_inner_closures():
    outcomes = set()
    for j, b, lo, hi, samples, eps in _inner_root_cases(random.Random(30), 3000):
        err = ellipse._inner_err(j, b)
        got = _root_outcome(_inner_closure(j, b), lo, hi, samples, eps, err)
        assert got == _root_outcome(_inner_closure(j, b), lo, hi, samples, eps, None), (j, b.hex(), lo.hex(), hi.hex())
        outcomes.add("root" if isinstance(got, str) else "above eps" if "above eps" in got[1] else got[1][:29])
    assert outcomes == {"root", "above eps", "residual does not change sign"}


def _noisy_increasing(rng):
    """(fn, err): fn is a strictly increasing F(x) = s (x - r) + k (x - r)^3
    plus up to 0.9 err of noise that changes with every float x, so that fn
    keeps _find_root's promise while its sign near r is a coin toss and the
    secant slope can misjudge the slope near r."""
    r, phase = rng.uniform(0.0, 1.0), rng.uniform(0.0, 6.0)
    s = 10.0 ** rng.uniform(-6.0, 1.0)
    k = rng.choice((0.0, 10.0 ** rng.uniform(-1.0, 2.0)))
    err = 10.0 ** rng.uniform(-12.0, -5.0)

    def fn(x):
        d = x - r
        return s * d + k * d * d * d + 0.9 * err * math.sin(x * 2.0**60 + phase)

    return fn, err


def test_find_root_with_err_matches_the_plain_path_on_noisy_functions():
    rng = random.Random(31)
    calls = [0, 0]
    for _ in range(3000):
        fn, err = _noisy_increasing(rng)
        samples, eps = rng.randint(1, 72), rng.choice((1.0, 5e-324))

        def counted(x, side):
            calls[side] += 1
            return fn(x)

        got = _root_outcome(lambda x: counted(x, 0), 0.0, 1.0, samples, eps, err)
        assert got == _root_outcome(lambda x: counted(x, 1), 0.0, 1.0, samples, eps, None)
    assert calls[0] < calls[1]  # the settled path computes fewer points


def _exact_closure(j, b, f):
    """The closure of the exact inner chain at the floats b and f, to 50
    digits, its tie solved through the closed form t* = b - (K - 1/K)/2
    with K = c + b - y_0 (see _inner_tie)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b, f = decimal.Decimal(b), decimal.Decimal(f)

        def hyp(x):
            return (x * x + 1).sqrt()

        y_h = -f
        if j // 2:
            c = hyp(b + f) + 2 - hyp(b - f) - hyp(b - f)
            K = c + b + f
            y_h = b - (K - 1 / K) / 2
        y_next = 0 if j % 2 else -y_h
        return hyp(b + f) + 2 + (y_next - y_h) - hyp(b + y_h) - hyp(b - y_next) - hyp(b - f)


def test_inner_closure_err_bounds_the_computed_closure():
    # inner_vertices' three claims, checked where its window is on: the
    # exact closure rises with f, the computed attempt does not raise up to
    # the last scan sample, and it is within err of the exact closure.
    rng = random.Random(32)
    worst = 0.0
    for n in range(2000):
        j = n % 4
        b = [2.0**-10, 2.0**10][n % 8 // 4] if n % 50 < 8 else 2.0 ** rng.uniform(-10.0, 10.0)
        lo, _, last = _inner_range(b)
        f1, f2 = sorted((lo if n % 7 == 0 else rng.uniform(lo, last), last if n % 5 == 0 else rng.uniform(lo, last)))
        err = decimal.Decimal(ellipse._inner_err(j, b))
        for f in (f1, f2):
            gap = abs(decimal.Decimal(ellipse._inner_attempt(j, b, f)[0]) - _exact_closure(j, b, f))
            assert gap <= err, (j, b.hex(), f.hex(), gap / err)
            worst = max(worst, gap / err)
        if f1 < f2:
            assert _exact_closure(j, b, f1) < _exact_closure(j, b, f2)
    assert worst > 1 / 64  # err is within a factor 64 of the float error seen


# -- the settled i = 1 outer closure and flat residual -----------------------


def _memo_outcome(attempt, lo, hi, samples, eps, error, err):
    """_find_root's root and its residual as hex, or its error's class and
    message, each point's attempt built once."""
    tried = {}
    try:
        root = _find_root(ellipse._memo(tried, attempt), lo, hi, samples, eps, error, err=err)
    except EllipseConstructionError as exc:
        return type(exc).__name__, str(exc)
    return root.hex(), tried[root][0].hex()


def _outer_closure(b, f):
    """outer_vertices' residual of e for i = 1, each point's attempt built once."""
    return ellipse._memo({}, lambda e: ellipse._outer_attempt(1, b, f, e))


def _outer_root_cases(rng, count):
    """(b, f, lo, hi, samples, eps) for the i = 1 outer root search in four
    equal shares, as _inner_root_cases: outer_vertices' own range, a random
    bracket around the root, a bracket within a few ulps of the root, and
    one just right of it.  b is 2^-10, 2^10, log-uniform between them or
    uniform on the b-search range; f is uniform on (0, b) or within a
    factor 10^-12..10^-1 of 0 or of b."""
    for n in range(count):
        b = (2.0**-10, 2.0**10, 2.0 ** rng.uniform(-10.0, 10.0), rng.uniform(*ellipse._B_RANGE))[n % 4]
        f = (rng.uniform(0.0, b), b * 10.0 ** rng.uniform(-12.0, -1.0), b * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0)))[n % 3]
        lo, hi = 0.0, 4.0 * (b + 1.0)
        eps = rng.choice((DEFAULT_EPS, 5e-324))
        kind = n // 4 % 4
        root = None
        if kind:
            try:
                root = _find_root(_outer_closure(b, f), lo, hi, 72, 1.0, OuterPlacementError, err=ellipse._outer_err(1, b))
            except OuterPlacementError:
                kind = 0
        if kind == 0:
            yield b, f, lo, hi, ellipse._COARSE_SAMPLES, eps
        elif kind == 1:
            yield b, f, rng.uniform(lo, root), rng.uniform(root, hi), rng.randint(1, 12), eps
        elif kind == 2:
            yield b, f, max(_ulps(root, -rng.randint(0, 6)), 0.0), _ulps(root, rng.randint(1, 6)), rng.randint(1, 4), eps
        else:
            yield b, f, _ulps(root, rng.randint(1, 4)), _ulps(root, rng.randint(5, 40)), rng.randint(1, 4), eps


def test_find_root_with_err_matches_the_plain_path_on_outer_closures():
    outcomes = set()
    for b, f, lo, hi, samples, eps in _outer_root_cases(random.Random(33), 3200):
        def attempt(e):
            return ellipse._outer_attempt(1, b, f, e)

        got = _memo_outcome(attempt, lo, hi, samples, eps, OuterPlacementError, ellipse._outer_err(1, b))
        assert got == _memo_outcome(attempt, lo, hi, samples, eps, OuterPlacementError, None), (b.hex(), f.hex(), lo.hex(), hi.hex())
        outcomes.add("root" if got[0] != "OuterPlacementError" else "above eps" if "above eps" in got[1] else got[1][:29])
    assert outcomes == {"root", "above eps", "residual does not change sign"}


@pytest.mark.parametrize("eps", [1e-16, 1e-15, 1e-14, 1e-12, 1e-9, 1.0, 10.0])
def test_find_root_with_err_matches_the_plain_path_on_flat_residuals(eps):
    # _construct_flat's search over b, with its err and without: below
    # _FLAT_MIN_EPS inner_vertices can raise, so no err is passed there.
    for j in range(4):
        def attempt(b):
            ys = ellipse.inner_vertices(j, b, eps)
            return diff_outer(0, [(-b, 1.0), (b, 1.0)], ys[-1], b), ys

        args = (attempt, *ellipse._B_RANGE, 4 * ellipse._COARSE_SAMPLES, eps, EllipseConstructionError)
        assert _memo_outcome(*args, ellipse._flat_err(j, eps)) == _memo_outcome(*args, None), j


def _exact_outer_closure(b, f, e):
    """The i = 1 outer closure at the floats b, f and e, to 50 digits, with
    B taken from e exactly: B^2 is the positive root X of
    X^2 + (e^2 - b^2 - 1) X - e^2 = 0, i.e. of b^2 / (X + e^2) + 1 / X = 1."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b, f, e = decimal.Decimal(b), decimal.Decimal(f), decimal.Decimal(e)
        c = e * e - b * b - 1
        big_b = ((-c + (c * c + 4 * e * e).sqrt()) / 2).sqrt()
        return ((b + f) ** 2 + 1).sqrt() - 2 - (f * f + big_b * big_b).sqrt() + (b * b + (big_b - 1) ** 2).sqrt()


def test_outer_closure_err_bounds_the_computed_closure():
    # outer_vertices' claims for i = 1: the exact closure rises with e and
    # the computed attempt is within err of it, on the whole scan range,
    # the top of it (where A, and so the cancellation in B, is largest)
    # included.
    rng = random.Random(34)
    worst = 0.0
    for n in range(2000):
        b = (2.0**-10, 2.0**10)[n % 2] if n % 50 < 8 else 2.0 ** rng.uniform(-10.0, 10.0)
        f = rng.uniform(0.0, b) if n % 3 else b * 10.0 ** rng.uniform(-12.0, 0.0)
        hi = 4.0 * (b + 1.0)
        e1, e2 = sorted((rng.uniform(0.0, hi), hi * (1.0 - rng.uniform(0.0, 1e-2)) if n % 4 == 0 else rng.uniform(0.0, hi)))
        if not 0.0 < f < b:
            continue
        err = decimal.Decimal(ellipse._outer_err(1, b))
        for e in (e1, e2):
            gap = abs(decimal.Decimal(ellipse._outer_attempt(1, b, f, e)[0]) - _exact_outer_closure(b, f, e))
            assert gap <= err, (b.hex(), f.hex(), e.hex(), gap / err)
            worst = max(worst, gap / err)
        if e1 < e2:
            assert _exact_outer_closure(b, f, e1) < _exact_outer_closure(b, f, e2)
    assert worst > 1 / 64


def _outer_scan_ends(b):
    """The first and last e samples of outer_vertices' scan, as _find_root
    computes them."""
    lo, hi, n = 0.0, 4.0 * (b + 1.0), ellipse._COARSE_SAMPLES
    return lo + (hi - lo) * (0 + 0.5) / n, lo + (hi - lo) * (n - 1 + 0.5) / n


def test_outer_closure_rises_in_f_and_err_bounds_it_at_both_ends():
    # _outer_excluded's claims for i = 1: the exact closure rises strictly
    # in f on the closed [0, b], and err bounds the computed attempt at f = 0
    # and f = b, where outer_vertices' own proof does not look.
    rng = random.Random(36)
    lo, hi = ellipse._B_RANGE
    worst = 0.0
    for n in range(400):
        b = (2.0**-10, 2.0**10, lo, hi)[n % 4] if n < 16 else 2.0 ** rng.uniform(-10.0, 10.0) if n % 2 else rng.uniform(lo, hi)
        top = 4.0 * (b + 1.0)
        err = decimal.Decimal(ellipse._outer_err(1, b))
        for e in (*_outer_scan_ends(b), rng.uniform(0.0, top), top * (1.0 - rng.uniform(0.0, 1e-2))):
            fs = sorted({0.0, b, *(rng.uniform(0.0, b) for _ in range(3)), b * 10.0 ** rng.uniform(-12.0, 0.0), b * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0))})
            exact = [_exact_outer_closure(b, f, e) for f in fs]
            assert all(x < y for x, y in zip(exact, exact[1:])), (b.hex(), e.hex())
            for f, want in ((0.0, exact[0]), (b, exact[-1])):
                gap = abs(decimal.Decimal(ellipse._outer_attempt(1, b, f, e)[0]) - want)
                assert gap <= err, (b.hex(), f.hex(), e.hex(), gap / err)
                worst = max(worst, gap / err)
    assert worst > 1 / 64


def test_outer_excluded_attempts_nothing_outside_i_one(monkeypatch):
    # Only i = 1 has the proof; any other count returns False at once, as
    # in certify's set-up build of row (3, 2).
    monkeypatch.setattr(ellipse, "_outer_attempt", None)
    for i in (0, 2, 3, 5):
        assert ellipse._outer_excluded(i, 1.5) is False


def _both_b_grids():
    lo, hi = ellipse._B_RANGE
    n = ellipse._COARSE_SAMPLES
    return [lo + (hi - lo) * (s + 0.5) / m for m in (n, 16 * n) for s in range(m)]


def test_outer_excluded_b_fail_the_full_path(monkeypatch):
    # Oracle for the exclusion: every b it rules out fails _evaluate at
    # every eps, with the exclusion itself switched off.  b on both of
    # ellipse_construct's grids are tried at every inner chain j = 0-6, and
    # 2,000 random b at one j each, in turn.  The inner attempts are pure,
    # so the four eps of one (j, b) share them (a raise is kept as None).
    rng = random.Random(37)
    grid = _both_b_grids()
    cases = [(j, b) for b in grid for j in range(7)] + [(n % 7, rng.uniform(*ellipse._B_RANGE)) for n in range(2000)]
    excluded = [(j, b) for j, b in cases if ellipse._outer_excluded(1, b)]
    monkeypatch.setattr(ellipse, "_outer_excluded", lambda i, b: False)
    memo = {}
    real = ellipse._inner_attempt

    def attempt(*a):
        if a not in memo:
            try:
                memo[a] = real(*a)
            except ellipse._BracketError:
                memo[a] = None
        if memo[a] is None:
            raise ellipse._BracketError
        return memo[a]

    monkeypatch.setattr(ellipse, "_inner_attempt", attempt)
    parts = [ellipse._shortcut_parts(1, j) for j in range(7)]
    for j, b in excluded:
        memo.clear()
        for eps in (1e-9, 1e-12, 1e-15, 1e-16):
            with pytest.raises(EllipseConstructionError):
                ellipse._evaluate(1, j, b, eps, parts[j])
    assert len(excluded) > len(cases) * 3 // 4 and len(cases) - len(excluded) > 700


def _probe_crossing(probe, lo, hi):
    """One of the adjacent floats between lo and hi where probe's sign
    changes, by halving."""
    pos = probe(lo) > 0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (probe(mid) > 0) == pos:
            lo = mid
        else:
            hi = mid
    return lo


def test_outer_excluded_keeps_its_margin_next_to_each_probe_crossing():
    # Next to the b where a probe's residual crosses 0 the computed probe
    # is within err of the exact one, so the exclusion needs its 2 err
    # margin: at b swept across each crossing, every excluded b has an
    # exact probe beyond err, as the proof uses.
    grid = _both_b_grids()[: ellipse._COARSE_SAMPLES]
    for k, f_of in ((0, lambda b: 0.0), (1, lambda b: b)):
        def probe(b):
            return ellipse._outer_attempt(1, b, f_of(b), _outer_scan_ends(b)[k])[0]

        s = next(s for s in range(len(grid) - 1) if (probe(grid[s]) > 0) != (probe(grid[s + 1]) > 0))
        b_star = _probe_crossing(probe, grid[s], grid[s + 1])
        err = ellipse._outer_err(1, b_star)
        near = 0
        for n in range(-40, 41):
            b = b_star + n * err / 8
            near += -2.0 * err < probe(b) < 2.0 * err
            if ellipse._outer_excluded(1, b):
                e_first, e_last = _outer_scan_ends(b)
                exact_first, exact_last = _exact_outer_closure(b, 0.0, e_first), _exact_outer_closure(b, b, e_last)
                assert exact_first > decimal.Decimal(err) or exact_last < -decimal.Decimal(err), (k, b.hex())
        assert near >= 8, k


def _exact_flat_residual(j, b):
    """The flat residual H(b + f*) - H(b - f*) - 2 + 2b at the float b, to
    50 digits, with f* bisected on the exact inner closure (_exact_closure)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lo, hi = decimal.Decimal(0), decimal.Decimal(b)
        for _ in range(120):
            mid = (lo + hi) / 2
            if _exact_closure(j, b, mid) < 0:
                lo = mid
            else:
                hi = mid
        b, f = decimal.Decimal(b), (lo + hi) / 2
        return ((b + f) ** 2 + 1).sqrt() - ((b - f) ** 2 + 1).sqrt() - 2 + 2 * b


def test_flat_err_bounds_the_computed_residual():
    # _construct_flat's claims for j <= 3: over the b-search range,
    # inner_vertices returns a root whose residual is below _FLAT_MIN_EPS,
    # the exact residual rises with b, and the computed one is within err.
    rng = random.Random(35)
    lo, hi = ellipse._B_RANGE
    worst = 0.0
    for j in range(4):
        err = decimal.Decimal(ellipse._flat_err(j, DEFAULT_EPS))
        prev = None
        for b in sorted([lo, hi, *(rng.uniform(lo, hi) for _ in range(100)), *(lo * 10.0 ** rng.uniform(0.0, 1.0) for _ in range(10))]):
            f = ellipse.inner_vertices(j, b)[-1]
            assert abs(ellipse._inner_attempt(j, b, f)[0]) < ellipse._FLAT_MIN_EPS
            exact = _exact_flat_residual(j, b)
            gap = abs(decimal.Decimal(diff_outer(0, [(-b, 1.0), (b, 1.0)], f, b)) - exact)
            assert gap <= err, (j, b.hex(), gap / err)
            worst = max(worst, gap / err)
            if prev is not None:
                assert prev < exact
            prev = exact
    assert worst > 1 / 64


# -- input checks ------------------------------------------------------------


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("ij", [(0, 0), (1, 1)])
def test_construct_rejects_an_eps_the_cli_rejects(ij, eps):
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        ellipse_construct(*ij, eps)


@pytest.mark.parametrize(
    "args,match",
    [
        ((-1, 1.0), "vertex count"),
        ((2, 0.0), "b must be"),
        ((2, -1.0), "b must be"),
        ((2, math.nan), "b must be"),
        ((2, math.inf), "b must be"),
        ((2, 1.0, math.nan), "eps must be"),
        ((1.5, 1.0), "vertex count"),
        ((math.inf, 1.0), "vertex count"),
        ((math.nan, 1.0), "vertex count"),
    ],
)
def test_inner_vertices_rejects_inputs_outside_its_proofs(args, match):
    with pytest.raises(ValueError, match=match):
        ellipse.inner_vertices(*args)


@pytest.mark.parametrize(
    "args,match",
    [
        ((-1, 1.0, 0.5), "vertex count"),
        ((3, 0.0, 0.5), "b must be"),
        ((3, math.nan, 0.5), "b must be"),
        ((3, 1.0, 0.0), "f must lie"),
        ((3, 1.0, 1.0), "f must lie"),
        ((3, 1.0, -0.5), "f must lie"),
        ((3, 1.0, math.nan), "f must lie"),
        ((0, 1.0, 2.0), "f must lie"),
        ((3, 1.0, 0.5, math.inf), "eps must be"),
        ((1.5, 1.0, 0.5), "vertex count"),
        ((math.inf, 1.0, 0.5), "vertex count"),
        ((-math.inf, 1.0, 0.5), "vertex count"),
        ((math.nan, 1.0, 0.5), "vertex count"),
    ],
)
def test_outer_vertices_rejects_inputs_outside_its_proofs(args, match):
    with pytest.raises(ValueError, match=match):
        ellipse.outer_vertices(*args)


@pytest.mark.parametrize("ij", [(1.5, 0), (0, 1.5), (1, -1), (math.inf, 0), (0, -math.inf), (math.nan, 0)])
def test_construct_rejects_counts_before_any_attempt(monkeypatch, ij):
    monkeypatch.setattr(ellipse, "_inner_attempt", None)
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        ellipse_construct(*ij)


def test_integral_float_counts_build_the_int_bits():
    # IJK's rule: an integral count of any type is that int.
    assert ellipse.inner_vertices(2.0, 1.0) == ellipse.inner_vertices(2, 1.0)
    b, f = (float.fromhex(x) for x in (_GOLDEN[(1, 0)][1], _GOLDEN[(1, 0)][3]))
    assert ellipse.outer_vertices(1.0, b, f) == ellipse.outer_vertices(1, b, f)
    for i, j in [(0, 2), (1, 2)]:
        assert _hexes(ellipse_construct(float(i), float(j))) == _hexes(ellipse_construct(i, j))
