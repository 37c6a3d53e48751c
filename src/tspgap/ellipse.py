"""Euclidean embeddings with high integrality ratio via the ellipse
construction: inner vertices on the x-axis, outer vertices on an ellipse
with foci on the x-axis, placed so that every pseudo-tour shortcut ties.

The construction fixes the four corners at (±b, ±1), chains inner vertices
left to right by closing tie equations against the left-anchor shortcut,
chains outer vertices along the ellipse the same way, and finally picks the
corner half-width b that maximizes the resulting ratio.  Symmetry in both
axes is built in, so only the left half of each line is ever solved for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import EdgeWeightVector, Instance, NormSpec, fractional_cost, tour_length
from .families.ijk import IJK, PseudoTour, fractional_xijk, labeled_vertices, pseudo_tour, shortcut_tour

DEFAULT_EPS = 1e-9

_COARSE_SAMPLES = 72
_B_RANGE = (0.05, 8.0)


class EllipseConstructionError(RuntimeError):
    """No parameter value yields a closed construction."""


class InnerPlacementError(EllipseConstructionError):
    """Inner-vertex closure has no root for this half-width."""


class OuterPlacementError(EllipseConstructionError):
    """No focal abscissa closes the outer chain; the half-width b sits
    outside the constructible window."""


class _BracketError(Exception):
    pass


def _check_eps(eps: float) -> None:
    """The CLI's rule for eps: finite and > 0 (at NaN or inf no residual is
    above eps)."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")


def _check_chain(count: int, b: float, eps: float) -> None:
    """Reject what a chain and its proofs do not cover: a negative vertex
    count, or a corner half-width b or an eps that is not finite and > 0."""
    if count < 0:
        raise ValueError(f"vertex count must be >= 0, got {count}")
    if not 0 < b < math.inf:
        raise ValueError(f"b must be finite and > 0, got {b}")
    _check_eps(eps)


@dataclass(frozen=True)
class EllipseParams:
    """Corner half-width b (corners at (±b, ±1)), focal abscissa e
    (foci (±e, 0); zero when there are no free outer vertices), and the
    abscissa f of the outermost inner vertices (±f, 0)."""

    b: float
    e: float
    f: float

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise ValueError("b must be positive")
        if not self.e >= 0:
            raise ValueError("e must be nonnegative")
        if not 0 < self.f < self.b:
            raise ValueError("f must lie strictly between 0 and b")


@dataclass(frozen=True)
class ConstructionResult:
    instance: Instance
    params: EllipseParams
    ratio: float
    inner_residual: float
    outer_residual: float


# Regula-falsi steps _window takes towards the root.
_ILLINOIS_STEPS = 6


def _window(
    fn: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float, err: float
) -> tuple[float, float]:
    """(a, z) with lo <= a < z <= hi such that fn is negative at every float
    in [lo, a] and positive at every float in [z, hi], given that fn is
    within err of a strictly increasing function F and flo < 0 < fhi.

    A computed residual below -2 err puts F below -err there, hence at
    every point to the left, where fn is then negative; one above +2 err
    settles every point to the right as positive.  Illinois steps (regula
    falsi that halves the residual of an end kept twice) approach the root
    until a residual is within 2 err, and two probes at that centre
    +- delta settle most of what is left, with delta the distance over
    which the secant slope of (a, z) clears the centre's residual and 5 err.
    A probe whose residual is within 2 err settles nothing; fn is called at
    each point once.
    """
    a, fa, z, fz = lo, flo, hi, fhi
    p, fp, q, fq = lo, flo, hi, fhi
    side, x, fx = 0, lo, flo
    for _ in range(_ILLINOIS_STEPS):
        t = p - fp * (q - p) / (fq - fp)
        if not p < t < q:
            break
        x, fx = t, fn(t)
        if -2.0 * err <= fx <= 2.0 * err:
            break
        if fx < 0:
            a, fa, p, fp = x, fx, x, fx
            if side < 0:
                fq *= 0.5
            side = -1
        else:
            z, fz, q, fq = x, fx, x, fx
            if side > 0:
                fp *= 0.5
            side = 1
    delta = (abs(fx) + 5.0 * err) * (z - a) / (fz - fa)
    for t in (x - delta, x + delta):
        if a < t < z and t != x:
            ft = fn(t)
            if ft < -2.0 * err:
                a = t
            elif ft > 2.0 * err:
                z = t
    return a, z


def _bisect(
    fn: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float, err: float | None = None
) -> tuple[float, float]:
    """(root, residual) of fn on [lo, hi], given the residuals flo, fhi at
    the ends.  An end with residual zero is the root; ends of one sign raise
    _BracketError.  Halving stops at adjacent floats, where the root is the
    end the midpoint rounds to, or after 100 steps; fn is called only at
    midpoints strictly inside, each once.

    err, when given, promises that fn is within err of a strictly
    increasing function and does not raise on [lo, hi].  With flo < 0 < fhi
    the midpoints outside _window's (a, z) then take their proven side
    without a call, and the end the root rounds to is called if it was not.
    The midpoints, the root and its residual are the plain loop's.  A
    midpoint can repeat a point of _window's, so fn should cache.
    """
    if flo == 0.0:
        return lo, flo
    if fhi == 0.0:
        return hi, fhi
    pos = fhi > 0
    if (flo > 0) == pos:
        raise _BracketError
    a, z = _window(fn, lo, hi, flo, fhi, err) if err is not None and pos else (lo, hi)
    rlo: float | None = flo
    rhi: float | None = fhi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= a:
            lo, rlo = mid, None
        elif mid >= z:
            hi, rhi = mid, None
        else:
            fm = fn(mid)
            if fm == 0.0:
                return mid, fm
            if (fm > 0) == pos:
                hi, rhi = mid, fm
            else:
                lo, rlo = mid, fm
    mid = 0.5 * (lo + hi)
    r = rlo if mid == lo else rhi if mid == hi else None
    return mid, fn(mid) if r is None else r


def _find_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    samples: int,
    eps: float,
    error: type[EllipseConstructionError],
    settle: Callable[[float], float | None] | None = None,
    err: float | None = None,
) -> float:
    """Root of fn on [lo, hi] whose residual is within eps, or raise error.

    Walks the midpoints of `samples` equal cells left to right, skipping
    points where fn raises, and bisects the first pair of consecutive
    evaluated points whose residuals change sign (or whose left residual is
    zero).  An EllipseConstructionError raised by fn inside that bracket
    propagates with its own class.

    settle, when given, is asked about each scan sample first: it returns
    the proven sign (+-1.0) of fn's nonzero residual there, raises the
    _BracketError that fn is proven to raise, or returns None when unsure.
    fn is called only at unsure samples and, once, at each settled member
    of the bracketing pair, so the bisection and the messages see the
    residuals fn gives and fn sees each point at most once.

    err, given instead of settle, promises that fn is within err of a
    strictly increasing function and does not raise on [lo, hi].  The walk
    then starts with a binary search over the sample indices: a sample
    whose residual is below -2 err settles every sample to its left as
    negative, one above +2 err every sample to its right as positive (see
    _window), so no pair of them changes sign.  The search stops at a
    residual within 2 err, and the walk covers the samples from the last
    settled negative one to the first settled positive one.  _bisect
    settles its midpoints the same way.  The bracket, the root, its
    residual and every message are the plain walk's.  The walk repeats the
    search's last two samples, so fn should cache.
    """
    settled: set[float] = set()
    probe = fn
    if settle is not None:

        def probe(x: float) -> float:
            r = settle(x)
            if r is None:
                return fn(x)
            settled.add(x)
            return r

    def sample(s: int) -> tuple[float, float | None]:
        x = lo + (hi - lo) * (s + 0.5) / samples
        try:
            return x, probe(x)
        except (_BracketError, EllipseConstructionError):
            return x, None

    first, last = -1, samples  # samples up to first settled negative, from last on positive
    while err is not None and last - first > 1:
        m = (first + last) // 2
        r = sample(m)[1]
        if r is None or -2.0 * err <= r <= 2.0 * err:
            break
        if r < 0:
            first = m
        else:
            last = m
    prev: tuple[float, float] | None = None
    for s in range(max(first, 0), min(last + 1, samples)):
        x, r = sample(s)
        if r is None:
            continue
        if prev is not None and (prev[1] == 0.0 or (prev[1] > 0) != (r > 0)):
            break
        prev = (x, r)
    else:
        raise error(f"residual does not change sign on [{lo}, {hi}]")
    x0, r0 = prev
    if x0 in settled:
        r0 = fn(x0)
    if x in settled:
        r = fn(x)
    try:
        root, resid = _bisect(fn, x0, x, r0, r, err)
    except _BracketError:
        raise error(f"residual undefined inside the bracket [{x0}, {x}]") from None
    if abs(resid) > eps:
        raise error(f"residual {resid} above eps at {root}")
    return root


# -- inner vertices --------------------------------------------------------


def diff_inner(h: int, ys: Sequence[float], b: float) -> float:
    """Shortcut-length difference between the middle-gap pseudo-tour at h
    and the left anchor, as a function of the inner abscissas.

    ys lists the abscissas of the inner line left to right (the last entry
    is the rightmost inner vertex); entries h and h+1 are the ones the tie
    equation relates.  Zero means the two shortcuts tie; the value is
    monotone increasing in ys[h+1].
    """
    y_h, y_next, y_last = ys[h], ys[h + 1], ys[-1]
    return (
        math.hypot(b + y_last, 1.0)          # X0 to rightmost inner vertex
        + 2.0                                 # right corner edge
        + (y_next - y_h)                      # inner step
        - math.hypot(b + y_h, 1.0)            # X0 to Y_h
        - math.hypot(b - y_next, 1.0)         # Y_{h+1} to top right corner
        - math.hypot(b - y_last, 1.0)         # X_{i+1} to rightmost inner
    )


# Half-width of the inner tie's evaluation window, per unit of S + K (see
# _inner_tie): 2^-46 = 128u against a float error bound of 12u.
_INNER_WINDOW = 2.0**-46


def _inner_tie(c: float, y_h: float, b: float) -> float:
    """Root t on [y_h, b] of the inner tie g(t) = c + (t - y_h) - hypot(b - t, 1),
    bisected with _bisect's rules and steps but without a call per step.

    Every midpoint is the one a plain bisection takes, but g is computed
    only inside a window [t~ - delta, t~ + delta] around t~, the closed-form
    root t* computed in floats; outside it the sign of the computed g is
    known.  With K = c + b - y_h and v = b - t >= 0, g = K - (v + hypot(v, 1)),
    whose inverse gives the root t* = b - (K - 1/K)/2 when K >= 1 (none in
    t <= b otherwise), and g has slope at least 1 for t <= b.  With
    u = 2^-53 and S = 1 + |c| + |b| + |y_h|, the computed g is within 8u S
    of g (five roundings, one ulp of math.hypot); t~ is within 3u S + 2u K
    of t* (the roundings of K, of (K - 1/K)/2 and of b minus it); the window
    edges and delta add u (S + K).  Outside the window
    |t - t*| > delta - 4u (S + K), so |g(t)| > 8u S and the computed g is
    nonzero, of the sign of t - t~, when delta = 2^-46 (S + K), over four
    times the 12u (S + K) these sum to.  Without a closed form (K < 1) or
    with ends whose residuals fall from positive to negative, the window is
    the whole line and every midpoint is computed, as is every end.
    """
    hypot = math.hypot
    lo, hi = y_h, b
    flo = c + (lo - y_h) - hypot(b - lo, 1.0)
    fhi = c + (hi - y_h) - hypot(b - hi, 1.0)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    pos = fhi > 0
    if (flo > 0) == pos:
        raise _BracketError
    K = c + b - y_h
    if pos and K >= 1.0:
        root = b - 0.5 * (K - 1.0 / K)
        delta = _INNER_WINDOW * (1.0 + abs(c) + abs(b) + abs(y_h) + K)
        wlo, whi = root - delta, root + delta
    else:
        wlo, whi = -math.inf, math.inf
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid < wlo:
            lo = mid
        elif mid > whi:
            hi = mid
        else:
            fm = c + (mid - y_h) - hypot(b - mid, 1.0)
            if fm == 0.0:
                return mid
            if (fm > 0) == pos:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


def _inner_attempt(j: int, b: float, f: float) -> tuple[float, list[float]]:
    """Chain the left inner half for a trial f, mirroring it as it goes;
    return (closure residual, full symmetric abscissa list)."""
    left, right = [-f], [f]
    half = j // 2
    if half:
        c_right = math.hypot(b + f, 1.0) + 2.0 - math.hypot(b - f, 1.0)
        for _ in range(half):
            y_h = left[-1]
            y_next = _inner_tie(c_right - math.hypot(b + y_h, 1.0), y_h, b)
            left.append(y_next)
            right.append(-y_next)
    full = left + [0.0] * (j % 2) + right[::-1]
    return diff_inner(half, full, b), full


def _memo(tried: dict, attempt: Callable[[float], tuple]) -> Callable[[float], float]:
    """The closure residual of attempt(x), built once per point into tried."""

    def fn(x: float) -> float:
        if x not in tried:
            tried[x] = attempt(x)
        return tried[x][0]

    return fn


# Float error bound on the inner closure, per unit of (1 + b) 4^(j // 2) (see
# inner_vertices): 2^-46 = 128u against 46u without a tie and 258u / 4 with one.
_INNER_CLOSURE_ERR = 2.0**-46

# Least b for which inner_vertices' single tie is proven not to raise.
_WINDOW_MIN_B = 2.0**-10


def _inner_err(j: int, b: float) -> float | None:
    """inner_vertices' err for _find_root, or None where it is not proven."""
    half = j // 2
    return _INNER_CLOSURE_ERR * (1.0 + b) * 4**half if half <= 1 and b >= _WINDOW_MIN_B else None


def inner_vertices(j: int, b: float, eps: float = DEFAULT_EPS) -> list[float]:
    """Abscissas of the inner vertices on the x-axis, left to right and
    symmetric about 0, placed so every middle-gap tie equation closes
    within eps.  The inner chain sees only the corners (±b, ±1), so the
    outer count does not enter.

    The outermost abscissa f is bracketed by a coarse scan of the closure
    residual over (0, b) and bisected; a residual without a sign change, or
    a bisected root above eps, raises InnerPlacementError.  j < 0, or b or
    eps not finite and > 0, raises ValueError.

    For j // 2 <= 1 and b >= 2^-10 the scan and the bisection settle points
    by their proven side (err in _find_root), with err = 2^-46 (1 + b)
    4^(j // 2), because the computed closure meets _find_root's promise.
    Let H(x) = hypot(x, 1), phi(t) = t - H(b - t), psi(y) = y + H(b + y)
    and c_right(f) = H(b + f) + 2 - H(b - f): all rise strictly, c_right on
    (0, b).

    Monotone.  Each tie is phi(y_{k+1}) = psi(y_k) - c_right(f).  From
    y_0 = -f every exact y_k falls as f rises, by induction, so the exact
    closure R*(f) = c_right(f) - psi(y_half) + phi(0 for odd j, -y_half for
    even j) rises strictly.

    No raise.  Without a tie nothing raises.  The single tie has
    c = c_right(f) - H(b - f), and its exact residuals at its ends y_0 = -f
    and b are 2 - 2 H(b - f) < 0 and H(b + f) + 1 + b + f - 2 H(b - f)
    >= 2f > 0.  Every point _find_root evaluates lies between its lo and
    its last sample, where f >= 10^-9 b and b - f > b / 145, so for
    b >= 2^-10 both exceed 10^-12 (1 + b) in size.  Their computed values
    are within 30u (1 + b) of them (u = 2^-53, hypot within one ulp), so
    they have opposite signs and the tie does not raise.

    Error bound.  At given abscissas the computed diff_inner is within
    46u (1 + b) of its exact value: u (8 + 23b) from its six terms and
    u (18 + 23b) from its five additions, whose partial sums stay below
    5 + 7b.  With a tie the computed c is within 19u (1 + b) of the exact
    one and the computed tie within 8u S <= 32u (1 + b) of the tie at that
    c (see _inner_tie), whose slope is at least 1; the root is an end of
    adjacent floats whose computed residuals straddle 0, so y_1 is within
    53u (1 + b) of the exact root, and the closure moves by at most 4 per
    unit of y_1.  So the computed closure is within 46u (1 + b) of R*(f)
    without a tie and 258u (1 + b) with one, under err's 128u and 512u.

    With two ties or more the second can lack a root (attempts raise at
    many scan samples), so the exact closure is not defined on the whole
    range and every point is computed.
    """
    _check_chain(j, b, eps)
    tried: dict[float, tuple[float, list[float]]] = {}  # each point's attempt, so the root's is not rebuilt
    f = _find_root(
        _memo(tried, lambda f: _inner_attempt(j, b, f)),
        b * 1e-9, b * (1 - 1e-9), _COARSE_SAMPLES, eps, InnerPlacementError,
        err=_inner_err(j, b),
    )
    return tried[f][1]


# -- outer vertices --------------------------------------------------------


def _ellipse_axes(b: float, e: float) -> tuple[float, float]:
    """Semi-axes of the ellipse through (±b, ±1) with foci (±e, 0)."""
    A = 0.5 * (math.hypot(b + e, 1.0) + math.hypot(b - e, 1.0))
    return A, math.sqrt(A * A - e * e)


def diff_outer(h: int, zs: Sequence[tuple[float, float]], f: float, b: float) -> float:
    """Shortcut-length difference between the top-gap pseudo-tour at h and
    the left anchor: zero when they tie.

    zs lists the top-line coordinates left to right; entries h and h+1 are
    related by the tie equation; f is the abscissa of the outermost inner
    vertices.
    """
    z_h, z_next = zs[h], zs[h + 1]
    return (
        math.hypot(b - f, 1.0)                                # X0 to Y0
        + math.hypot(b + f, 1.0)                              # Z0 to rightmost inner
        - 2.0                                                 # left corner edge
        - math.hypot(z_h[0] + f, z_h[1])                      # Z_h to Y0
        - math.hypot(z_next[0] - f, z_next[1])                # Z_{h+1} to rightmost inner
        + math.hypot(z_next[0] - z_h[0], z_next[1] - z_h[1])  # top step
    )


def _outer_steps(
    c: float, zx: float, zy: float, f: float, A: float, B: float, lo: float, hi: float, steps: int
) -> tuple[float, float, bool]:
    """The outer tie's residuals at both ends of [lo, hi] and its first
    `steps` bisection steps (see _outer_tie): (lo, hi, whether the residual
    at hi is positive) for the bracket they leave, with lo == hi at an end
    or midpoint whose residual is zero.  Ends of one sign raise
    _BracketError."""
    hypot, cos, sin = math.hypot, math.cos, math.sin
    px, py = A * cos(lo), B * sin(lo)
    flo = c + hypot(px - zx, py - zy) - hypot(px - f, py)
    px, py = A * cos(hi), B * sin(hi)
    fhi = c + hypot(px - zx, py - zy) - hypot(px - f, py)
    pos = fhi > 0
    if flo == 0.0 or fhi == 0.0:
        root = lo if flo == 0.0 else hi
        return root, root, pos
    if (flo > 0) == pos:
        raise _BracketError
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        px, py = A * cos(mid), B * sin(mid)
        fm = c + hypot(px - zx, py - zy) - hypot(px - f, py)
        if fm == 0.0:
            return mid, mid, pos
        if (fm > 0) == pos:
            hi = mid
        else:
            lo = mid
    return lo, hi, pos


# Float error bound on the outer tie's residual and on its slope (see
# _outer_tie): 2^-47 = 64u against 30u and 29u.
_TIE_ERR = 2.0**-47

# Newton iterations _outer_tie allows for the centre of its window.
_NEWTON_STEPS = 8


def _outer_tie(c: float, zx: float, zy: float, f: float, A: float, B: float, lo: float, hi: float) -> float:
    """Root theta on [lo, hi] of the outer tie at p = (A cos theta, B sin theta),
    g(theta) = c + hypot(px - zx, py - zy) - hypot(px - f, py), bisected with
    _bisect's rules and steps but without a call per step.

    Every midpoint is the one a plain bisection takes.  After three plain
    steps a safeguarded Newton iteration gives a centre t~, and g is
    computed only inside a window t~ +- delta and beyond a radius rho;
    between them the sign of the computed g is known.  With Z = (zx, zy),
    F = (f, 0) and r_Q = |p - Q|, g = c + r_Z - r_F; |p'| <= A and
    |p''| = |p| <= A (A >= B), so |r_Q''| <= A + A^2 / r_Q.  With u = 2^-53
    and cos, sin and hypot within one ulp, the computed g is within
    E = 30u (A + |zx| + |zy| + f + |c|) of g at any float theta (3uA on
    each coordinate of p, two roundings on each hypot argument, one ulp on
    each hypot and two additions), and the computed slope g' at t~ within
    29u A (1 + A / r_Z + A / r_F) for r >= 2^-40 A.  Let s > 0 be |g'(t~)|
    computed less that bound, and M = 2A + 2A^2 / r_Z + 2A^2 / r_F with each
    r lowered by 64uA, a bound on |g''| wherever both distances are at least
    half their value at t~, i.e. within r / (2A) of t~.  Within rho =
    min(s / M, r_Z / 2A, r_F / 2A) of t~, Taylor's bound gives
    |g(t) - g(t~) - g'(t~) d| <= M d^2 / 2 <= s |d| / 2 for d = t - t~, so g
    has the sign of g'(t~) d wherever s |d| / 2 > |g(t~)| + E, and so does
    the computed g when s |d| / 2 exceeds that plus E.  Since
    |g(t~)| <= |computed g(t~)| + E, delta = 2 (|computed g(t~)| + 2E) / s
    suffices.  The error bounds are taken at 2^-47 = 64u; delta grows and
    rho shrinks by 2^-51, over the rounding of t~ -+ delta and t~ -+ rho
    (t < 4), and rho by 0.1% more, over the roundings of s / M.  Where a
    Newton iterate comes within 2^-40 A of Z or F, or the slope is not
    proven nonzero, the window is the whole line and every midpoint is
    computed; both ends and the three plain steps always are.
    """
    hypot, cos, sin = math.hypot, math.cos, math.sin
    lo, hi, pos = _outer_steps(c, zx, zy, f, A, B, lo, hi, 3)
    if lo == hi:
        return lo
    rlo, wlo, whi, rhi = math.inf, -math.inf, math.inf, -math.inf
    near = 2.0**-40 * A
    a, z = lo, hi  # Newton's own bracket, a safeguard only
    t = 0.5 * (lo + hi)
    for k in range(_NEWTON_STEPS):
        cs, sn = cos(t), sin(t)
        px, py = A * cs, B * sn
        dzx, dzy, dfx = px - zx, py - zy, px - f
        rz, rf = hypot(dzx, dzy), hypot(dfx, py)
        if rz < near or rf < near:
            break
        g = c + rz - rf
        dg = (B * cs * dzy - A * sn * dzx) / rz - (B * cs * py - A * sn * dfx) / rf
        if dg == 0.0:
            break
        step = g / dg
        if -2.0**-42 < step < 2.0**-42 or k == _NEWTON_STEPS - 1:
            err = _TIE_ERR * A
            s = abs(dg) - err * (1.0 + A / rz + A / rf)
            if s > 0.0:
                rzl, rfl = rz - err, rf - err
                E = _TIE_ERR * (A + abs(zx) + abs(zy) + f + abs(c))
                delta = 2.0 * (abs(g) + 2.0 * E) / s + 2.0**-51
                M = 2.0 * A + 2.0 * A * A / rzl + 2.0 * A * A / rfl
                rho = 0.999 * min(s / M, 0.5 * min(rzl, rfl) / A) - 2.0**-51
                if rho > delta:
                    rlo, wlo, whi, rhi = t - rho, t - delta, t + delta, t + rho
                    left_hi, right_hi = (dg < 0) == pos, (dg > 0) == pos
            break
        if (g > 0) == pos:
            z = t
        else:
            a = t
        t -= step
        if not a < t < z:
            t = 0.5 * (a + z)
    for _ in range(97):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if rlo <= mid < wlo:
            if left_hi:
                hi = mid
            else:
                lo = mid
        elif whi < mid <= rhi:
            if right_hi:
                hi = mid
            else:
                lo = mid
        else:
            px, py = A * cos(mid), B * sin(mid)
            fm = c + hypot(px - zx, py - zy) - hypot(px - f, py)
            if fm == 0.0:
                return mid
            if (fm > 0) == pos:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


def _outer_attempt(i: int, b: float, f: float, e: float) -> tuple[float, list[tuple[float, float]]]:
    """Chain the left outer half along the ellipse for a trial e, mirroring
    it as it goes; return (closure residual, full top line).  Raises
    _BracketError when a tie has no point on the arc or the last chained
    vertex is not left of the y-axis.
    """
    A, B = _ellipse_axes(b, e)
    left, right = [(-b, 1.0)], [(b, 1.0)]
    half = i // 2
    if half:
        theta_corner = math.atan2(1.0 / B, b / A)
        c_left = math.hypot(b - f, 1.0) + math.hypot(b + f, 1.0) - 2.0
        theta_h = math.pi - theta_corner
        for _ in range(half):
            zx, zy = left[-1]
            theta_h = _outer_tie(c_left - math.hypot(zx + f, zy), zx, zy, f, A, B, theta_corner, theta_h)
            x, y = A * math.cos(theta_h), B * math.sin(theta_h)
            left.append((x, y))
            right.append((-x, y))
    full = left + [(0.0, B)] * (i % 2) + right[::-1]
    if full[half][0] >= 0:
        raise _BracketError
    return diff_outer(half, full, f, b), full


# Float error bound on the closure residual diff_outer of an outer chain, per
# unit of 1 + b + f + A (see _outer_settle): 2^-46 = 128u against 64u.
_CLOSURE_ERR = 2.0**-46

# Plain bisection steps _outer_settle takes on the chain's last tie.
_SETTLE_STEPS = 10


def _outer_settle(i: int, b: float, f: float, e: float) -> float | None:
    """The sign of _outer_attempt(i, b, f, e)'s closure residual, proven
    without converging the chain's last tie, for i >= 2; raises the
    _BracketError the attempt is proven to raise; None when unsure.

    Every expression up to the last tie is the attempt's, earlier ties
    included, so a tie without a sign change raises here as it does there.
    The last tie takes only its first _SETTLE_STEPS bisection steps, on the
    attempt's midpoints, so the attempt's angle theta lies in the bracket
    [lo, hi] they leave.  Cosine falls on the arc (0, pi) and a computed
    cosine keeps the sign of the exact one, which is never zero at a float,
    so x = A cos(theta) of the last vertex is negative when it is at lo and
    nonnegative (the attempt's raise) when it is at hi.

    The closure residual R(theta) of diff_outer moves with the last vertex
    (A cos theta, B sin theta), whose speed is at most A (A >= B): through
    hypot(x + f, y) and, for odd i, hypot(x, B - y), each at most
    A-Lipschitz in theta, or, for even i, through hypot(x + f, y) twice and
    2|x|, at most A, A and 2A-Lipschitz.  So R is at most 4A-Lipschitz.  With u = 2^-53 and cos, sin and hypot within one
    ulp, the computed R is within E = 64u (1 + b + f + A) of R at any float
    theta: 3uA on each coordinate of the vertex, two roundings on each
    hypot argument, one ulp on each of the six terms and five additions of
    at most 6A + 2b + 4f + 4.  So when |R(lo)| computed exceeds
    4A (hi - lo) + 2E, the attempt's computed R is nonzero and of its sign.
    """
    hypot = math.hypot
    A, B = _ellipse_axes(b, e)
    theta_corner = math.atan2(1.0 / B, b / A)
    c_left = hypot(b - f, 1.0) + hypot(b + f, 1.0) - 2.0
    theta_h = math.pi - theta_corner
    zx, zy = -b, 1.0
    for _ in range(i // 2 - 1):
        theta_h = _outer_tie(c_left - hypot(zx + f, zy), zx, zy, f, A, B, theta_corner, theta_h)
        zx, zy = A * math.cos(theta_h), B * math.sin(theta_h)
    lo, hi, _ = _outer_steps(c_left - hypot(zx + f, zy), zx, zy, f, A, B, theta_corner, theta_h, _SETTLE_STEPS)
    if A * math.cos(hi) >= 0:
        raise _BracketError
    x, y = A * math.cos(lo), B * math.sin(lo)
    if x >= 0:
        return None
    r = diff_outer(0, [(x, y), (0.0, B) if i % 2 else (-x, y)], f, b)
    if abs(r) > 4.0 * A * (hi - lo) + 2.0 * _CLOSURE_ERR * (1.0 + b + f + A):
        return 1.0 if r > 0 else -1.0
    return None


def outer_vertices(
    i: int, b: float, f: float, eps: float = DEFAULT_EPS
) -> tuple[float, list[tuple[float, float]]]:
    """Place the top-line vertices on the ellipse through the corners so
    every top-gap tie equation closes within eps; returns (e, top line).
    The outer chain sees the inner line only through the abscissa f of its
    outermost vertices.

    The focal abscissa e is bracketed by a coarse scan over configurations
    whose last chained vertex stays left of the y-axis, then bisected; a
    residual without a sign change, or a bisected root above eps, reports
    the half-width b as outside the constructible window.  i < 0, b or eps
    not finite and > 0, or f outside (0, b) raises ValueError.  For i >= 2
    the scan asks _outer_settle about each sample before attempting it.
    """
    _check_chain(i, b, eps)
    if not 0 < f < b:
        raise ValueError(f"f must lie strictly between 0 and b, got f = {f}, b = {b}")
    if i == 0:
        return 0.0, [(-b, 1.0), (b, 1.0)]
    tried: dict[float, tuple[float, list[tuple[float, float]]]] = {}  # each point's attempt, as in inner_vertices
    e_star = _find_root(
        _memo(tried, lambda e: _outer_attempt(i, b, f, e)),
        0.0, 4.0 * (b + 1.0), _COARSE_SAMPLES, eps, OuterPlacementError,
        (lambda e: _outer_settle(i, b, f, e)) if i >= 2 else None,
    )
    return float(e_star), tried[e_star][1]


# -- full construction -----------------------------------------------------


def _assemble(
    i: int, j: int, ys: Sequence[float], zline: Sequence[tuple[float, float]]
) -> Instance:
    points = [(x, -y) for x, y in zline]          # bottom line mirrors the top
    points += [(y, 0.0) for y in ys]
    points += [(x, y) for x, y in zline]
    return Instance(points, NormSpec(2.0), labels=labeled_vertices(IJK(i, j, i)))


def _shortcut_parts(i: int, j: int) -> tuple[EdgeWeightVector, PseudoTour]:
    """x_ijk and the middle_left anchor of (i, j, i): the same at every b."""
    p = IJK(i, j, i)
    return fractional_xijk(p), pseudo_tour(p, "middle_left")


def _evaluate(
    i: int, j: int, b: float, eps: float, parts: tuple[EdgeWeightVector, PseudoTour], ys: list[float] | None = None
) -> ConstructionResult:
    if ys is None:
        ys = inner_vertices(j, b, eps)
    e, zline = outer_vertices(i, b, ys[-1], eps)
    inst = _assemble(i, j, ys, zline)
    x, anchor = parts
    ratio = tour_length(inst, shortcut_tour(anchor, inst)) / fractional_cost(inst, x)
    inner_res = max(abs(diff_inner(h, ys, b)) for h in range(j // 2 + 1))
    outer_res = max(abs(diff_outer(h, zline, ys[-1], b)) for h in range(i // 2 + 1))
    params = EllipseParams(b, e, ys[-1])
    return ConstructionResult(inst, params, ratio, inner_res, outer_res)


def _construct_flat(j: int, eps: float) -> ConstructionResult:
    """No free outer vertices: the corner half-width itself is pinned by
    the single outer tie equation, so root-find it instead of optimizing."""

    inner: dict[float, list[float]] = {}  # each b's inner line, so the root's is not rebuilt

    def resid(b: float) -> float:
        inner[b] = inner_vertices(j, b, eps)
        return diff_outer(0, [(-b, 1.0), (b, 1.0)], inner[b][-1], b)

    b_star = _find_root(resid, *_B_RANGE, _COARSE_SAMPLES * 4, eps, EllipseConstructionError)
    return _evaluate(0, j, b_star, eps, _shortcut_parts(0, j), inner[b_star])


def ellipse_construct(i: int, j: int, eps: float = DEFAULT_EPS) -> ConstructionResult:
    """Build the 2i+j+6 point construction maximizing the tied-shortcut
    ratio over the corner half-width b.

    The ratio is concave in b over the constructible window, so a coarse
    feasibility scan brackets the maximum and golden-section search closes
    in.  The scan retries on a 16x finer grid when the coarse one holds no
    feasible b.  Below about eps = 1e-15 the tie residuals are at roundoff
    and feasible b are scattered among infeasible ones; when golden section
    meets an infeasible b the result is the best coarse sample.
    """
    if i < 0 or j < 0:
        raise ValueError("need i, j >= 0")
    _check_eps(eps)
    if i == 0:
        return _construct_flat(j, eps)

    cache: dict[float, ConstructionResult] = {}
    parts = _shortcut_parts(i, j)

    def ratio_at(b: float) -> float:
        if b not in cache:
            cache[b] = _evaluate(i, j, b, eps, parts)
        return cache[b].ratio

    lo, hi = _B_RANGE
    feasible: list[tuple[float, float]] = []
    for samples in (_COARSE_SAMPLES, 16 * _COARSE_SAMPLES):
        for s in range(samples):
            b = lo + (hi - lo) * (s + 0.5) / samples
            try:
                feasible.append((b, ratio_at(b)))
            except EllipseConstructionError:
                continue
        if feasible:
            break
    if not feasible:
        raise EllipseConstructionError(f"no feasible corner half-width for (i, j) = ({i}, {j})")
    k_best = max(range(len(feasible)), key=lambda k: feasible[k][1])
    blo = feasible[max(0, k_best - 1)][0]
    bhi = feasible[min(len(feasible) - 1, k_best + 1)][0]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    try:
        a, d = blo, bhi
        x1 = d - invphi * (d - a)
        x2 = a + invphi * (d - a)
        f1, f2 = ratio_at(x1), ratio_at(x2)
        while d - a > 1e-10:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (d - a)
                f2 = ratio_at(x2)
            else:
                d, x2, f2 = x2, x1, f1
                x1 = d - invphi * (d - a)
                f1 = ratio_at(x1)
        b_star = x1 if f1 >= f2 else x2
    except EllipseConstructionError:
        b_star = feasible[k_best][0]
    return cache[b_star]
