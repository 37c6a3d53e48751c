"""The three-path instance families: canonical fractional tours, rectilinear
plane and space embeddings, the pseudo-tour family with its shortcuts, and
the closed-form optima/ratios.

Family layout: three vertex paths (bottom X_0..X_{i+1}, middle Y_0..Y_{j+1},
top Z_0..Z_{k+1}) carrying weight-1 edges, glued by two weight-1/2 triangles
at the left and right path ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import EdgeWeightVector, Instance, NormSpec, Tour, edge_position

RECTILINEAR = "rectilinear"
METRIC = "metric"


@dataclass(frozen=True)
class IJK:
    """Middle-vertex counts of the bottom, middle, and top paths."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        for name in ("i", "j", "k"):
            v = getattr(self, name)
            if int(v) != v or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def n(self) -> int:
        return self.i + self.j + self.k + 6

    @property
    def lines(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The family layout as three index lists (X, Y, Z): the vertex
        indices of the bottom, middle and top paths in path order: X =
        0..i+1, then Y (j+2 indices), then Z (k+2).  Path edges join
        consecutive entries of one line; the left and right end triangles
        join the lines' first and last entries."""
        y0, z0 = self.i + 2, self.i + self.j + 4
        return tuple(range(y0)), tuple(range(y0, z0)), tuple(range(z0, self.n))


# The three line pairs XY, XZ, YZ, as indices into IJK.lines.
_PAIRS = ((0, 1), (0, 2), (1, 2))


def labeled_vertices(p: IJK) -> tuple[str, ...]:
    """Each vertex named by its line and position: X0..X_{i+1}, Y0..Y_{j+1},
    Z0..Z_{k+1}, in vertex order."""
    return tuple(f"{name}{s}" for name, line in zip("XYZ", p.lines) for s in range(len(line)))


def ijk_of_labels(labels: Sequence[str]) -> IJK | None:
    """The triple whose labeled_vertices are exactly labels, or None."""
    heads = [label[:1] for label in labels]
    counts = [heads.count(name) - 2 for name in "XYZ"]
    if min(counts) < 0:
        return None
    p = IJK(*counts)
    return p if labeled_vertices(p) == tuple(labels) else None


def fractional_xijk(p: IJK) -> EdgeWeightVector:
    """The canonical fractional tour: 1 along each path, 1/2 on the two
    end triangles.  Every vertex gets fractional degree exactly 2."""
    lines = p.lines
    paths = [e for line in lines for e in zip(line, line[1:])]
    halves = [(lines[a][end], lines[b][end]) for end in (0, -1) for a, b in _PAIRS]
    return EdgeWeightVector.from_pairs(p.n, [(e, 1.0) for e in paths] + [(e, 0.5) for e in halves])


def line_gaps(p: IJK) -> tuple[float, float]:
    """Vertical gaps (bottom-to-middle, middle-to-top) of the plane embedding.

    The bottom gap shrinks with the bottom path's own count i and the top
    gap with the top count k; this pairing is what makes every pseudo-tour
    shortcut tie at the closed-form optimum (swapping them admits strictly
    shorter tours, e.g. at (i,j,k) = (0,0,2)).
    """
    q = (p.j + 1) / (p.j + 3)
    gap_xy = 0.5 + q * (1.0 / (p.i + 1) - 0.5)
    gap_yz = 0.5 + q * (1.0 / (p.k + 1) - 0.5)
    return gap_xy, gap_yz


def gen_I2(p: IJK) -> Instance:
    """Plane embedding under the 1-norm: three horizontal rows of points."""
    gap_xy, gap_yz = line_gaps(p)
    span = lambda s, count: s * (p.j + 1) / ((p.j + 3) * count) + 1.0 / (p.j + 3)
    pts: list[tuple[float, float]] = []
    pts.append((0.0, 0.0))
    for s in range(1, p.i + 1):
        pts.append((span(s, p.i + 1), 0.0))
    pts.append((1.0, 0.0))
    for s in range(p.j + 2):
        pts.append(((s + 1) / (p.j + 3), gap_xy))
    top = gap_xy + gap_yz
    pts.append((0.0, top))
    for s in range(1, p.k + 1):
        pts.append((span(s, p.k + 1), top))
    pts.append((1.0, top))
    return Instance(pts, NormSpec(1.0), labels=labeled_vertices(p))


def gen_I3(p: IJK) -> Instance:
    """Space embedding under the 1-norm: three parallel unit-length paths."""
    i1, j1, k1 = p.i + 1, p.j + 1, p.k + 1
    pts: list[tuple[float, float, float]] = []
    for s in range(i1 + 1):
        pts.append((0.0, 0.0, s / i1))
    for s in range(j1 + 1):
        pts.append((1.0 / i1 + 1.0 / j1, 0.0, s / j1))
    for s in range(k1 + 1):
        pts.append((1.0 / i1, 1.0 / k1, s / k1))
    return Instance(pts, NormSpec(1.0), labels=labeled_vertices(p))


def closed_form_lp_I2(p: IJK) -> float:
    """Cost of the canonical fractional tour on the plane embedding."""
    gap_xy, gap_yz = line_gaps(p)
    return 3.0 + 2.0 * (gap_xy + gap_yz)


def closed_form_opt_I2(p: IJK) -> float:
    """Optimal tour length of the plane embedding."""
    gap_xy, gap_yz = line_gaps(p)
    return 4.0 + 2.0 * (gap_xy + gap_yz) - 2.0 / (p.j + 3)


def closed_form_ratio_I2(p: IJK) -> float:
    """Integrality ratio of the plane embedding."""
    return 1.0 + 1.0 / (3.0 + 2.0 * (5.0 / (p.j + 1) + 1.0 / (p.k + 1) + 1.0 / (p.i + 1)))


def closed_form_opt_I3(p: IJK) -> float:
    """Optimal tour length of the space embedding (attained lower bound)."""
    return 4.0 + 2.0 / (p.i + 1) + 2.0 / (p.j + 1) + 2.0 / (p.k + 1)


def closed_form_lp_I3(p: IJK) -> float:
    """Cost of the canonical fractional tour on the space embedding."""
    return 3.0 + 2.0 / (p.i + 1) + 2.0 / (p.j + 1) + 2.0 / (p.k + 1)


def closed_form_ratio_metric(p: IJK) -> float:
    """Integrality ratio of the space embedding; also the metric-space value."""
    return 1.0 + 1.0 / (3.0 + 2.0 * (1.0 / (p.i + 1) + 1.0 / (p.j + 1) + 1.0 / (p.k + 1)))


def best_partition(n: int, family: str) -> IJK:
    """Ratio-maximizing triple with i+j+k = n-6, by exhaustive enumeration.

    Ties go to the lexicographically smallest (i, j, k).
    """
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    if family == RECTILINEAR:
        value = closed_form_ratio_I2
    elif family == METRIC:
        value = closed_form_ratio_metric
    else:
        raise ValueError(f"unknown family {family!r}")
    m = n - 6
    best: tuple[float, IJK] | None = None
    for i in range(m + 1):
        for j in range(m - i + 1):
            p = IJK(i, j, m - i - j)
            v = value(p)
            if best is None or v > best[0] + 1e-15:
                best = (v, p)
    return best[1]


# ---------------------------------------------------------------------------
# Pseudo-tours: closed spanning walks with edge multiplicities 1 or 2.
# Three "gap" families (one path double-covered except one missing edge) and
# six "anchor" tours (one path double-covered, both extra connectors at one
# of its two end triangles).
# ---------------------------------------------------------------------------

# One row per tag: the line it double-covers (an index into IJK.lines), its
# anchor end (0 left, -1 right; None for a gap tag) and its shortcut order
# over the lines X, Y, Z and the gap index l.  Each order skips repeated
# vertices so that every skipping jump is monotone, wasting no length under
# the 1-norm; a greedy first-occurrence skip does not (on the gap families it
# must enter one stub tip-first).
_TAGS = {
    "top_gap": (2, None, lambda X, Y, Z, l: X + Z[:l:-1] + Y[::-1] + Z[l::-1]),
    "middle_gap": (1, None, lambda X, Y, Z, l: X + Y[:l:-1] + Z[::-1] + Y[: l + 1]),
    "bottom_gap": (0, None, lambda X, Y, Z, l: X[:1] + Z + X[:l:-1] + Y[::-1] + X[l:0:-1]),
    "top_left": (2, 0, lambda X, Y, Z, l: X[:1] + Z + Y + X[:0:-1]),
    "top_right": (2, -1, lambda X, Y, Z, l: X + Z[::-1] + Y[::-1]),
    "middle_left": (1, 0, lambda X, Y, Z, l: X + Z[::-1] + Y),
    "middle_right": (1, -1, lambda X, Y, Z, l: X + Y[::-1] + Z[::-1]),
    "bottom_left": (0, 0, lambda X, Y, Z, l: X + Y + Z[::-1]),
    "bottom_right": (0, -1, lambda X, Y, Z, l: X + Z[::-1] + Y),
}
GAP_TAGS = tuple(tag for tag, (_, end, _) in _TAGS.items() if end is None)
ANCHOR_TAGS = tuple(tag for tag, (_, end, _) in _TAGS.items() if end is not None)


@dataclass(frozen=True, eq=False)
class PseudoTour:
    """Edge multiset of one family member.

    tag is one of GAP_TAGS (with index = the skipped edge position along the
    doubled line) or ANCHOR_TAGS (index None).  line is the member's doubled
    line in IJK.lines (bottom 0, middle 1, top 2).  edges holds each edge's
    multiplicity (0, 1 or 2) in edge order, read-only.
    """

    tag: str
    index: int | None
    ijk: IJK
    edges: np.ndarray

    @property
    def name(self) -> str:
        return self.tag if self.index is None else f"{self.tag}[{self.index}]"

    @property
    def line(self) -> int:
        return _TAGS[self.tag][0]


def pseudo_tour(p: IJK, tag: str, index: int | None = None) -> PseudoTour:
    """The family member named by tag and, for a gap tag, by the skipped
    edge's position along the doubled line (0..len(line) - 2)."""
    if tag not in _TAGS:
        raise ValueError(f"unknown pseudo-tour tag {tag!r}")
    doubled, end, _ = _TAGS[tag]
    lines = p.lines
    if index not in (range(len(lines[doubled]) - 1) if end is None else (None,)):
        raise ValueError(f"no pseudo-tour {tag!r} with index {index!r} on {p}")
    counts = np.zeros(p.n * (p.n - 1) // 2, dtype=int)
    for a, line in enumerate(lines):
        for u, v in zip(line, line[1:]):
            counts[edge_position(p.n, u, v)] = 2 if a == doubled else 1
    # Gap members join the doubled line to the two others at both end
    # triangles.  An anchor makes both joins at its own end only, and ties the
    # far end with the single remaining cross edge between the other two lines.
    if end is None:
        counts[edge_position(p.n, lines[doubled][index], lines[doubled][index + 1])] = 0
        corners = [(pair, e) for pair in _PAIRS if doubled in pair for e in (0, -1)]
    else:
        corners = [(pair, end if doubled in pair else -1 - end) for pair in _PAIRS]
    for (a, b), e in corners:
        counts[edge_position(p.n, lines[a][e], lines[b][e])] = 1
    counts.setflags(write=False)
    return PseudoTour(tag, index, p, counts)


def pseudo_tours(p: IJK) -> list[PseudoTour]:
    """All (k+1) + (j+1) + (i+1) + 6 pseudo-tours of the family, in _TAGS order."""
    lines = p.lines
    return [
        pseudo_tour(p, tag, index)
        for tag, (doubled, end, _) in _TAGS.items()
        for index in (range(len(lines[doubled]) - 1) if end is None else (None,))
    ]


def shortcut_tour(pt: PseudoTour, inst: Instance) -> Tour:
    """The non-intersecting shortcut of a pseudo-tour, by its tag's order."""
    p = pt.ijk
    if inst.n != p.n:
        raise ValueError(f"pseudo-tour on {p.n} vertices, instance has {inst.n}")
    if pt.tag not in _TAGS:
        raise ValueError(f"unknown pseudo-tour tag {pt.tag!r}")
    return Tour(_TAGS[pt.tag][2](*p.lines, pt.index))


def metric_maximum_ratio(n: int) -> float:
    """Closed-form maximum of the metric ratio over all triples at size n,
    by the mod-3 case split."""
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    if n % 3 == 0:
        return 1.0 + 1.0 / (3.0 + 18.0 / (n - 3))
    if n % 3 == 1:
        return 1.0 + 1.0 / (3.0 + 2.0 * (6.0 / (n - 4) + 3.0 / (n - 1)))
    return 1.0 + 1.0 / (3.0 + 2.0 * (3.0 / (n - 5) + 6.0 / (n - 2)))
