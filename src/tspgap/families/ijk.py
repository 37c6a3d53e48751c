"""The three-path instance families: canonical fractional tours, rectilinear
plane and space embeddings, the pseudo-tour family with its shortcuts, and
the closed-form optima/ratios.

Family layout: three vertex paths (bottom X_0..X_{i+1}, middle Y_0..Y_{j+1},
top Z_0..Z_{k+1}) carrying weight-1 edges, glued by two weight-1/2 triangles
at the left and right path ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        for name, v in (("i", self.i), ("j", self.j), ("k", self.k)):
            if int(v) != v or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        object.__setattr__(self, "i", int(self.i))
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "k", int(self.k))

    @property
    def n(self) -> int:
        return self.i + self.j + self.k + 6


@dataclass(frozen=True)
class LabeledVertexSet:
    """Index bookkeeping: X_0..X_{i+1}, then Y_0..Y_{j+1}, then Z_0..Z_{k+1}."""

    ijk: IJK

    def x(self, s: int) -> int:
        if not 0 <= s <= self.ijk.i + 1:
            raise IndexError(f"X_{s} out of range")
        return s

    def y(self, s: int) -> int:
        if not 0 <= s <= self.ijk.j + 1:
            raise IndexError(f"Y_{s} out of range")
        return self.ijk.i + 2 + s

    def z(self, s: int) -> int:
        if not 0 <= s <= self.ijk.k + 1:
            raise IndexError(f"Z_{s} out of range")
        return self.ijk.i + self.ijk.j + 4 + s

    @property
    def labels(self) -> tuple[str, ...]:
        p = self.ijk
        return tuple(
            [f"X{s}" for s in range(p.i + 2)]
            + [f"Y{s}" for s in range(p.j + 2)]
            + [f"Z{s}" for s in range(p.k + 2)]
        )


def labeled_vertices(p: IJK) -> LabeledVertexSet:
    return LabeledVertexSet(p)


def fractional_xijk(p: IJK) -> EdgeWeightVector:
    """The canonical fractional tour: 1 along each path, 1/2 on the two
    end triangles.  Every vertex gets fractional degree exactly 2."""
    lv = LabeledVertexSet(p)
    paths = [(a, b) for line in "XYZ" for a, b in _line_edges(lv, line)]
    halves = _triangle_edges(lv)
    return EdgeWeightVector.from_pairs(p.n, [(e, 1.0) for e in paths] + [(e, 0.5) for e in halves])


def _triangle_edges(lv: LabeledVertexSet) -> list[tuple[int, int]]:
    p = lv.ijk
    left = [(lv.x(0), lv.y(0)), (lv.x(0), lv.z(0)), (lv.y(0), lv.z(0))]
    right = [
        (lv.x(p.i + 1), lv.y(p.j + 1)),
        (lv.x(p.i + 1), lv.z(p.k + 1)),
        (lv.y(p.j + 1), lv.z(p.k + 1)),
    ]
    return left + right


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
    return Instance(pts, NormSpec(1.0), labels=labeled_vertices(p).labels)


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
    return Instance(pts, NormSpec(1.0), labels=labeled_vertices(p).labels)


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


@dataclass(frozen=True)
class GeneralizedRatios:
    """Closed-form summary for one parameter triple."""

    i: int
    j: int
    k: int
    rect_ratio: float
    metric_ratio: float
    opt_len_I2: float
    lp_cost_I2: float


def family_ratios(p: IJK) -> GeneralizedRatios:
    return GeneralizedRatios(
        p.i,
        p.j,
        p.k,
        rect_ratio=closed_form_ratio_I2(p),
        metric_ratio=closed_form_ratio_metric(p),
        opt_len_I2=closed_form_opt_I2(p),
        lp_cost_I2=closed_form_lp_I2(p),
    )


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

GAP_TAGS = ("top_gap", "middle_gap", "bottom_gap")
ANCHOR_TAGS = (
    "top_left",
    "top_right",
    "middle_left",
    "middle_right",
    "bottom_left",
    "bottom_right",
)


@dataclass(frozen=True, eq=False)
class PseudoTour:
    """Edge multiset of one family member.

    tag is one of GAP_TAGS (with index = the skipped edge position) or
    ANCHOR_TAGS (index None).  edges holds each edge's multiplicity (0, 1
    or 2) in edge order, read-only.
    """

    tag: str
    index: int | None
    ijk: IJK
    edges: np.ndarray

    @property
    def name(self) -> str:
        return self.tag if self.index is None else f"{self.tag}[{self.index}]"


def _line_indices(lv: LabeledVertexSet, line: str) -> list[int]:
    p = lv.ijk
    if line == "X":
        return [lv.x(s) for s in range(p.i + 2)]
    if line == "Y":
        return [lv.y(s) for s in range(p.j + 2)]
    return [lv.z(s) for s in range(p.k + 2)]


def _line_edges(lv: LabeledVertexSet, line: str) -> list[tuple[int, int]]:
    idx = _line_indices(lv, line)
    return list(zip(idx, idx[1:]))


def _corner(lv: LabeledVertexSet, pair: str, side: str) -> tuple[int, int]:
    """Triangle edge by line pair ("XY", "XZ", "YZ") and side ("L", "R")."""
    p = lv.ijk
    ends = {
        "L": {"X": lv.x(0), "Y": lv.y(0), "Z": lv.z(0)},
        "R": {"X": lv.x(p.i + 1), "Y": lv.y(p.j + 1), "Z": lv.z(p.k + 1)},
    }[side]
    return ends[pair[0]], ends[pair[1]]


def _pseudo_tour(lv: LabeledVertexSet, tag: str, index: int | None) -> PseudoTour:
    p = lv.ijk
    doubled_line = {"top": "Z", "middle": "Y", "bottom": "X"}[tag.split("_")[0]]
    counts = np.zeros(p.n * (p.n - 1) // 2, dtype=int)

    def add(e: tuple[int, int], mult: int = 1) -> None:
        counts[edge_position(p.n, *e)] += mult

    for line in "XYZ":
        for e in _line_edges(lv, line):
            add(e, 2 if line == doubled_line else 1)

    if tag.endswith("_gap"):
        counts[edge_position(p.n, *_line_edges(lv, doubled_line)[index])] = 0
        # Both end triangles connect the doubled line to the two others.
        pairs = {"X": ("XY", "XZ"), "Y": ("XY", "YZ"), "Z": ("XZ", "YZ")}[doubled_line]
        for pair in pairs:
            add(_corner(lv, pair, "L"))
            add(_corner(lv, pair, "R"))
    else:
        # Anchor side gets both of its triangle edges; the far side is tied
        # with the single remaining cross edge between the other two lines.
        side = "L" if tag.endswith("_left") else "R"
        far = "R" if side == "L" else "L"
        pairs = {"X": ("XY", "XZ"), "Y": ("XY", "YZ"), "Z": ("XZ", "YZ")}[doubled_line]
        for pair in pairs:
            add(_corner(lv, pair, side))
        other_pair = ({"XY", "XZ", "YZ"} - set(pairs)).pop()
        add(_corner(lv, other_pair, far))

    counts.setflags(write=False)
    return PseudoTour(tag, index, p, counts)


def pseudo_tours(p: IJK) -> list[PseudoTour]:
    """All (k+1) + (j+1) + (i+1) + 6 pseudo-tours of the family."""
    lv = LabeledVertexSet(p)
    out: list[PseudoTour] = []
    for l in range(p.k + 1):
        out.append(_pseudo_tour(lv, "top_gap", l))
    for l in range(p.j + 1):
        out.append(_pseudo_tour(lv, "middle_gap", l))
    for l in range(p.i + 1):
        out.append(_pseudo_tour(lv, "bottom_gap", l))
    for tag in ANCHOR_TAGS:
        out.append(_pseudo_tour(lv, tag, None))
    return out


def shortcut_tour(pt: PseudoTour, inst: Instance) -> Tour:
    """The non-intersecting shortcut of a pseudo-tour.

    Each family member has one canonical plane shortcut: traverse the walk
    and skip repeated vertices in the order that keeps every skipping jump
    monotone, so no length is wasted under the 1-norm.  A greedy
    first-occurrence skip does not do this (on the gap families it must
    enter one stub tip-first), hence the explicit per-family orders below.
    """
    p = pt.ijk
    if inst.n != p.n:
        raise ValueError(f"pseudo-tour on {p.n} vertices, instance has {inst.n}")
    lv = LabeledVertexSet(p)
    X = _line_indices(lv, "X")
    Y = _line_indices(lv, "Y")
    Z = _line_indices(lv, "Z")
    l = pt.index
    tag = pt.tag
    if tag == "top_gap":
        order = X + Z[: l : -1] + Y[::-1] + Z[l::-1]
    elif tag == "middle_gap":
        order = X + Y[: l : -1] + Z[::-1] + Y[: l + 1]
    elif tag == "bottom_gap":
        order = [X[0]] + Z + X[: l : -1] + Y[::-1] + X[l:0:-1]
    elif tag == "top_left":
        order = [X[0]] + Z + Y + X[:0:-1]
    elif tag == "top_right":
        order = X + Z[::-1] + Y[::-1]
    elif tag == "middle_left" or tag == "bottom_right":
        order = X + Z[::-1] + Y
    elif tag == "middle_right":
        order = X + Y[::-1] + Z[::-1]
    elif tag == "bottom_left":
        order = X + Y + Z[::-1]
    else:
        raise ValueError(f"unknown pseudo-tour tag {tag!r}")
    return Tour(order)


@lru_cache(maxsize=None)
def _theorem_partition_ratio(n: int) -> float:
    """Maximal metric ratio at a given n by the mod-3 case split."""
    if n % 3 == 0:
        return 1.0 + 1.0 / (3.0 + 18.0 / (n - 3))
    if n % 3 == 1:
        return 1.0 + 1.0 / (3.0 + 2.0 * (6.0 / (n - 4) + 3.0 / (n - 1)))
    return 1.0 + 1.0 / (3.0 + 2.0 * (3.0 / (n - 5) + 6.0 / (n - 2)))


def metric_maximum_ratio(n: int) -> float:
    """Closed-form maximum of the metric ratio over all triples at size n."""
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    return _theorem_partition_ratio(n)
