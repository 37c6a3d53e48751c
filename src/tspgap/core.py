"""Shared value types: p-norm instances, tours, and fractional edge vectors.

Everything here is an immutable value object validated at construction time.
All arithmetic is plain float64; comparison tolerances live with the callers.

An edge vector on n vertices is one array with a value per edge of K_n, in
edge order: the pairs u < v row by row over the upper triangle, (0, 1),
(0, 2), ..., (0, n-1), (1, 2), ..., (n-2, n-1), as `edge_index(n)` lists
them.  The subtour LP's columns, `EdgeWeightVector` and pseudo-tour edge
multiplicities all use it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# Pairs closer than this are treated as coincident and rejected.
COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class NormSpec:
    """A p-norm on R^d, p >= 1.  p=1 is rectilinear, p=2 Euclidean."""

    p: float = 2.0

    def __post_init__(self) -> None:
        p = float(self.p)
        if not np.isfinite(p) or p < 1.0:
            raise ValueError(f"p-norm requires finite p >= 1, got {self.p!r}")
        object.__setattr__(self, "p", p)


def _row_norms(diff: np.ndarray, p: float) -> np.ndarray:
    """The p-norm of each row of a 2-D array of coordinate differences.

    This is the one edge length behind `Instance.dist`, `edge_costs` (so
    every LP cost) and `tour_length`.  Each row has the bits of the scalar
    norm of that row alone, which the tests keep as the oracle.  p = 2 takes each row's dot product through matmul, which reaches the
    same BLAS `ddot` as `np.dot` (a row sum of squares or einsum would
    round differently).  Other p take each root as a float pow, since
    numpy's array power may take a SIMD path whose last bits differ.
    `Instance.distance_matrix` rounds differently and is a separate path.
    """
    a = np.abs(diff)
    if p == 1.0:
        return a.sum(axis=1)
    if p == 2.0:
        return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    return np.array([s ** (1.0 / p) for s in (a**p).sum(axis=1).tolist()])


def _norm(diff: np.ndarray, p: float) -> float:
    return float(_row_norms(diff[None, :], p)[0])


def distance(norm: NormSpec, u: Sequence[float], v: Sequence[float]) -> float:
    """Distance between two points under the given norm."""
    return _norm(np.asarray(u, dtype=float) - np.asarray(v, dtype=float), norm.p)


class Instance:
    """n points in R^d together with the norm used to measure edges.

    Rejects n < 3, coincident points, non-finite coordinates, and duplicate
    labels.  The coordinate array is frozen after construction.
    """

    __slots__ = ("points", "norm", "labels", "_costs")

    def __init__(
        self,
        points: Sequence[Sequence[float]] | np.ndarray,
        norm: NormSpec = NormSpec(2.0),
        labels: Sequence[str] | None = None,
    ):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
        n, d = pts.shape
        if n < 3:
            raise ValueError(f"instance needs at least 3 points, got {n}")
        if d < 1:
            raise ValueError("points need at least one coordinate")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite coordinate in instance")
        # Max-abs gap of every pair in edge order: O(n^2) time and memory,
        # fine at the solvable sizes (n <= a few hundred).  The pair named is
        # the first coincident point i and its closest later point j.
        iu, iv = edge_index(n)
        gaps = np.abs(pts[iu] - pts[iv]).max(axis=1)
        close = gaps <= COINCIDENT_TOL
        if close.any():
            i = int(iu[close.argmax()])
            first = edge_position(n, i, i + 1)
            j = i + 1 + int(gaps[first : first + n - 1 - i].argmin())
            raise ValueError(f"coincident points {i} and {j}")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} points")
            if len(set(labels)) != n:
                raise ValueError("duplicate labels")
        pts.setflags(write=False)
        self.points = pts
        self.norm = norm
        self.labels = labels
        self._costs: np.ndarray | None = None  # edge_costs(self), once asked for

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def dist(self, i: int, j: int) -> float:
        return _norm(self.points[i] - self.points[j], self.norm.p)

    def distance_matrix(self) -> np.ndarray:
        """Full symmetric (n, n) distance matrix, zero diagonal."""
        diff = np.abs(self.points[:, None, :] - self.points[None, :, :])
        p = self.norm.p
        if p == 1.0:
            return diff.sum(axis=2)
        if p == 2.0:
            return np.sqrt((diff * diff).sum(axis=2))
        return (diff**p).sum(axis=2) ** (1.0 / p)

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, d={self.dim}, p={self.norm.p})"


class Tour:
    """Hamiltonian cycle stored in canonical form.

    Canonical form: rotated so vertex order starts at the smallest index,
    reflected so the second entry is smaller than the last.  Two sequences
    describing the same cycle therefore compare equal.
    """

    __slots__ = ("order",)

    def __init__(self, order: Sequence[int]):
        seq = tuple(map(int, order))
        n = len(seq)
        if n < 3:
            raise ValueError(f"tour needs at least 3 vertices, got {n}")
        if sorted(seq) != list(range(n)):
            raise ValueError("tour is not a permutation of 0..n-1")
        k = seq.index(min(seq))
        seq = seq[k:] + seq[:k]
        if seq[1] > seq[-1]:
            seq = (seq[0],) + tuple(reversed(seq[1:]))
        self.order = seq

    @property
    def n(self) -> int:
        return len(self.order)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tour) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"Tour{self.order}"


@functools.lru_cache(maxsize=64)
def edge_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(iu, iv): the endpoints u < v of the n(n-1)/2 edges of K_n in edge
    order.  Cached; both arrays are read-only."""
    iu, iv = np.triu_indices(n, 1)
    iu.setflags(write=False)
    iv.setflags(write=False)
    return iu, iv


@functools.lru_cache(maxsize=64)
def _edge_ends(n: int) -> np.ndarray:
    """Both endpoints of each edge in edge order, u then v: the bins
    `degree_vector` adds into.  Cached; read-only."""
    ends = np.column_stack(edge_index(n)).ravel()
    ends.setflags(write=False)
    return ends


def edge_position(n: int, u, v):
    """Position in edge order of the edge (u, v) with u < v; u and v may
    be equal-length integer arrays."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


def edge_costs(inst: Instance, edges: np.ndarray | None = None) -> np.ndarray:
    """inst.dist(u, v) for the edges at the given positions (all edges by
    default), in the order given.  The all-edges vector is computed once per
    instance and kept on it, read-only, so a search state's vertex-table
    screen and its subtour LP share it."""
    iu, iv = edge_index(inst.n)
    if edges is not None:
        return _row_norms(inst.points[iu[edges]] - inst.points[iv[edges]], inst.norm.p)
    if inst._costs is None:
        costs = _row_norms(inst.points[iu] - inst.points[iv], inst.norm.p)
        costs.setflags(write=False)
        inst._costs = costs
    return inst._costs


class EdgeWeightVector:
    """Edge weights in [0, 1] on n vertices, one per edge in edge order.

    Values within 1e-9 outside [0, 1] (LP round-off) are clamped, anything
    further out raises, and values at or below 1e-12 are stored as 0.  The
    `values` array is read-only.
    """

    __slots__ = ("n", "values")

    _BOUND_TOL = 1e-9
    _DROP_TOL = 1e-12

    def __init__(self, n: int, values: Sequence[float] | np.ndarray):
        n = int(n)
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        vals = np.array(values, dtype=float)
        if vals.shape != (n * (n - 1) // 2,):
            raise ValueError(f"{n} vertices need {n * (n - 1) // 2} edge values, got shape {vals.shape}")
        bad = ~((vals >= -self._BOUND_TOL) & (vals <= 1.0 + self._BOUND_TOL))
        if bad.any():
            k = int(bad.argmax())
            iu, iv = edge_index(n)
            raise ValueError(f"weight {vals[k]} on edge ({iu[k]}, {iv[k]}) outside [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)
        vals[vals <= self._DROP_TOL] = 0.0
        vals.setflags(write=False)
        self.n = n
        self.values = vals

    @classmethod
    def from_pairs(
        cls, n: int, weights: Mapping[tuple[int, int], float] | Iterable[tuple[tuple[int, int], float]]
    ) -> "EdgeWeightVector":
        """Build from {(u, v): w} or ((u, v), w) pairs; each edge at most once,
        in either orientation."""
        n = int(n)
        values = np.zeros(n * (n - 1) // 2)
        given = np.zeros(values.shape, dtype=bool)
        for (u, v), w in weights.items() if isinstance(weights, Mapping) else weights:
            u, v = sorted((int(u), int(v)))
            if u == v:
                raise ValueError(f"self-loop edge ({u}, {v})")
            if u < 0:
                raise ValueError(f"negative vertex index in edge ({u}, {v})")
            if v >= n:
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            k = edge_position(n, u, v)
            if given[k]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            given[k] = True
            values[k] = w
        return cls(n, values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeWeightVector)
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"EdgeWeightVector(n={self.n}, {np.count_nonzero(self.values)} edges)"


def ordered_sum(values: Sequence[float] | np.ndarray) -> float:
    """The float sum of values added one at a time in the order given, 0.0
    for none.  np.sum would reassociate, and Python >= 3.12's builtin sum
    compensates, so every order-sensitive sum in the package comes here."""
    totals = np.cumsum(values)
    return float(totals[-1]) if totals.size else 0.0


def tour_length(inst: Instance, tour: Tour) -> float:
    if tour.n != inst.n:
        raise ValueError(f"tour on {tour.n} vertices, instance has {inst.n}")
    order = np.array(tour.order)
    return ordered_sum(_row_norms(inst.points[order] - inst.points[np.roll(order, -1)], inst.norm.p))


def fractional_cost(inst: Instance, x: EdgeWeightVector) -> float:
    """Weighted edge cost sum(x_e * c_e) of a fractional tour vector, in edge order."""
    if x.n != inst.n:
        raise ValueError(f"vector on {x.n} vertices, instance has {inst.n}")
    support = np.flatnonzero(x.values)
    return ordered_sum(x.values[support] * edge_costs(inst, support))


def components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The vertex sets of the connected components of the graph on 0..n-1
    with the given edges: each ascending, ordered by least vertex."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp, stack = [], [s]
        while stack:
            u = stack.pop()
            if not seen[u]:
                seen[u] = True
                comp.append(u)
                stack.extend(adj[u])
        comps.append(sorted(comp))
    return comps


def degree_vector(x: EdgeWeightVector) -> np.ndarray:
    """Fractional degree sum(x_e, e incident to v) for each vertex."""
    # bincount adds in input order: each edge's weight to u, then to v.
    return np.bincount(_edge_ends(x.n), np.repeat(x.values, 2), minlength=x.n)
