"""Subdivided planar graphs and the T-join lower bound on their limiting
integrality ratio: equilateral-triangle-with-center and hexagon-field
generators, plus the (cost(E) + cost(J)) / cost(E) bound where J is a
minimum T-join of the odd-degree base vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import Instance, NormSpec

# Exhaustive-matching cap: 2^m subset DP over the odd base vertices.
# 18 keeps the 3x3 hexagon field (16 odd vertices) in reach while staying
# well under a second.
ODD_VERTEX_CAP = 18

_GEOM_EPS = 1e-9


@dataclass(frozen=True)
class SubdividedGraphSpec:
    """A straight-line embedded 2-edge-connected graph with per-edge
    subdivision counts.

    Validation rejects disconnected or bridged graphs and any pair of
    edges that cross or overlap away from a shared endpoint.
    """

    vertices: tuple[tuple[float, float], ...]
    edges: tuple[tuple[int, int], ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        m = len(verts)
        if m < 3:
            raise ValueError(f"need at least 3 base vertices, got {m}")
        for x, y in verts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("non-finite base coordinate")
        edges = []
        seen = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v or not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"bad base edge ({u}, {v})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate base edge ({u}, {v})")
            seen.add((u, v))
            edges.append((u, v))
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != len(edges):
            raise ValueError(f"{len(counts)} counts for {len(edges)} edges")
        if any(c < 0 for c in counts):
            raise ValueError("negative subdivision count")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "counts", counts)
        self._check_two_edge_connected()
        self._check_no_crossings()

    # -- validation helpers ------------------------------------------------

    def _adjacency(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return adj

    def _check_two_edge_connected(self) -> None:
        m = len(self.vertices)
        adj = self._adjacency()
        # Bridges via iterative lowlink DFS from vertex 0.
        disc = [-1] * m
        low = [0] * m
        timer = 0
        stack: list[tuple[int, int, int]] = [(0, -1, 0)]  # vertex, incoming edge, child ptr
        order: list[tuple[int, int]] = []
        while stack:
            u, pedge, ptr = stack.pop()
            if ptr == 0:
                disc[u] = low[u] = timer
                timer += 1
                order.append((u, pedge))
            if ptr < len(adj[u]):
                stack.append((u, pedge, ptr + 1))
                v, eidx = adj[u][ptr]
                if eidx == pedge:
                    continue
                if disc[v] == -1:
                    stack.append((v, eidx, 0))
                else:
                    low[u] = min(low[u], disc[v])
        if -1 in disc:
            raise ValueError("base graph is disconnected")
        # Fold lowlinks back up in reverse discovery order.
        for u, pe in reversed(order):
            if pe == -1:
                continue
            a, b = self.edges[pe]
            par = a if disc[a] < disc[b] else b
            low[par] = min(low[par], low[u])
            if low[u] > disc[par]:
                raise ValueError(f"base graph has a bridge at edge {self.edges[pe]}")

    def _check_no_crossings(self) -> None:
        pts = self.vertices
        for a in range(len(self.edges)):
            for b in range(a + 1, len(self.edges)):
                e, f = self.edges[a], self.edges[b]
                shared = set(e) & set(f)
                if len(shared) == 2:
                    raise ValueError(f"edges {e} and {f} coincide")
                p1, p2 = pts[e[0]], pts[e[1]]
                q1, q2 = pts[f[0]], pts[f[1]]
                if len(shared) == 1:
                    s = shared.pop()
                    o = pts[s]
                    pother = pts[e[0] if e[1] == s else e[1]]
                    qother = pts[f[0] if f[1] == s else f[1]]
                    du = (pother[0] - o[0], pother[1] - o[1])
                    dv = (qother[0] - o[0], qother[1] - o[1])
                    cross = du[0] * dv[1] - du[1] * dv[0]
                    dot = du[0] * dv[0] + du[1] * dv[1]
                    if abs(cross) <= _GEOM_EPS and dot > 0:
                        raise ValueError(f"edges {e} and {f} overlap at vertex {s}")
                    continue
                if _segments_intersect(p1, p2, q1, q2):
                    raise ValueError(f"edges {e} and {f} cross")

    # -- derived quantities ------------------------------------------------

    def edge_lengths(self) -> list[float]:
        pts = self.vertices
        return [math.dist(pts[u], pts[v]) for u, v in self.edges]

    def degrees(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def odd_vertices(self) -> list[int]:
        return [v for v, d in enumerate(self.degrees()) if d % 2 == 1]


def _orient(a: tuple[float, float], b: tuple[float, float], c: tuple[float, float]) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c) -> bool:
    """c collinear-with and inside segment ab (endpoints included)."""
    if abs(_orient(a, b, c)) > _GEOM_EPS:
        return False
    return (
        min(a[0], b[0]) - _GEOM_EPS <= c[0] <= max(a[0], b[0]) + _GEOM_EPS
        and min(a[1], b[1]) - _GEOM_EPS <= c[1] <= max(a[1], b[1]) + _GEOM_EPS
    )


def _segments_intersect(p1, p2, q1, q2) -> bool:
    o1, o2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    o3, o4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    if ((o1 > _GEOM_EPS) != (o2 > _GEOM_EPS)) and ((o3 > _GEOM_EPS) != (o4 > _GEOM_EPS)) and (
        abs(o1) > _GEOM_EPS or abs(o2) > _GEOM_EPS
    ) and (abs(o3) > _GEOM_EPS or abs(o4) > _GEOM_EPS):
        return True
    return (
        _on_segment(p1, p2, q1)
        or _on_segment(p1, p2, q2)
        or _on_segment(q1, q2, p1)
        or _on_segment(q1, q2, p2)
    )


def gen_subdivided(spec: SubdividedGraphSpec) -> Instance:
    """Instance of base vertices plus equidistant interior points per edge,
    under the Euclidean norm.  Labels name the originating vertex or edge."""
    pts: list[tuple[float, float]] = list(spec.vertices)
    labels = [f"v{i}" for i in range(len(spec.vertices))]
    for idx, ((u, v), count) in enumerate(zip(spec.edges, spec.counts)):
        (x0, y0), (x1, y1) = spec.vertices[u], spec.vertices[v]
        for t in range(1, count + 1):
            frac = t / (count + 1)
            pts.append((x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)))
            labels.append(f"e{u}-{v}.{t}")
    return Instance(pts, NormSpec(2.0), labels=labels)


def _shortest_paths(spec: SubdividedGraphSpec) -> np.ndarray:
    m = len(spec.vertices)
    D = np.full((m, m), np.inf)
    np.fill_diagonal(D, 0.0)
    for (u, v), L in zip(spec.edges, spec.edge_lengths()):
        D[u, v] = min(D[u, v], L)
        D[v, u] = D[u, v]
    for t in range(m):
        D = np.minimum(D, D[:, t : t + 1] + D[t : t + 1, :])
    return D


def _min_matching(W: np.ndarray) -> float:
    """Minimum-weight perfect matching by subset DP; len(W) must be even."""
    m = len(W)
    if m == 0:
        return 0.0
    full = (1 << m) - 1
    f = np.full(full + 1, np.inf)
    f[0] = 0.0
    for S in range(1, full + 1):
        i = (S & -S).bit_length() - 1  # lowest member pairs first
        if not S >> i & 1:
            continue
        rest = S ^ (1 << i)
        if rest == 0:
            continue
        best = np.inf
        T = rest
        while T:
            j = (T & -T).bit_length() - 1
            T ^= 1 << j
            cand = f[rest ^ (1 << j)] + W[i, j]
            if cand < best:
                best = cand
        f[S] = best
    return float(f[full])


def tjoin_ratio_bound(spec: SubdividedGraphSpec) -> float:
    """(cost(E) + cost(J)) / cost(E) with J a minimum T-join of the odd
    base vertices; this lower-bounds the limiting ratio under refinement.

    The T-join is computed as a minimum-weight perfect matching of the odd
    vertices under shortest-path distances, by exhaustive subset DP.
    """
    odd = spec.odd_vertices()
    if len(odd) > ODD_VERTEX_CAP:
        raise ValueError(f"{len(odd)} odd vertices exceeds matching cap {ODD_VERTEX_CAP}")
    # cumsum adds in edge order, one term at a time, on every Python.
    total = float(np.cumsum(spec.edge_lengths())[-1])
    if not odd:
        return 1.0
    D = _shortest_paths(spec)
    W = D[np.ix_(odd, odd)]
    return (total + _min_matching(W)) / total


# -- concrete generators ---------------------------------------------------


def tetrahedron_spec(a: int = 0, b: int = 0) -> SubdividedGraphSpec:
    """Unit equilateral triangle with its center, sides subdivided by a,
    center spokes by b: 4 + 3a + 3b points."""
    if a < 0 or b < 0:
        raise ValueError("subdivision counts must be nonnegative")
    h = math.sqrt(3.0) / 2.0
    verts = ((0.0, 0.0), (1.0, 0.0), (0.5, h), (0.5, h / 3.0))
    edges = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))
    return SubdividedGraphSpec(verts, edges, (a, a, a, b, b, b))


def hexagon_spec(rows: int, cols: int, k: int = 0) -> SubdividedGraphSpec:
    """rows x cols field of unit-side pointy-top hexagons, every edge
    subdivided by k.  Offset rows; shared cell walls deduplicated."""
    if rows < 1 or cols < 1:
        raise ValueError("need rows, cols >= 1")
    if k < 0:
        raise ValueError("subdivision count must be nonnegative")
    sqrt3 = math.sqrt(3.0)
    key_to_idx: dict[tuple[float, float], int] = {}
    verts: list[tuple[float, float]] = []
    edges: set[tuple[int, int]] = set()

    def vertex(x: float, y: float) -> int:
        key = (round(x, 9), round(y, 9))
        if key not in key_to_idx:
            key_to_idx[key] = len(verts)
            verts.append(key)
        return key_to_idx[key]

    for r in range(rows):
        for c in range(cols):
            cx = sqrt3 * c + (sqrt3 / 2.0 if r % 2 else 0.0)
            cy = 1.5 * r
            corner_ids = [
                vertex(cx + math.cos(math.pi / 6 + t * math.pi / 3), cy + math.sin(math.pi / 6 + t * math.pi / 3))
                for t in range(6)
            ]
            for t in range(6):
                u, v = corner_ids[t], corner_ids[(t + 1) % 6]
                edges.add((min(u, v), max(u, v)))
    edge_list = tuple(sorted(edges))
    return SubdividedGraphSpec(tuple(verts), edge_list, (k,) * len(edge_list))
