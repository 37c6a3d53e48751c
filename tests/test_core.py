"""Value-object behavior: norms, instances, tours, fractional edge vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspgap import core
from tspgap.core import (
    COINCIDENT_TOL,
    EdgeWeightVector,
    Instance,
    NormSpec,
    Tour,
    components,
    degree_vector,
    distance,
    edge_costs,
    edge_index,
    edge_position,
    fractional_cost,
    tour_length,
)


def test_norm_spec_rejects_bad_p():
    with pytest.raises(ValueError):
        NormSpec(0.5)
    with pytest.raises(ValueError):
        NormSpec(float("nan"))
    with pytest.raises(ValueError):
        NormSpec(float("inf"))


def test_distance_p1_p2_p3():
    u, v = (0.0, 0.0), (3.0, 4.0)
    assert distance(NormSpec(1.0), u, v) == 7.0
    assert distance(NormSpec(2.0), u, v) == 5.0
    # (3^3 + 4^3)^(1/3) = 91^(1/3)
    assert distance(NormSpec(3.0), u, v) == pytest.approx(91.0 ** (1.0 / 3.0), rel=1e-15)


def _edges(x):
    iu, iv = edge_index(x.n)
    support = np.flatnonzero(x.values)
    return list(zip(iu[support].tolist(), iv[support].tolist()))


def test_edge_normalizes_and_rejects():
    x = EdgeWeightVector.from_pairs(6, {(5, 2): 1.0})
    assert _edges(x) == [(2, 5)]
    assert x.values[edge_position(6, 2, 5)] == 1.0
    with pytest.raises(ValueError, match="self-loop"):
        EdgeWeightVector.from_pairs(4, {(3, 3): 1.0})
    with pytest.raises(ValueError, match="negative"):
        EdgeWeightVector.from_pairs(4, {(-1, 2): 1.0})
    with pytest.raises(ValueError, match="outside vertex range"):
        EdgeWeightVector.from_pairs(4, {(1, 4): 1.0})


def test_edge_index_order_and_positions():
    iu, iv = edge_index(5)
    assert list(zip(iu.tolist(), iv.tolist())) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert edge_index(5) is edge_index(5)
    # degree_vector's bins: each edge's u, then its v.
    ends = core._edge_ends(5)
    assert core._edge_ends(5) is ends
    assert ends.tolist() == [w for pair in zip(iu.tolist(), iv.tolist()) for w in pair]
    for arr in (iu, iv, ends):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    for n in (3, 4, 9, 20):
        iu, iv = edge_index(n)
        k = np.arange(len(iu))
        assert np.array_equal(edge_position(n, iu, iv), k)
        assert [edge_position(n, int(a), int(b)) for a, b in zip(iu, iv)] == k.tolist()


def test_instance_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Instance([(0, 0), (1, 1)])  # n < 3
    with pytest.raises(ValueError):
        Instance([(0, 0), (1, 1), (1, 1)])  # coincident
    with pytest.raises(ValueError):
        Instance([(0, 0), (1, 1), (float("nan"), 0)])
    with pytest.raises(ValueError):
        Instance([(0, 0), (1, 1), (2, 2)], labels=["a", "b"])
    with pytest.raises(ValueError):
        Instance([(0, 0), (1, 1), (2, 2)], labels=["a", "a", "b"])


def _first_coincident_pair(pts):
    # The per-row scan `Instance` replaced, kept as the oracle for the pair
    # its error names.
    n = len(pts)
    for i in range(n):
        diffs = np.abs(pts[i + 1 :] - pts[i]).max(axis=1) if i + 1 < n else None
        if diffs is not None and diffs.size and diffs.min() <= COINCIDENT_TOL:
            return i, i + 1 + int(diffs.argmin())
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 12), st.integers(1, 3))
def test_instance_names_the_coincident_pair_of_the_per_row_scan(seed, n, d):
    # Points on a 3^d grid, offset by gaps inside and outside COINCIDENT_TOL,
    # so a row may hold several coincident partners and the closest is named.
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 3, size=(n, d)) + rng.choice([0.0, 0.0, 4e-13, 9e-13, 2e-12], size=(n, d))
    want = _first_coincident_pair(pts)
    if want is None:
        assert Instance(pts).n == n
    else:
        with pytest.raises(ValueError, match=rf"^coincident points {want[0]} and {want[1]}$"):
            Instance(pts)


def test_instance_points_frozen():
    inst = Instance([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        inst.points[0, 0] = 5.0


def test_distance_matrix_matches_pairwise():
    rng = np.random.default_rng(7)
    pts = rng.uniform(size=(6, 3))
    for p in (1.0, 2.0, 2.5):
        inst = Instance(pts, NormSpec(p))
        dmat = inst.distance_matrix()
        for a in range(6):
            for b in range(6):
                assert dmat[a, b] == pytest.approx(inst.dist(a, b), abs=1e-14)


def test_tour_canonical_form_equates_rotations_and_reflections():
    base = Tour([2, 0, 3, 1, 4])
    same = [Tour([0, 3, 1, 4, 2]), Tour([3, 0, 2, 4, 1]), Tour([4, 1, 3, 0, 2])]
    for t in same:
        assert t == base
        assert hash(t) == hash(base)
    assert base.order[0] == 0
    assert base.order[1] < base.order[-1]


def test_tour_rejects_non_permutations():
    with pytest.raises(ValueError):
        Tour([0, 1])
    with pytest.raises(ValueError):
        Tour([0, 1, 1])
    with pytest.raises(ValueError):
        Tour([1, 2, 3])


@given(st.permutations(list(range(7))))
def test_tour_canonicalization_is_rotation_invariant(perm):
    t = Tour(perm)
    rot = Tour(perm[3:] + perm[:3])
    ref = Tour(list(reversed(perm)))
    assert t == rot == ref


def test_edge_weight_vector_validation():
    with pytest.raises(ValueError, match="outside"):
        EdgeWeightVector.from_pairs(4, {(0, 1): 1.5})
    with pytest.raises(ValueError, match="outside vertex range"):
        EdgeWeightVector.from_pairs(3, {(0, 5): 0.5})
    with pytest.raises(ValueError, match="duplicate"):
        EdgeWeightVector.from_pairs(4, [((0, 1), 0.5), ((1, 0), 0.25)])
    # Tiny LP round-off is clamped, zeros dropped.
    x = EdgeWeightVector.from_pairs(4, {(0, 1): 1.0 + 1e-10, (2, 3): 1e-13})
    assert x.values[edge_position(4, 0, 1)] == 1.0
    assert x.values[edge_position(4, 2, 3)] == 0.0
    assert np.count_nonzero(x.values) == 1


def test_edge_weight_vector_array_form():
    vals = np.array([1.0, -1e-10, 0.5, 1e-13, 0.5, 1.0 + 1e-10])
    x = EdgeWeightVector(4, vals)
    assert x.values.tolist() == [1.0, 0.0, 0.5, 0.0, 0.5, 1.0]
    assert vals[1] == -1e-10  # the input is copied, not clamped in place
    with pytest.raises(ValueError, match="read-only"):
        x.values[0] = 0.0
    assert x == EdgeWeightVector(4, x.values)
    assert x != EdgeWeightVector(4, np.zeros(6))
    assert x != EdgeWeightVector(5, np.zeros(10))
    for bad in (-1e-6, 1.0 + 1e-6, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            EdgeWeightVector(4, [bad, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="edge values"):
        EdgeWeightVector(4, np.zeros(5))
    with pytest.raises(ValueError, match="edge values"):
        EdgeWeightVector(4, np.zeros((2, 3)))


def _tour_vector(t):
    return EdgeWeightVector.from_pairs(t.n, {(a, b): 1.0 for a, b in zip(t.order, t.order[1:] + t.order[:1])})


def test_edge_weight_vector_of_a_tour_and_degrees():
    t = Tour([0, 1, 2, 3])
    x = _tour_vector(t)
    assert _edges(x) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert np.allclose(degree_vector(x), 2.0)


def test_tour_length_square():
    inst = Instance([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert tour_length(inst, Tour([0, 1, 2, 3])) == pytest.approx(4.0)
    # Crossing diagonal order is longer.
    assert tour_length(inst, Tour([0, 2, 1, 3])) == pytest.approx(2.0 + 2.0 * np.sqrt(2.0))


def test_fractional_cost_matches_tour_length_on_incidence_vectors():
    rng = np.random.default_rng(3)
    inst = Instance(rng.uniform(size=(8, 2)), NormSpec(1.5))
    t = Tour(rng.permutation(8))
    x = _tour_vector(t)
    assert fractional_cost(inst, x) == pytest.approx(tour_length(inst, t), rel=1e-14)


@settings(max_examples=30)
@given(st.integers(0, 2**30))
def test_tour_length_reversal_invariant(seed):
    rng = np.random.default_rng(seed)
    inst = Instance(rng.uniform(size=(6, 2)))
    order = list(rng.permutation(6))
    assert tour_length(inst, Tour(order)) == pytest.approx(
        tour_length(inst, Tour(order[::-1])), rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_edge_arithmetic_matches_the_per_edge_loop_bit_for_bit(seed, p):
    # The loops fractional_cost and degree_vector replaced, as references.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    inst = Instance(rng.uniform(size=(n, int(rng.integers(1, 4)))), NormSpec(p))
    iu, iv = edge_index(n)
    x = EdgeWeightVector(n, np.where(rng.random(len(iu)) < 0.5, rng.random(len(iu)), 0.0))
    total, deg = 0.0, np.zeros(n)
    for k in np.flatnonzero(x.values):
        total += x.values[k] * inst.dist(iu[k], iv[k])
        deg[iu[k]] += x.values[k]
        deg[iv[k]] += x.values[k]
    assert fractional_cost(inst, x).hex() == total.hex()
    assert degree_vector(x).tobytes() == deg.tobytes()


def _scalar_norm(diff, p):
    # The per-edge norm `Instance.dist`, `edge_costs` and `tour_length`
    # called before they shared one row-wise norm, kept as their oracle.
    a = np.abs(diff)
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return float(np.sqrt(np.dot(a, a)))
    return float((a**p).sum() ** (1.0 / p))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([1.0, 1.1, 1.5, 2.0, 2.5, 3.0]),
    st.integers(1, 3),
    st.floats(-6.0, 6.0),
)
def test_edge_lengths_match_the_scalar_norm_bit_for_bit(seed, p, d, log_scale):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    inst = Instance(rng.standard_normal((n, d)) * 10.0**log_scale, NormSpec(p))
    pts = inst.points
    iu, iv = edge_index(n)
    want = np.array([_scalar_norm(pts[u] - pts[v], p) for u, v in zip(iu.tolist(), iv.tolist())])
    got = edge_costs(inst)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    edges = rng.permutation(len(iu))[: int(rng.integers(0, len(iu) + 1))]
    got = edge_costs(inst, edges)
    assert got.shape == edges.shape and got.tobytes() == want[edges].tobytes()
    u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
    assert inst.dist(u, v).hex() == want[edge_position(n, u, v)].hex()
    assert distance(inst.norm, pts[v], pts[u]).hex() == _scalar_norm(pts[v] - pts[u], p).hex()
    tour = Tour(rng.permutation(n))
    o = tour.order
    total = 0.0
    for a, b in zip(o, o[1:] + o[:1]):
        total += _scalar_norm(pts[a] - pts[b], p)
    assert tour_length(inst, tour).hex() == total.hex()


def test_size_mismatch_rejected():
    inst = Instance([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        tour_length(inst, Tour([0, 1, 2, 3]))
    with pytest.raises(ValueError):
        fractional_cost(inst, EdgeWeightVector.from_pairs(5, {(0, 1): 1.0}))


# --- connected components ----------------------------------------------------


def _reachability_components(n, edges):
    # Oracle: the boolean transitive closure of the adjacency matrix, by
    # squaring until it is stable; a vertex leads its component when no
    # smaller vertex reaches it.
    R = np.eye(n, dtype=int)
    for u, v in edges:
        R[u, v] = R[v, u] = 1
    while True:
        nxt = (R @ R > 0).astype(int)
        if np.array_equal(nxt, R):
            break
        R = nxt
    return [np.flatnonzero(R[v]).tolist() for v in range(n) if R[v].argmax() == v]


def test_components_match_reachability_on_random_graphs():
    # n = 1 and isolated vertices included; edges in random order and
    # orientation, repeats allowed.
    rng = np.random.default_rng(2024)
    for _ in range(400):
        n = int(rng.integers(1, 13))
        count = int(rng.integers(0, n * (n - 1) // 2 + 2)) if n > 1 else 0
        pairs = rng.integers(0, n, size=(count, 2))
        edges = [(int(u), int(v)) for u, v in pairs if u != v]
        want = _reachability_components(n, edges)
        assert components(n, edges) == want
        assert components(n, edges[::-1]) == want


def test_components_fixed_cases():
    assert components(1, []) == [[0]]
    assert components(4, []) == [[0], [1], [2], [3]]
    assert components(6, [(5, 1), (3, 0), (1, 4)]) == [[0, 3], [1, 4, 5], [2]]
