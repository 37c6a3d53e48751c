"""Structured families: plane/space embeddings, closed forms, certificates,
pseudo-tour shortcuts, best partitions, and subdivided-graph bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspgap.core import degree_vector, edge_index, edge_position, tour_length
from tspgap.exact import held_karp
from tspgap.families import (
    ANCHOR_TAGS,
    GAP_TAGS,
    IJK,
    ODD_VERTEX_CAP,
    SubdividedGraphSpec,
    best_partition,
    closed_form_lp_I2,
    closed_form_lp_I3,
    closed_form_opt_I2,
    closed_form_opt_I3,
    closed_form_ratio_I2,
    closed_form_ratio_metric,
    fractional_xijk,
    gen_I2,
    gen_I3,
    gen_subdivided,
    hexagon_spec,
    labeled_vertices,
    lambda_certificate,
    metric_maximum_ratio,
    pseudo_tours,
    shortcut_tour,
    tetrahedron_spec,
    tjoin_ratio_bound,
)
from tspgap.lp import solve_subtour_lp

TRIPLES = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


# --- labeled vertex sets and fractional vectors ------------------------------


def test_labeled_vertices_layout():
    p = IJK(1, 2, 1)
    lv = labeled_vertices(p)
    assert len(lv.labels) == 10
    assert lv.labels[:3] == ("X0", "X1", "X2")
    assert lv.labels[3:7] == ("Y0", "Y1", "Y2", "Y3")
    assert lv.labels[7:] == ("Z0", "Z1", "Z2")


@given(TRIPLES)
def test_fractional_vector_is_degree_two(trip):
    x = fractional_xijk(IJK(*trip))
    assert np.allclose(degree_vector(x), 2.0, atol=1e-12)


def test_fractional_vector_weights():
    p = IJK(1, 2, 1)
    x = fractional_xijk(p)
    lv = labeled_vertices(p)
    idx = {s: lv.labels.index(s) for s in lv.labels}
    halves = {
        (idx["X0"], idx["Y0"]), (idx["X0"], idx["Z0"]), (idx["Y0"], idx["Z0"]),
        (idx["X2"], idx["Y3"]), (idx["X2"], idx["Z2"]), (idx["Y3"], idx["Z2"]),
    }
    iu, iv = edge_index(p.n)
    for k in np.flatnonzero(x.values):
        assert x.values[k] == (0.5 if (iu[k], iv[k]) in halves else 1.0)
    # Path edges: one chain per line.
    assert np.count_nonzero(x.values) == (1 + 1) + (2 + 1) + (1 + 1) + 6


# --- plane embedding against its closed forms --------------------------------


def test_table_one_ratios():
    # Certified LP + exact solve on the published 10-point-and-under rows.
    table = {
        (0, 0, 0): 18 / 17,
        (0, 1, 0): 13 / 12,
        (0, 2, 0): 34 / 31,
        (0, 1, 1): 12 / 11,
        (0, 2, 1): 31 / 28,
        (1, 2, 1): 28 / 25,
    }
    for trip, want in table.items():
        p = IJK(*trip)
        inst = gen_I2(p)
        lp = solve_subtour_lp(inst)
        opt = held_karp(inst)
        assert opt.length / lp.cost == pytest.approx(want, abs=1e-7), trip


def test_closed_forms_hand_computed_entry():
    # (0,0,2): line gaps 2/3 and 4/9, so LP 47/9, optimum 50/9.
    p = IJK(0, 0, 2)
    assert closed_form_lp_I2(p) == pytest.approx(47 / 9, rel=1e-15)
    assert closed_form_opt_I2(p) == pytest.approx(50 / 9, rel=1e-15)
    assert closed_form_ratio_I2(p) == pytest.approx(50 / 47, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(TRIPLES)
def test_plane_embedding_matches_closed_forms(trip):
    p = IJK(*trip)
    inst = gen_I2(p)
    assert inst.n == p.i + p.j + p.k + 6
    assert inst.norm.p == 1.0
    lp = solve_subtour_lp(inst)
    assert lp.cost == pytest.approx(closed_form_lp_I2(p), abs=1e-7)
    assert closed_form_opt_I2(p) / lp.cost == pytest.approx(closed_form_ratio_I2(p), rel=1e-12)


def test_family_ratios_bundle():
    p = IJK(1, 2, 1)
    assert closed_form_ratio_I2(p) == pytest.approx(28 / 25, rel=1e-12)
    assert closed_form_ratio_metric(p) == pytest.approx(20 / 17, rel=1e-12)
    assert closed_form_opt_I2(p) == pytest.approx(5.6, rel=1e-12)
    assert closed_form_lp_I2(p) == pytest.approx(5.0, rel=1e-12)


# --- space embedding ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(TRIPLES)
def test_space_embedding_closed_forms(trip):
    p = IJK(*trip)
    inst = gen_I3(p)
    assert inst.n == p.i + p.j + p.k + 6
    assert inst.dim == 3 and inst.norm.p == 1.0
    sigma = 1 / (p.i + 1) + 1 / (p.j + 1) + 1 / (p.k + 1)
    assert closed_form_lp_I3(p) == pytest.approx(3 + 2 * sigma, rel=1e-15)
    assert closed_form_opt_I3(p) == pytest.approx(4 + 2 * sigma, rel=1e-15)
    assert closed_form_ratio_metric(p) == pytest.approx((4 + 2 * sigma) / (3 + 2 * sigma), rel=1e-14)


def test_space_embedding_small_case_certified():
    p = IJK(0, 0, 0)
    inst = gen_I3(p)
    assert held_karp(inst).length == pytest.approx(10.0, abs=1e-9)
    assert solve_subtour_lp(inst).cost == pytest.approx(9.0, abs=1e-7)


# --- pseudo-tours and shortcuts ----------------------------------------------


def test_pseudo_tour_census():
    p = IJK(2, 3, 1)
    tours = pseudo_tours(p)
    assert len(tours) == (p.k + 1) + (p.j + 1) + (p.i + 1) + 6
    tags = [pt.tag for pt in tours]
    for tag in GAP_TAGS:
        assert tags.count(tag) == {"top_gap": p.k + 1, "middle_gap": p.j + 1, "bottom_gap": p.i + 1}[tag]
    for tag in ANCHOR_TAGS:
        assert tags.count(tag) == 1


@settings(max_examples=25, deadline=None)
@given(TRIPLES)
def test_all_shortcuts_tie_at_the_optimum(trip):
    # Every pseudo-tour shortcuts to a Hamiltonian cycle of identical length.
    p = IJK(*trip)
    inst = gen_I2(p)
    want = closed_form_opt_I2(p)
    for pt in pseudo_tours(p):
        t = shortcut_tour(pt, inst)
        assert tour_length(inst, t) == pytest.approx(want, abs=1e-9), pt.name


def test_shortcut_is_optimal_for_small_case():
    p = IJK(1, 2, 1)
    inst = gen_I2(p)
    t = shortcut_tour(pseudo_tours(p)[0], inst)
    assert tour_length(inst, t) == pytest.approx(held_karp(inst).length, abs=1e-9)


# --- convex-combination certificates -----------------------------------------


def test_certificate_small_case_exact_mass():
    # At (1,2,1) the multiplier is 20/17; the half-edge {Y0, Z0} must carry
    # combination mass (1 + 1/D) / 2 = 10/17.
    p = IJK(1, 2, 1)
    rep = lambda_certificate(p)
    assert rep.multiplier == pytest.approx(20 / 17, rel=1e-15)
    lam = dict(rep.coefficients)
    lv = labeled_vertices(p)
    target = edge_position(p.n, lv.labels.index("Y0"), lv.labels.index("Z0"))
    mass = 0.0
    for pt in pseudo_tours(p):
        mass += lam[pt.name] * pt.edges[target]
    assert mass == pytest.approx(10 / 17, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(TRIPLES)
def test_certificates_verify_for_small_triples(trip):
    rep = lambda_certificate(IJK(*trip))
    assert rep.sum_error <= 1e-12
    assert rep.max_entry_error <= 1e-12


# --- best partitions ---------------------------------------------------------


def test_best_partition_metric_matches_mod3_forms():
    for n in range(6, 25):
        got = closed_form_ratio_metric(best_partition(n, "metric"))
        assert got == pytest.approx(metric_maximum_ratio(n), rel=1e-12), n


def test_best_partition_ties_break_lexicographically():
    assert best_partition(7, "metric") == IJK(0, 0, 1)


def test_best_partition_rect_table_one_column():
    for n, trip in [(6, (0, 0, 0)), (7, (0, 1, 0)), (8, (0, 2, 0)), (10, (1, 2, 1))]:
        assert best_partition(n, "rectilinear") == IJK(*trip)


def test_metric_maximum_known_ladder():
    ladder = {6: 10 / 9, 7: 9 / 8, 8: 8 / 7, 9: 7 / 6, 10: 20 / 17, 11: 19 / 16, 12: 6 / 5}
    for n, want in ladder.items():
        assert metric_maximum_ratio(n) == pytest.approx(want, rel=1e-12)


def test_best_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        best_partition(5, "metric")
    with pytest.raises(ValueError):
        best_partition(8, "chebyshev")


# --- subdivided graphs -------------------------------------------------------


def test_k4_bound_is_exactly_four_thirds():
    assert tjoin_ratio_bound(tetrahedron_spec(0, 0)) == pytest.approx(4 / 3, abs=1e-12)


def test_tetrahedron_generator_counts():
    inst = gen_subdivided(tetrahedron_spec(1, 2))
    # 4 corners + 3 outer edges x1 + 3 spokes x2.
    assert inst.n == 4 + 3 * 1 + 3 * 2
    assert inst.labels is not None and "v0" in inst.labels


def test_hexagon_bounds():
    # Single hexagon ring is Eulerian: no odd vertices, bound 1.
    assert tjoin_ratio_bound(hexagon_spec(1, 1, 0)) == 1.0
    assert tjoin_ratio_bound(hexagon_spec(2, 2, 0)) == pytest.approx(24 / 19, abs=1e-9)
    # Frozen from two independent runs; identical for k = 0, 1, 2 since
    # subdividing edges changes neither total length nor the odd vertex set.
    for k in (0, 1, 2):
        assert tjoin_ratio_bound(hexagon_spec(3, 3, k)) == pytest.approx(
            1.2105263157916002, abs=1e-9
        )


def test_tjoin_bounds_bit_exact():
    # Recorded with a left-to-right sum of the edge lengths; the bound must
    # not depend on how the interpreter's builtin sum adds floats.
    cases = [
        (tetrahedron_spec(1, 2), "0x1.5555555555556p+0"),
        (tetrahedron_spec(5, 3), "0x1.5555555555556p+0"),
        (hexagon_spec(2, 2, 1), "0x1.435e50d7851c7p+0"),
        (hexagon_spec(3, 3, 0), "0x1.35e50d7945b4ep+0"),
        (hexagon_spec(2, 3, 2), "0x1.425ed097758b7p+0"),
    ]
    assert [tjoin_ratio_bound(spec).hex() for spec, _ in cases] == [want for _, want in cases]


def test_hexagon_generator_subdivision_scales_n():
    spec = hexagon_spec(2, 2, 0)
    base = gen_subdivided(spec)
    sub = gen_subdivided(hexagon_spec(2, 2, 1))
    assert sub.n == base.n + len(spec.edges)


def test_bounds_never_exceed_four_thirds():
    specs = [
        tetrahedron_spec(0, 0), tetrahedron_spec(2, 1), tetrahedron_spec(5, 5),
        hexagon_spec(1, 2, 0), hexagon_spec(2, 2, 1), hexagon_spec(3, 3, 0),
    ]
    for spec in specs:
        assert tjoin_ratio_bound(spec) <= 4 / 3 + 1e-12


def test_subdivided_validation_rejects_bridges_and_crossings():
    # Path graph: every edge is a bridge.
    with pytest.raises(ValueError, match="bridge"):
        SubdividedGraphSpec(((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 2)), (0, 0))
    # Two disjoint triangles: disconnected, reported ahead of any bridge.
    with pytest.raises(ValueError, match="disconnected"):
        SubdividedGraphSpec(
            ((0, 0), (1, 0), (0, 1), (3, 0), (4, 0), (3, 1)),
            ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)),
            (0,) * 6,
        )
    # Square with both diagonals: diagonals cross.
    with pytest.raises(ValueError):
        SubdividedGraphSpec(
            ((0, 0), (1, 0), (1, 1), (0, 1)),
            ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)),
            (0,) * 6,
        )
    with pytest.raises(ValueError):
        SubdividedGraphSpec(((0, 0), (1, 0), (0, 1)), ((0, 1), (0, 1), (1, 2)), (0, 0, 0))


def test_subdivided_generator_geometry():
    spec = tetrahedron_spec(1, 0)
    inst = gen_subdivided(spec)
    # Subdivision points sit on their host segment at even spacing.
    a = np.array(spec.vertices[0])
    b = np.array(spec.vertices[1])
    mid = inst.points[inst.index_of("e0-1.1")]
    assert np.allclose(mid, (a + b) / 2.0, atol=1e-12)


def test_odd_vertex_cap_enforced():
    # 3x4 hexagon sheet has more odd base vertices than the matching cap.
    spec = hexagon_spec(3, 4, 0)
    degs = spec.degrees()
    odd = sum(1 for d in degs if d % 2)
    if odd > ODD_VERTEX_CAP:
        with pytest.raises(ValueError):
            tjoin_ratio_bound(spec)
    else:
        pytest.skip("sheet unexpectedly small; cap not exercised")
