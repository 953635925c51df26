import fractions
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_diagram, count_calls
from lattice_oracles import (FractionTable, base_cohomology_by_fractions,
                             box_ages_by_products,
                             contact_betti_by_passes,
                             contact_betti_from_delta_by_fractions,
                             hc_from_quotient_by_fractions,
                             sum_rows_by_fractions, table_view)
from contactbetti import cli, resolution
from contactbetti.contact import (ReebVector, contact_betti_direct,
                                  contact_betti_from_delta, validate_diagram)
from contactbetti.exactlat import smith_invariants, smith_normal_form
from contactbetti.grading import GradedDimensions, default_window, sum_rows
from contactbetti.polyarith import f_to_h, poly_eval
from contactbetti.corpus import corpus
from contactbetti.polytope import convex_hull, count_points, triangulate_ids
from contactbetti.prequant import (hc_from_quotient,
                                   orbifold_cohomology_of_base,
                                   quotient_polytope)
from contactbetti.resolution import (
    Fan,
    ImproperIntersection,
    MismatchAt,
    NotCovering,
    NotRational,
    PointNotInterior,
    PointNotRational,
    Triangulation,
    box_elements,
    fan_over,
    h_polynomial,
    hc_from_resolution,
    hc_sector_rows,
    normalized_volume_of_fan_base,
    orbifold_poincare,
    stapledon_check,
    star_triangulation,
    sum_sector_rows,
    triangulation_from_cells,
    trivial_triangulation,
    validate_triangulation,
)

F = Fraction

L53 = validate_diagram(convex_hull([(1, 0), (0, 1), (-1, -1)]))
ORDER3 = validate_diagram(convex_hull(
    [(F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
     (F(2, 3), F(2, 3)), (F(2, 3), F(1, 3))]))
SQUARE = validate_diagram(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
QUAD = validate_diagram(convex_hull([(0, 0), (1, 0), (0, 1), (2, 2)]))
OCTAHEDRON = validate_diagram(convex_hull(
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]))
# order 2, interior lattice point (0,0) lifts to the imprimitive (0,0,2)
HALF53 = validate_diagram(convex_hull(
    [(F(1, 2), 0), (0, F(1, 2)), (F(-1, 2), F(-1, 2))]))

L53_TRIVIAL = trivial_triangulation(L53)
L53_STAR = star_triangulation(L53, (0, 0))
# ORDER3 vertices sort to v0=(1/3,1/3) v1=(1/3,2/3) v2=(2/3,1/3) v3=(2/3,2/3)
DIAG_A = triangulation_from_cells(ORDER3, ORDER3.polytope.vertices,
                                  [(0, 1, 3), (0, 2, 3)])
DIAG_B = triangulation_from_cells(ORDER3, ORDER3.polytope.vertices,
                                  [(0, 1, 2), (1, 2, 3)])
QUAD_STAR = star_triangulation(QUAD, (1, 1))
QUAD_FLOP = triangulation_from_cells(QUAD, QUAD.polytope.vertices,
                                     [(0, 1, 2), (1, 2, 3)])


# ---------------------------------------------------------------- build


def test_trivial_triangulation():
    assert L53_TRIVIAL.cells == ((0, 1, 2),)
    assert L53_TRIVIAL.points == L53.polytope.vertices
    with pytest.raises(ValueError):
        trivial_triangulation(ORDER3)


def test_star_triangulation():
    assert len(L53_STAR.cells) == 3
    assert L53_STAR.points[-1] == (0, 0)
    assert all(cell[-1] == 3 for cell in L53_STAR.cells)


def test_star_centre_must_be_rational():
    with pytest.raises(PointNotRational):
        star_triangulation(ORDER3, (F(1, 2), F(1, 2)))


def test_star_centre_must_be_interior():
    with pytest.raises(PointNotInterior):
        star_triangulation(L53, (1, 0))
    with pytest.raises(PointNotInterior):
        star_triangulation(L53, (5, 5))


# ---------------------------------------------------------------- validate


def test_validate_l53_star():
    rep = validate_triangulation(L53, L53_STAR)
    assert rep.unimodular
    assert rep.cell_volumes == (1, 1, 1)


def test_validate_l53_trivial():
    rep = validate_triangulation(L53, L53_TRIVIAL)
    assert not rep.unimodular
    assert rep.cell_volumes == (3,)


def test_validate_order3_diagonals():
    for tri in (DIAG_A, DIAG_B):
        rep = validate_triangulation(ORDER3, tri)
        assert not rep.unimodular
        assert rep.cell_volumes == (F(1, 9), F(1, 9))


def test_validate_quad():
    assert validate_triangulation(QUAD, QUAD_STAR).unimodular
    flop = validate_triangulation(QUAD, QUAD_FLOP)
    assert not flop.unimodular
    assert flop.cell_volumes == (1, 3)


def test_overlapping_cells_rejected():
    # SQUARE vertices sort to v0=(0,0) v1=(0,1) v2=(1,0) v3=(1,1); these
    # two cells share the segment v0v2 but overlap with full area
    bad = triangulation_from_cells(SQUARE, SQUARE.polytope.vertices,
                                   [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(ImproperIntersection) as exc:
        validate_triangulation(SQUARE, bad)
    assert exc.value.pair == (0, 1)


def test_proper_diagonals_accepted():
    good = triangulation_from_cells(SQUARE, SQUARE.polytope.vertices,
                                    [(0, 1, 3), (0, 2, 3)])
    assert validate_triangulation(SQUARE, good).unimodular


def test_covering_violations_rejected():
    half = triangulation_from_cells(SQUARE, SQUARE.polytope.vertices,
                                    [(0, 1, 2)])
    with pytest.raises(NotCovering):
        validate_triangulation(SQUARE, half)
    flat = triangulation_from_cells(SQUARE, SQUARE.polytope.vertices,
                                    [(0, 1, 1), (0, 2, 3)])
    with pytest.raises(NotCovering):
        validate_triangulation(SQUARE, flat)
    edge = triangulation_from_cells(SQUARE, SQUARE.polytope.vertices,
                                    [(0, 1), (0, 2, 3)])
    with pytest.raises(NotCovering):
        validate_triangulation(SQUARE, edge)


def test_point_outside_diagram_rejected():
    # one cell of the right volume that sticks out of the square
    pts = list(SQUARE.polytope.vertices) + [(2, 0)]
    tri = triangulation_from_cells(SQUARE, pts, [(0, 1, 4)])
    with pytest.raises(NotCovering, match="outside the diagram"):
        validate_triangulation(SQUARE, tri)
    # an unused point outside the diagram is rejected as well
    stray = triangulation_from_cells(SQUARE, pts, [(0, 1, 3), (0, 2, 3)])
    with pytest.raises(NotCovering):
        validate_triangulation(SQUARE, stray)


def test_overlap_in_three_dimensions_rejected():
    # octahedron, points 0, e1, -e1, e2, -e2, e3, -e3: six cells of the star
    # at the origin plus the cell (e1, -e1, e2, e3) of volume 2, which lies
    # on the same side of the boundary facet (-e1, e2, e3) as star cell 3
    pts = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
           (0, 0, 1), (0, 0, -1)]
    cells = [(0, 1, 3, 6), (0, 1, 4, 5), (0, 1, 4, 6), (0, 2, 3, 5),
             (0, 2, 3, 6), (0, 2, 4, 5), (1, 2, 3, 5)]
    tri = triangulation_from_cells(OCTAHEDRON, pts, cells)
    with pytest.raises(ImproperIntersection) as exc:
        validate_triangulation(OCTAHEDRON, tri)
    assert exc.value.pair == (3, 6)


def test_equal_volume_overlap_without_shared_facet_rejected():
    # QUAD vertices sort to v0=(0,0) v1=(0,1) v2=(1,0) v3=(2,2); the cells
    # (v0, v1, (1,1)) and (v1, v2, v3) overlap, their volumes 1 + 3 fill
    # QUAD's 4, and they share no facet, so some interior facet is bare
    pts = list(QUAD.polytope.vertices) + [(1, 1)]
    tri = triangulation_from_cells(QUAD, pts, [(0, 1, 4), (1, 2, 3)])
    with pytest.raises(NotCovering, match="bounds only one cell"):
        validate_triangulation(QUAD, tri)


LADDER = json.loads((Path(__file__).parent.parent / "perfbench"
                     / "ladder.json").read_text())
PULLING_CASES = (
    [corpus_diagram(doc) for doc in corpus().values()]
    + [validate_diagram(convex_hull([tuple(F(c) for c in v) for v in verts]))
       for name, verts in sorted(LADDER.items()) if name.startswith("n3")]
    # a 3-D diagram with two different pulling triangulations
    + [OCTAHEDRON])


@pytest.mark.parametrize("pull_last", [False, True])
def test_pulling_triangulations_validate(pull_last):
    for D in PULLING_CASES:
        P = D.polytope
        cells = triangulate_ids(P, pull_last=pull_last)
        rep = validate_triangulation(
            D, triangulation_from_cells(D, P.vertices, cells))
        assert len(rep.cell_volumes) == len(cells)


def test_irrational_point_rejected():
    pts = list(SQUARE.polytope.vertices) + [(F(1, 2), F(1, 2))]
    tri = triangulation_from_cells(
        SQUARE, pts, [(0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4)])
    with pytest.raises(NotRational):
        validate_triangulation(SQUARE, tri)


# ---------------------------------------------------------------- fans


def test_fan_over_trivial():
    fan = fan_over(L53_TRIVIAL)
    assert fan.rays == ((-1, -1, 1), (0, 1, 1), (1, 0, 1))
    assert fan.max_cones == ((0, 1, 2),)
    assert fan.crepant
    assert len(fan.cones()) == 8


def test_fan_over_star():
    fan = fan_over(L53_STAR)
    assert fan.rays[3] == (0, 0, 1)
    assert fan.crepant
    assert len(fan.cones()) == 14  # 1 + 4 rays + 6 edges + 3 cells


def test_fan_over_order3_is_crepant():
    fan = fan_over(DIAG_A)
    assert fan.rays == ((1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3))
    assert fan.crepant


def test_fan_with_imprimitive_lift_is_not_crepant():
    # (0,0) lifts to (0,0,3) whose primitive generator drops the height
    tri = Triangulation(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))),
                        ((0, 1, 2),), 3)
    fan = fan_over(tri)
    assert not fan.crepant
    assert fan.rays[0] == (0, 0, 1)


def test_half53_star_fan_not_crepant():
    assert fan_over(trivial_triangulation(HALF53)).crepant
    assert not fan_over(star_triangulation(HALF53, (0, 0))).crepant


# ---------------------------------------------------------------- boxes


def oracle_ages(fan, cone):
    """The ages m * psi of the oracle's box elements, sorted."""
    return sorted(fan.order * b.shift for b in box_elements_oracle(fan, cone))


def test_box_elements_zero_cone():
    fan = fan_over(L53_TRIVIAL)
    assert box_elements(fan, ()) == [0] == oracle_ages(fan, ())


def test_box_elements_z3_cone():
    fan = fan_over(L53_TRIVIAL)
    # the points (0,0,1) and (0,0,2): coefficients all 1/3, all 2/3
    assert sorted(box_elements(fan, (0, 1, 2))) == [1, 2]
    assert oracle_ages(fan, (0, 1, 2)) == [1, 2]


def test_box_elements_unimodular_cone_empty():
    fan = fan_over(L53_STAR)
    assert box_elements(fan, fan.max_cones[0]) == []


def test_box_elements_on_order3_diagonal():
    fan = fan_over(DIAG_A)
    # the diagonal edge joins rays (1,1,3) and (2,2,3); its box points
    # (1,1,2) and (2,2,4) have psi = 2/3 and 4/3
    assert sorted(box_elements(fan, (0, 3))) == [2, 4]
    assert oracle_ages(fan, (0, 3)) == [2, 4]
    for edge in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert box_elements(fan, edge) == []


def test_box_elements_needs_independent_rays():
    fan = Fan(((1, 0, 1), (2, 0, 2)), ((0, 1),), True, 1, 2)
    with pytest.raises(AssertionError, match="independent"):
        box_elements(fan, (0, 1))


def test_box_elements_certifies_the_smith_transform(monkeypatch):
    # a corrupted U: adding the first ray's unit row to the generator of
    # the order-3 factor leaves g*M = first ray (mod 3), not divisible
    fan = fan_over(L53_TRIVIAL)
    real = resolution.smith_normal_form

    def corrupted(M):
        S, U, V = real(M)
        bad = tuple(U[:-1]) + (tuple(u + (j == 0)
                                     for j, u in enumerate(U[-1])),)
        return S, bad, V

    monkeypatch.setattr(resolution, "smith_normal_form", corrupted)
    with pytest.raises(AssertionError, match="not divisible by 3"):
        box_elements(fan, (0, 1, 2))


def test_box_census_matches_lattice_index():
    from lattice_oracles import lattice_index
    from itertools import combinations
    for tri in (L53_TRIVIAL, L53_STAR, DIAG_A, DIAG_B, QUAD_FLOP):
        fan = fan_over(tri)
        for cone in fan.max_cones:
            total = sum(
                len(box_elements(fan, sub))
                for k in range(len(cone) + 1)
                for sub in combinations(cone, k))
            assert total == lattice_index([list(fan.rays[i]) for i in cone])


# ---------------------------------------------------------------- h-polys


def test_h_polynomial_single_cone_fan():
    fan = fan_over(L53_TRIVIAL)
    assert h_polynomial(fan, ()) == (1,)
    assert h_polynomial(fan, (0, 1, 2)) == (1,)


def test_h_polynomial_star_fan():
    fan = fan_over(L53_STAR)
    assert h_polynomial(fan, ()) == (1, 1, 1)


def test_h_polynomial_quad_fans():
    assert h_polynomial(fan_over(QUAD_STAR), ()) == (1, 2, 1)
    assert h_polynomial(fan_over(QUAD_FLOP), ()) == (1, 1)


def test_h_polynomial_diagonal_edge():
    fan = fan_over(DIAG_A)
    assert h_polynomial(fan, ()) == (1, 1)
    assert h_polynomial(fan, (0, 3)) == (1, 1)


def test_h_at_one_counts_maximal_cones():
    for tri in (L53_TRIVIAL, L53_STAR, DIAG_A, QUAD_STAR, QUAD_FLOP):
        fan = fan_over(tri)
        assert poly_eval(h_polynomial(fan, ()), 1) == len(fan.max_cones)


def face_h_polynomial(P, face):
    """h_F(q) over the nonempty faces G of F:
    sum q^(dim F - dim G) (1-q)^(dim G)."""
    inside = set(face.vertex_ids)
    lattice = P.face_lattice()
    return f_to_h(face.dim, [d for d in range(face.dim + 1)
                             for g in lattice[d]
                             if set(g.vertex_ids) <= inside])


def test_face_h_polynomial():
    P = SQUARE.polytope
    lattice = P.face_lattice()
    assert face_h_polynomial(P, lattice[0][0]) == (1,)
    assert face_h_polynomial(P, lattice[1][0]) == (1, 1)
    assert face_h_polynomial(P, lattice[2][0]) == (1, 2, 1)
    T = L53.polytope
    assert face_h_polynomial(T, T.face_lattice()[2][0]) == (1, 1, 1)


# ---------------------------------------------------------------- orbifold


def degree_dims(table):
    return {d: table.dim(d) for d in table.degrees()}


def test_orbifold_poincare_l53():
    for tri in (L53_TRIVIAL, L53_STAR):
        H = orbifold_poincare(fan_over(tri))
        assert degree_dims(H) == {F(0): 1, F(2): 1, F(4): 1}


def test_orbifold_poincare_order3():
    want = {F(0): 1, F(4, 3): 1, F(2): 1, F(8, 3): 1,
            F(10, 3): 1, F(14, 3): 1}
    for tri in (DIAG_A, DIAG_B):
        assert degree_dims(orbifold_poincare(fan_over(tri))) == want


def test_orbifold_poincare_quad_triangulation_independent():
    H_star = orbifold_poincare(fan_over(QUAD_STAR))
    H_flop = orbifold_poincare(fan_over(QUAD_FLOP))
    assert H_star == H_flop
    assert degree_dims(H_star) == {F(0): 1, F(2): 2, F(4): 1}


def test_orbifold_poincare_needs_crepant():
    fan = fan_over(star_triangulation(HALF53, (0, 0)))
    with pytest.raises(ValueError):
        orbifold_poincare(fan)


def test_fan_base_volume():
    assert normalized_volume_of_fan_base(fan_over(L53_STAR)) == 3
    assert normalized_volume_of_fan_base(fan_over(DIAG_A)) == F(2, 9)


def test_stapledon_identity():
    for D, tri in ((L53, L53_TRIVIAL), (L53, L53_STAR),
                   (ORDER3, DIAG_A), (ORDER3, DIAG_B),
                   (QUAD, QUAD_STAR), (QUAD, QUAD_FLOP),
                   (HALF53, trivial_triangulation(HALF53))):
        rep = stapledon_check(D, tri)
        m, n = D.order, D.dimension
        H = orbifold_poincare(fan_over(tri))
        assert [H.dim(2 * F(mj, m)) for mj in range(m * (n + 1))] == list(
            rep.delta)
        assert rep.series_checked_to == 2 * m * (n + 1) - 1


def test_stapledon_counts_only_the_dilates_it_reads():
    D = validate_diagram(convex_hull(
        [(F(1, 2), 0), (0, F(1, 2)), (F(-1, 2), F(-1, 2))]))
    rep = stapledon_check(D, trivial_triangulation(D))
    top = 2 * D.order * (D.dimension + 1)
    assert rep.series_checked_to == top - 1
    closed = {t for t, interior in D.polytope._counts if not interior}
    assert closed == set(range(1, top))


def test_stapledon_series_reads_each_count():
    # one wrong memoized count at t = m(n+1) + 1, past delta's own
    # window, leaves a nonzero series coefficient at j = t
    D = validate_diagram(convex_hull(
        [(F(1, 2), 0), (0, F(1, 2)), (F(-1, 2), F(-1, 2))]))
    t = D.order * (D.dimension + 1) + 1
    D.polytope._counts[(t, False)] = count_points(D.polytope, t) + 1
    with pytest.raises(MismatchAt, match="does not vanish") as info:
        stapledon_check(D, trivial_triangulation(D))
    assert info.value.j == F(t, D.order)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_stapledon_checks_each_delta_entry(t):
    # delta_vector reads no closed count from h = ceil(m(n+1)/2) = 3 on,
    # so a wrong L(t), 3 <= t < 6, shows only in the closed-count series
    D = validate_diagram(convex_hull(
        [(F(1, 2), 0), (0, F(1, 2)), (F(-1, 2), F(-1, 2))]))
    D.polytope._counts[(t, False)] = count_points(D.polytope, t) + 1
    with pytest.raises(MismatchAt, match="closed-count series") as info:
        stapledon_check(D, trivial_triangulation(D))
    assert info.value.j == F(t, D.order)


def test_stapledon_delta_field():
    rep = stapledon_check(L53, L53_STAR)
    assert rep.delta == (1, 1, 1)


# ---------------------------------------------------------------- hc


def test_hc_from_resolution_l53():
    hc = hc_from_resolution(L53, L53_TRIVIAL)
    assert hc == contact_betti_from_delta(L53)
    assert [hc.dim(2 * j) for j in range(6)] == [1, 2, 3, 3, 3, 3]
    assert hc == hc_from_resolution(L53, L53_STAR)


def test_hc_sector_rows_l53():
    rows = hc_sector_rows(L53, L53_TRIVIAL, (0, 8))
    assert sorted(rows) == [0, 1, 2]
    assert [rows[F(0)].dim(d) for d in (0, 2, 4, 6, 8)] == [0, 0, 1, 1, 1]
    assert [rows[F(1)].dim(d) for d in (0, 2, 4, 6, 8)] == [0, 1, 1, 1, 1]
    assert [rows[F(2)].dim(d) for d in (0, 2, 4, 6, 8)] == [1, 1, 1, 1, 1]


def test_hc_sector_rows_smooth_fan_single_row():
    rows = hc_sector_rows(L53, L53_STAR, (0, 8))
    assert sorted(rows) == [0]
    assert [rows[F(0)].dim(d) for d in (0, 2, 4, 6, 8)] == [1, 2, 3, 3, 3]


def test_hc_from_resolution_order3():
    hc = hc_from_resolution(ORDER3, DIAG_A)
    assert hc == contact_betti_from_delta(ORDER3)
    assert hc == hc_from_resolution(ORDER3, DIAG_B)
    assert hc.dim(F(-2, 3)) == 1
    assert hc.dim(0) == 0
    rows = hc_sector_rows(ORDER3, DIAG_A)
    assert sorted(rows) == [0, F(2, 3), F(4, 3)]
    assert rows[F(4, 3)].dim(F(-2, 3)) == 1
    assert rows[F(2, 3)].dim(F(2, 3)) == 1
    assert rows[F(0)].dim(2) == 1


def test_hc_window_restriction():
    hc = hc_from_resolution(QUAD, QUAD_FLOP, (0, 4))
    assert hc == contact_betti_from_delta(QUAD, (0, 4))
    assert [hc.dim(d) for d in (0, 2, 4)] == [1, 3, 4]


def test_hc_needs_crepant():
    with pytest.raises(ValueError):
        hc_from_resolution(HALF53, star_triangulation(HALF53, (0, 0)))


def test_window_must_start_above_minus_two():
    with pytest.raises(ValueError, match="above degree -2"):
        hc_sector_rows(L53, L53_TRIVIAL, (-2, 4))
    with pytest.raises(ValueError, match="above degree -2"):
        hc_from_resolution(ORDER3, DIAG_A, (-100, -99))
    assert hc_sector_rows(ORDER3, DIAG_A, (F(-4, 3), 4))


def _corrupted(rows, shift, degree, by):
    row = rows[shift]
    key = F(degree) * row.order
    assert key.denominator == 1
    counts = dict(row.counts)
    counts[int(key)] = counts.get(int(key), 0) + by
    return {**rows, shift: GradedDimensions(row.order, counts, row.window)}


def test_sector_sum_mismatch_names_the_first_degree():
    rows = hc_sector_rows(L53, L53_TRIVIAL, (0, 8))
    assert sum_sector_rows(L53, rows) == contact_betti_from_delta(L53, (0, 8))
    bad = _corrupted(_corrupted(rows, F(2), 6, -1), F(1), 4, 1)
    with pytest.raises(MismatchAt) as info:
        sum_sector_rows(L53, bad)
    assert info.value.j == 2  # degree 4
    # an entry the delta table does not have at all
    with pytest.raises(MismatchAt) as info:
        sum_sector_rows(ORDER3, _corrupted(hc_sector_rows(ORDER3, DIAG_A),
                                           F(0), F(-4, 3), 1))
    assert info.value.j == F(-2, 3)  # degree -4/3


def test_non_integral_age_is_a_mismatch(monkeypatch):
    # order 1 against rays of height 3: the diagonal edge's ages are
    # m * psi = 2/3 and 4/3
    fan = fan_over(DIAG_A)
    skewed = Fan(fan.rays, fan.max_cones, fan.crepant, 1, fan.dimension)
    monkeypatch.setattr(resolution, "fan_over", lambda T: skewed)
    for compute in (lambda: box_elements(skewed, (0, 3)),
                    lambda: orbifold_poincare(skewed),
                    lambda: hc_sector_rows(ORDER3, DIAG_A)):
        with pytest.raises(MismatchAt) as info:
            compute()
        assert info.value.j in (F(2, 3), F(4, 3))


def _box_outcome(ages_of, fan, cone):
    try:
        return Counter(ages_of(fan, cone))
    except MismatchAt:
        return "MismatchAt"


def test_stepped_ages_match_products():
    # random independent rays of height h in a fan of order m: the ages
    # m * psi are integral exactly when the heights allow it
    rng = random.Random(1704)
    seen = Counter()
    while sum(seen.values()) < 200:
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        h, m = rng.randint(1, 5), rng.randint(1, 5)
        if k > n + 1:
            continue
        rays = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) + (h,)
                     for _ in range(k))
        if len(smith_invariants(rays)) < k:
            continue
        fan = Fan(rays, (tuple(range(k)),), True, m, n)
        cone = tuple(range(k))
        want = _box_outcome(box_ages_by_products, fan, cone)
        assert _box_outcome(box_elements, fan, cone) == want, (rays, m)
        seen[want == "MismatchAt"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("argv", [
    ["crosscheck", "corpus:order-three-square"],
    ["crosscheck", "corpus:lens-triangle"],
    ["crosscheck", "corpus:blowup-quad", "--format", "table"],
    ["hc", "corpus:order-three-square"],
    ["hc", "corpus:lens-triangle", "--pipeline", "resolution", "--trivial"],
    ["resolve", "corpus:blowup-quad"],
    ["orbifold", "corpus:projective-plane-triple"],
], ids=" ".join)
def test_one_census_per_command(capsys, monkeypatch, argv):
    # stapledon_check and hc_sector_rows read one census of one fan:
    # every cone of the fan is enumerated once
    calls = count_calls(monkeypatch, resolution, "box_elements")
    assert cli.main(argv) == 0
    fans = {id(fan) for fan, _ in calls}
    assert len(fans) == 1
    fan = calls[0][0]
    assert sorted(cone for _, cone in calls) == sorted(fan.cones())


def test_fan_and_census_are_memoized():
    tri = trivial_triangulation(corpus_diagram(corpus()["lens-triangle"]))
    fan = fan_over(tri)
    assert fan_over(tri) is fan
    assert resolution._age_h(fan) is resolution._age_h(fan)
    # the memo fields take no part in equality or the repr
    fresh = Fan(fan.rays, fan.max_cones, fan.crepant, fan.order,
                fan.dimension)
    assert fan == fresh and hash(fan) == hash(fresh)
    assert "_census" not in repr(fan)
    assert tri == Triangulation(tri.points, tri.cells, tri.order)


# The mass identity of orbifold_poincare against a patched base volume:
# the CLI exits 2 with the identity's message, also under python -O.
PATCHED_RUN = """
from contactbetti import cli, resolution
real = resolution.normalized_volume_of_fan_base
resolution.normalized_volume_of_fan_base = lambda F: real(F) + 1
print(cli.main(["orbifold", "corpus:lens-triangle"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_orbifold_mass_identity_is_checked(flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", PATCHED_RUN],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.stdout == "2\n", proc.stderr
    assert "orbifold dimensions add up to" in proc.stderr


# ---------------------------------------------------------------- oracles
# The Fraction forms of box_elements and hc_sector_rows from before their
# integer kernels: the library's ages are compared with the oracle's
# m * psi, its sector rows row for row.


@dataclass(frozen=True)
class BoxElement:
    cone: Tuple[int, ...]
    point: Tuple[int, ...]
    coefficients: Tuple[Fraction, ...]
    shift: Fraction  # psi = sum of the coefficients


def box_elements_oracle(fan, cone):
    cone = tuple(sorted(cone))
    k = len(cone)
    dim = fan.dimension + 1
    if k == 0:
        return [BoxElement((), (0,) * dim, (), F(0))]
    M = [list(fan.rays[i]) for i in cone]
    S, U, _ = smith_normal_form(M)
    dets = [S[i][i] for i in range(k)]
    out = []
    for t in itertools.product(*[range(d) for d in dets]):
        z = [F(t[i], dets[i]) for i in range(k)]
        c = [F(sum(z[i] * U[i][j] for i in range(k))) % 1 for j in range(k)]
        if any(cj == 0 for cj in c):
            continue
        pt = [sum(c[j] * M[j][i] for j in range(k)) for i in range(dim)]
        assert all(x.denominator == 1 for x in pt)
        out.append(BoxElement(cone, tuple(int(x) for x in pt), tuple(c),
                              sum(c)))
    return sorted(out, key=lambda b: b.point)


def hc_sector_rows_oracle(D, fan, boxes, window=None):
    if window is None:
        window = default_window(D.order, D.dimension)
    lo, hi = F(window[0]), F(window[1])
    m, n = D.order, D.dimension
    rows = {}
    for cone in fan.cones():
        if not boxes[cone]:
            continue
        h = h_polynomial(fan, cone)
        for b in boxes[cone]:
            row = rows.setdefault(b.shift, {})
            for mj in range(math.ceil(m * lo / 2),
                            math.floor(m * hi / 2) + 1):
                j = F(mj, m)
                val = 0
                for e, coeff in enumerate(h):
                    k = b.shift + e - (n - j)
                    if coeff and k.denominator == 1 and k >= 0:
                        val += coeff
                if val and lo <= 2 * j <= hi:
                    row[2 * j] = row.get(2 * j, 0) + val
    return {shift: FractionTable(entries, (lo, hi))
            for shift, entries in sorted(rows.items())}


def orbifold_poincare_oracle(D, fan, boxes):
    """h_tau(q) of each box element's cone at degrees 2(psi + e), over
    the support window [0, 2(n + 1) - 2/m]."""
    m, n = D.order, D.dimension
    items = []
    for cone in fan.cones():
        h = h_polynomial(fan, cone) if boxes[cone] else ()
        for b in boxes[cone]:
            items += [(2 * (b.shift + e), coeff) for e, coeff in enumerate(h)]
    return FractionTable.from_items(items, (0, 2 * (n + 1) - F(2, m)))


def _default_triangulation(D):
    P = D.polytope
    return triangulation_from_cells(D, P.vertices, triangulate_ids(P))


def _star_centre(D):
    """First interior point of (1/m)Z^n whose lift is primitive, so that
    the star triangulation at it is crepant; None if there is none."""
    m, P = D.order, D.polytope
    ranges = [range(math.ceil(m * min(v[i] for v in P.vertices)),
                    math.floor(m * max(v[i] for v in P.vertices)) + 1)
              for i in range(D.dimension)]
    for x in itertools.product(*ranges):
        p = tuple(F(c, m) for c in x)
        if math.gcd(m, *x) == 1 and P.contains(p, strict=True):
            return p
    return None


CORPUS_DIAGRAMS = [(name, corpus_diagram(doc))
                   for name, doc in sorted(corpus().items())]
# n2m101 is left out: the oracle enumerates its 935,563 box elements in
# minutes
LADDER_DIAGRAMS = [(name, validate_diagram(convex_hull(
                        [tuple(F(c) for c in v) for v in verts])))
                   for name, verts in sorted(LADDER.items())
                   if name[:2] in ("n2", "n3") and name != "n2m101"]
# star triangulations for the corpus documents with an interior point of
# (1/m)Z^n: all but unit-simplex, projective-plane, order-three-square and
# product-of-spheres
ORACLE_CASES = (
    [(name, D, _default_triangulation(D))
     for name, D in CORPUS_DIAGRAMS + LADDER_DIAGRAMS]
    + [(name + "-star", D, star_triangulation(D, _star_centre(D)))
       for name, D in CORPUS_DIAGRAMS if _star_centre(D) is not None])
NARROW_WINDOWS = [(F(5, 7), F(9, 7)), (F(1, 3), F(1, 3)), (2, 2)]
WIDE_WINDOWS = [None, (-1, 4), (0, F(31, 2))]


def coprime_window(m):
    """A wide window whose ends have a prime denominator p coprime to m,
    so neither end lies on the grid (1/m)Z of the degrees."""
    p = next(p for p in (7, 11) if m % p)
    return (F(1 - 2 * p, p), F(9 * p - 1, p))


@pytest.mark.parametrize("D,T", [case[1:] for case in ORACLE_CASES],
                         ids=[case[0] for case in ORACLE_CASES])
def test_kernels_match_fraction_oracles(D, T):
    fan = fan_over(T)
    boxes = {}
    for cone in fan.cones():
        got = box_elements(fan, cone)
        boxes[cone] = box_elements_oracle(fan, cone)
        assert len(got) == len(boxes[cone])
        assert sorted(got) == sorted(D.order * b.shift for b in boxes[cone])
        assert all(type(s) is int for s in got)
    m = D.order
    windows = NARROW_WINDOWS + [(F(2 * (m + 1), m),) * 2]
    # wide windows only where the oracle's per-degree loop stays short
    if m * sum(map(len, boxes.values())) <= 7000:
        windows += WIDE_WINDOWS
    for window in windows:
        got = hc_sector_rows(D, T, window)
        want = hc_sector_rows_oracle(D, fan, boxes, window)
        assert list(got) == list(want)
        for shift in want:
            assert table_view(got[shift]) == table_view(want[shift])
        assert table_view(hc_from_resolution(D, T, window)) == table_view(
            sum_rows_by_fractions(want))
    assert table_view(orbifold_poincare(fan)) == table_view(
        orbifold_poincare_oracle(D, fan, boxes))


@pytest.mark.parametrize("D", [D for _, D in CORPUS_DIAGRAMS + LADDER_DIAGRAMS],
                         ids=[name for name, _ in
                              CORPUS_DIAGRAMS + LADDER_DIAGRAMS])
def test_integer_keyed_tables_match_fraction_oracles(D):
    m = D.order
    windows = (NARROW_WINDOWS + WIDE_WINDOWS
               + [(F(2 * (m + 1), m),) * 2, coprime_window(m)])
    reebs = tuple(ReebVector.default_for(D, eps)
                  for eps in cli.CROSSCHECK_PERTURBATIONS)
    Q = quotient_polytope(D, cli._fallback_direction(D)) if m == 1 else None
    for window in windows:
        assert table_view(contact_betti_from_delta(D, window)) == table_view(
            contact_betti_from_delta_by_fractions(D, window))
        got = contact_betti_direct(D, reebs, window)
        for table, reeb in zip(got, reebs):
            assert table_view(table) == table_view(
                contact_betti_by_passes(D, reeb, window))
        if Q is not None:
            assert table_view(hc_from_quotient(Q, window)) == table_view(
                hc_from_quotient_by_fractions(Q, window))
    if Q is not None:
        assert table_view(orbifold_cohomology_of_base(Q)) == table_view(
            base_cohomology_by_fractions(Q))


def _fraction_calls(fn):
    """The number of calls into the fractions module while fn() runs."""
    calls = [0]

    def hook(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename == fractions.__file__):
            calls[0] += 1
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]


def test_tables_make_no_fraction_per_entry():
    # a window with 3 entries and one with 45 or more make the same
    # Fractions (window ends, sector keys), once the memoized delta
    # vector, frames, fan and census are built
    ladder = dict(LADDER_DIAGRAMS)
    narrow, wide = (F(5, 7), F(9, 7)), (F(-1), F(30))
    for name in ("n2m13", "n3m3"):
        D = ladder[name]
        T = _default_triangulation(D)
        for table in (lambda w: contact_betti_from_delta(D, w),
                      lambda w: contact_betti_direct(D, None, w)[0],
                      lambda w: hc_from_resolution(D, T, w)):
            assert len(table(wide).counts) > 40
            assert (_fraction_calls(lambda: table(narrow))
                    == _fraction_calls(lambda: table(wide)))
    # the orbifold series of n2m40 has three times the entries of n2m13's
    made = []
    for name in ("n2m13", "n2m40"):
        T = _default_triangulation(ladder[name])
        stapledon_check(ladder[name], T)
        made.append((_fraction_calls(lambda: orbifold_poincare(fan_over(T))),
                     _fraction_calls(lambda: stapledon_check(ladder[name],
                                                             T))))
    assert made[0] == made[1]


def test_tables_with_different_scales_are_equal():
    window = (F(-1), F(4))
    halves = GradedDimensions(2, {1: 1, 4: 3, -2: 5}, window)
    sixths = GradedDimensions(6, {3: 1, 12: 3, -6: 5}, window)
    assert halves == sixths and hash(halves) == hash(sixths)
    assert sixths == GradedDimensions.from_items(
        [(F(1, 2), 1), (2, 3), (-1, 5)], window)
    assert GradedDimensions(3, {}, window) == GradedDimensions(1, {}, window)
    assert halves.to_rows() == sixths.to_rows() == [
        {"degree": "-1", "dim": 5}, {"degree": "1/2", "dim": 1},
        {"degree": "2", "dim": 3}]
    assert halves != GradedDimensions(6, {3: 1, 12: 3, -6: 5, 1: 1}, window)
    assert halves != GradedDimensions(4, {2: 1, 8: 3, -4: 4}, window)
    # rows on different scales add on their common one
    thirds = GradedDimensions(3, {1: 2, 3: 1, -3: -5}, window)
    total = sum_rows({F(1, 2): halves, F(1, 3): thirds})
    assert (total.order, total.counts) == (6, {3: 1, 12: 3, 2: 2, 6: 1})
    assert total.window == window


# ---------------------------------------------------------------- properties


shear = st.integers(min_value=-2, max_value=2)
offset = st.integers(min_value=-1, max_value=1)
case = st.sampled_from([(L53, L53_TRIVIAL), (L53, L53_STAR),
                        (ORDER3, DIAG_A), (QUAD, QUAD_FLOP)])


@settings(max_examples=40, deadline=None)
@given(case, shear, shear, offset, offset)
def test_orbifold_is_a_lattice_invariant(case, a, b, sx, sy):
    D, tri = case

    def move(p):
        x, y = p
        return (x + a * y + sx, b * x + (1 + a * b) * y + sy)

    image = validate_diagram(convex_hull([move(v)
                                          for v in D.polytope.vertices]))
    moved = triangulation_from_cells(image, [move(p) for p in tri.points],
                                     tri.cells)
    validate_triangulation(image, moved)
    assert orbifold_poincare(fan_over(moved)) == orbifold_poincare(
        fan_over(tri))
