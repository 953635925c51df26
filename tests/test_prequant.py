import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BaseNotSmooth, corpus_diagram, hc_smooth_base
from lattice_oracles import (basis_completion_by_smith,
                             cone_skeleton_by_rays,
                             fundamental_group_order_by_minors,
                             inverse_by_fractions, lattice_index)
from contactbetti.contact import (
    FacetNotUnimodular,
    NotInterior,
    ToricDiagram,
    contact_betti_from_delta,
    validate_diagram,
)
from contactbetti.corpus import corpus
from contactbetti.ehrhart import delta_vector
from contactbetti.exactlat import (det_int, primitive_vector, rat_rank,
                                  vec_mat)
from contactbetti.polytope import (convex_hull, cone_rays, labelled_polytope,
                                   normalized_volume)
from contactbetti.prequant import (
    ConeFace,
    NotGorenstein,
    NotPrimitive,
    diagram_from_labelled,
    fundamental_group_order,
    good_cone,
    gorenstein_r,
    hc_from_quotient,
    hc_quotient_rows,
    is_good_cone,
    orbifold_cohomology_of_base,
    quotient_polytope,
    twisted_sectors,
)

F = Fraction

L53 = validate_diagram(convex_hull([(1, 0), (0, 1), (-1, -1)]))
L53_ALT = validate_diagram(convex_hull([(0, 0), (1, 0), (2, 3)]))
SIMPLEX = validate_diagram(convex_hull([(0, 0), (1, 0), (0, 1)]))
SQUARE = validate_diagram(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
QUAD = validate_diagram(convex_hull([(0, 0), (1, 0), (0, 1), (2, 2)]))
# one Z/2 vertex in the quotient base; vertices sort to v0=(-1,-1)
# v1=(0,1) v2=(2,0)
TEARDROP = validate_diagram(convex_hull([(0, 1), (2, 0), (-1, -1)]))
# two Z/2 vertices at the images of (2,0) and (-2,0); vertices sort to
# v0=(-2,0) v1=(0,-1) v2=(0,1) v3=(2,0)
RHOMBUS = validate_diagram(convex_hull([(0, 1), (2, 0), (0, -1), (-2, 0)]))
ORDER3 = validate_diagram(convex_hull(
    [(F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
     (F(2, 3), F(2, 3)), (F(2, 3), F(1, 3))]))
HALF53 = validate_diagram(convex_hull(
    [(F(1, 2), 0), (0, F(1, 2)), (F(-1, 2), F(-1, 2))]))

LADDER = json.loads((Path(__file__).parent.parent / "perfbench"
                     / "ladder.json").read_text())


# unimodular frame sending the direction (1,1,2) to the last basis vector
FRAME = ((-2, 0, 1), (-1, 1, 0), (1, 0, 0))

# integral diagrams with primitive interior directions; two directions on
# one diagram, and bases of every flavour (smooth, one or two orbifold
# vertices, an orbifold edge stratum, mixed isotropy orders)
CASES = [
    (L53, (0, 0, 1)),
    (L53, (1, 1, 3)),
    (L53_ALT, (1, 1, 2)),
    (SIMPLEX, (1, 1, 3)),
    (SIMPLEX, (1, 2, 4)),
    (SQUARE, (1, 1, 2)),
    (QUAD, (1, 1, 1)),
    (QUAD, (2, 3, 3)),
    (TEARDROP, (0, 0, 1)),
    (RHOMBUS, (0, 0, 1)),
]

CP2_UNIT = labelled_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, 1])
CP2_TRIPLE = labelled_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, 3])
SQ_UNIT = labelled_polytope([(1, 0), (0, 1), (-1, 0), (0, -1)],
                            [0, 0, 1, 1])
SQ_DOUBLE = labelled_polytope([(1, 0), (0, 1), (-1, 0), (0, -1)],
                              [0, 0, 2, 2])
LENS_BASE = labelled_polytope([(1, 0), (-1, -1), (-3, 1)], [0, 1, 2])


def profile(table, degrees):
    return tuple(table.dim(d) for d in degrees)


# ---------------------------------------------------------------- cones


def test_lens_cone_skeleton():
    C = good_cone(L53)
    assert cone_rays(L53.normals) == ((-1, -1, 1), (-1, 2, 1), (2, -1, 1))
    assert len(C.faces) == 7
    assert sorted(f.dim for f in C.faces) == [1, 1, 1, 2, 2, 2, 3]
    assert C.faces[0].tight == ()


def cone_faces_oracle(normals):
    """The faces of {y : <nu_j, y> >= 0} by a walk over all 2^d subsets J
    of the facets: each nonempty set of rays tight on all of J is a face."""
    rays = cone_rays(normals)
    zero_sets = [frozenset(j for j, nu in enumerate(normals)
                           if sum(a * b for a, b in zip(nu, ray)) == 0)
                 for ray in rays]
    seen = {}
    for size in range(len(normals) + 1):
        for J in itertools.combinations(range(len(normals)), size):
            members = frozenset(i for i, z in enumerate(zero_sets)
                                if set(J) <= z)
            if members and members not in seen:
                tight = frozenset.intersection(*[zero_sets[i]
                                                 for i in members])
                seen[members] = ConeFace(tuple(sorted(tight)), rat_rank(
                    [rays[i] for i in members]))
    return sorted(seen.values(), key=lambda f: (len(f.tight), f.tight))


# smooth, with 18 vertices: 2^18 subsets of facets for 37 faces
PARABOLA18 = validate_diagram(convex_hull(
    [(i, i * i) for i in range(-8, 9)] + [(8, 65)]))


def _cross_polytope(n):
    return [tuple(s * (i == k) for i in range(n))
            for k in range(n) for s in (1, -1)]


def _named_diagram(name):
    if name == "parabola-18":
        return PARABOLA18
    if name in LADDER:
        return validate_diagram(convex_hull(
            [tuple(F(c) for c in v) for v in LADDER[name]]))
    if name.startswith("cross-"):
        return validate_diagram(convex_hull(_cross_polytope(int(name[6:]))))
    return corpus_diagram(corpus()[name])


@pytest.mark.parametrize("name", sorted(corpus()) + [
    "parabola-18", "n3m3", "n4m2", "cross-3", "cross-4"])
def test_cone_faces_match_the_subset_walk(name):
    # the faces read off the diagram's face lattice are the faces of the
    # cone whose rays are enumerated again
    D = _named_diagram(name)
    faces = list(good_cone(D).faces)
    assert faces == cone_faces_oracle(D.normals)
    assert faces == list(cone_skeleton_by_rays(D.normals)[1])


def test_diagram_cones_are_good():
    for D in (L53, L53_ALT, SIMPLEX, SQUARE, QUAD, TEARDROP, RHOMBUS,
              ORDER3, HALF53):
        assert is_good_cone(D).good


def test_good_cone_rays_are_the_diagram_facets():
    # <(m v, m), (a, c)> = m (<a, v> + c): the facet <a, x> + c >= 0
    # is the ray (a, c), tight on the lifts of the facet's vertices
    for D in map(corpus_diagram, corpus().values()):
        facets = {primitive_vector(f.normal + (f.offset,)): f.vertex_ids
                  for f in D.polytope.facets}
        rays = cone_rays(D.normals)
        assert rays == tuple(sorted(facets))
        for ray in rays:
            assert tuple(j for j, nu in enumerate(D.normals)
                         if sum(a * b for a, b in zip(nu, ray)) == 0
                         ) == facets[ray]


def test_plane_cone_with_coarse_apex_is_good():
    # the diagram [0, 2]: only the proper faces are tested; the apex
    # sublattice, spanned by (0, 1) and (2, 1), has index 2
    D = validate_diagram(convex_hull([(0,), (2,)]))
    assert D.normals == ((0, 1), (2, 1))
    assert abs(det_int(D.normals)) == 2
    assert is_good_cone(D).good


def test_goodness_failure_certificate():
    # the edge from (-1, -2) to (1, 0) lifts to a sublattice of index 2
    P = convex_hull([(1, 0), (-1, -2), (0, 1)])
    with pytest.raises(FacetNotUnimodular) as err:
        validate_diagram(P)
    assert err.value.invariants == (1, 2)
    # a diagram built by hand, never validated, fails at that face
    normals = tuple(tuple(int(c) for c in v) + (1,) for v in P.vertices)
    D = ToricDiagram(P, 1, normals,
                     tuple(f.vertex_ids for f in P.facets))
    assert normals[0] == (-1, -2, 1) and normals[2] == (1, 0, 1)
    rep = is_good_cone(D)
    assert not rep.good
    assert rep.failing_face == (0, 2)
    assert rep.invariants == (1, 2)
    with pytest.raises(ValueError, match="not good"):
        good_cone(D)


def test_sector_direction_must_be_primitive():
    C = good_cone(L53)
    assert twisted_sectors(C, (0, 0, 1))
    with pytest.raises(NotPrimitive):
        twisted_sectors(C, (0, 0, 2))


# ---------------------------------------------------------------- labels


def test_gorenstein_period_of_weighted_bases():
    assert gorenstein_r(CP2_UNIT) == (3, (1, 1))
    assert gorenstein_r(CP2_TRIPLE) == (1, (1, 1))
    assert gorenstein_r(SQ_UNIT) == (2, (1, 1))
    assert gorenstein_r(SQ_DOUBLE) == (1, (1, 1))
    assert gorenstein_r(LENS_BASE) == (2, (1, 0))


def test_gorenstein_period_can_be_missing():
    fractional = labelled_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, 2])
    assert gorenstein_r(fractional) is None
    inconsistent = labelled_polytope([(1, 0), (0, 1), (-1, 0), (0, -1)],
                                     [0, 0, 1, 2])
    assert gorenstein_r(inconsistent) is None
    with pytest.raises(NotGorenstein):
        diagram_from_labelled(fractional)


def test_prequantization_diagrams():
    for delta, entries in [(CP2_UNIT, (1, 0, 0)), (CP2_TRIPLE, (1, 1, 1)),
                           (SQ_UNIT, (1, 1, 0)), (SQ_DOUBLE, (1, 2, 1)),
                           (LENS_BASE, (1, 1, 1))]:
        D = diagram_from_labelled(delta)
        assert D.order == 1
        assert delta_vector(D.polytope).entries == entries


# ---------------------------------------------------------------- quotients


def base_in_frame(D, G):
    """The labelled base cut out by a unimodular frame G: each lifted
    normal's image under G, its last entry the offset."""
    images = [tuple(sum(a * x for a, x in zip(row, v)) for row in G)
              for v in D.normals]
    return labelled_polytope([u[:-1] for u in images],
                             [u[-1] for u in images])


def vertex_indices(base):
    return sorted(abs(det_int([base.weighted_normals[i] for i in tight]))
                  for tight in base.vertex_facets)


def test_lens_quotient_in_the_worked_frame():
    assert vec_mat((1, 1, 2), tuple(zip(*FRAME))) == (0, 0, 1)
    base = base_in_frame(L53_ALT, FRAME)
    assert base.weighted_normals == ((1, 0), (-1, -1), (-3, 1))
    assert base.offsets == (0, 1, 2)
    assert base.labels == (1, 1, 1)
    assert base.polytope.vertices == ((0, -2), (0, 1), (F(3, 4), F(1, 4)))
    assert gorenstein_r(base) == (2, (1, 0))
    Q = quotient_polytope(L53_ALT, (1, 1, 2))
    assert Q.r == 2 and Q.order == 1 and not Q.smooth


def test_lens_quotient_in_the_canonical_frame():
    # the package's frame cuts out another base, equivalent to the worked
    # one: same volume, vertex indices and Gorenstein r
    worked = base_in_frame(L53_ALT, FRAME)
    Qc = quotient_polytope(L53_ALT, (1, 1, 2))
    assert Qc.base.weighted_normals == ((0, 1), (1, 1), (-1, -5))
    assert Qc.base.offsets == (0, 0, 3)
    assert (normalized_volume(Qc.base.polytope)
            == normalized_volume(worked.polytope))
    assert vertex_indices(Qc.base) == vertex_indices(worked) == [1, 1, 4]
    assert gorenstein_r(Qc.base)[0] == gorenstein_r(worked)[0] == 2


def test_quotient_direction_gates():
    with pytest.raises(NotPrimitive):
        quotient_polytope(L53_ALT, (2, 2, 4))
    with pytest.raises(ValueError, match="needs 3 entries"):
        quotient_polytope(L53_ALT, (1, 2))
    with pytest.raises(NotInterior):
        quotient_polytope(L53_ALT, (1, 1, 0))
    with pytest.raises(NotInterior):
        quotient_polytope(L53_ALT, (5, 1, 2))
    # (0,0) is a vertex of the diagram, not an interior point
    with pytest.raises(NotInterior):
        quotient_polytope(L53_ALT, (0, 0, 1))


def test_smooth_flags():
    smooth = [(L53, (0, 0, 1)), (SIMPLEX, (1, 1, 3)), (SQUARE, (1, 1, 2)),
              (QUAD, (1, 1, 1))]
    orbifold = [(L53, (1, 1, 3)), (L53_ALT, (1, 1, 2)), (SIMPLEX, (1, 2, 4)),
                (QUAD, (2, 3, 3)), (TEARDROP, (0, 0, 1)),
                (RHOMBUS, (0, 0, 1))]
    assert all(quotient_polytope(D, nu).smooth for D, nu in smooth)
    assert not any(quotient_polytope(D, nu).smooth for D, nu in orbifold)


# ---------------------------------------------------------------- sectors


def test_lens_sector_table():
    Q = quotient_polytope(L53_ALT, (1, 1, 2))
    assert tuple(s.period for s in Q.sectors) == (F(1, 4), F(1, 2), F(3, 4), 1)
    for k, sector in zip((1, 2, 3), Q.sectors):
        comp, = sector.components
        assert comp.face == (1, 2)
        assert membership_coefficients(L53_ALT, (1, 1, 2), sector.period,
                                       comp.face) == (F(k, 4), F(k, 4))
        assert comp.shift == k
        assert comp.h == (1,)
    base, = Q.sectors[-1].components
    assert base.face == () and base.shift == 0 and base.h == (1, 1, 1)


def test_period_one_sector_always_present():
    for D, nu in CASES:
        Q = quotient_polytope(D, nu)
        assert Q.sectors[-1].period == 1
        base = [c for c in Q.sectors[-1].components if not c.face]
        assert len(base) == 1
        assert base[0].shift == 0
        assert base[0].h[0] == 1
        assert sum(base[0].h) == len(Q.base.polytope.vertices)


def test_teardrop_sector_is_an_edge_stratum():
    Q = quotient_polytope(TEARDROP, (0, 0, 1))
    assert tuple(s.period for s in Q.sectors) == (F(1, 2), 1)
    comp, = Q.sectors[0].components
    # the fixed stratum is the whole edge under the vertex (2,0)
    assert comp.face == (2,)
    assert membership_coefficients(TEARDROP, (0, 0, 1), F(1, 2),
                                   comp.face) == (F(1, 2),)
    assert comp.shift == 1
    assert comp.h == (1, 1)


def test_rhombus_has_two_components_of_one_period():
    Q = quotient_polytope(RHOMBUS, (0, 0, 1))
    assert tuple(s.period for s in Q.sectors) == (F(1, 2), 1)
    halves = Q.sectors[0].components
    assert tuple(c.face for c in halves) == ((0,), (3,))
    assert all(c.shift == 1 and c.h == (1, 1) for c in halves)
    base, = Q.sectors[-1].components
    assert base.h == (1, 2, 1)


def test_mixed_isotropy_periods():
    Q = quotient_polytope(QUAD, (2, 3, 3))
    assert tuple(s.period for s in Q.sectors) == (
        F(1, 5), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(4, 5), 1)
    third, = [s for s in Q.sectors if s.period == F(1, 3)][0].components
    assert third.face == (0, 2)
    assert membership_coefficients(QUAD, (2, 3, 3), F(1, 3),
                                   third.face) == (F(2, 3), F(1, 3))
    assert third.shift == 2
    last, = [s for s in Q.sectors if s.period == F(4, 5)][0].components
    assert last.face == (2, 3)
    assert last.shift == F(16, 5)


def membership_coefficients(D, nu, T, face):
    """The c_j in [0, 1), j in face, with T nu + sum_j c_j nu_j integral:
    c_j = frac(-T y_j) for the coordinates y of nu in the face's normals
    completed to a lattice basis (the Smith-form oracle's completion)."""
    if not face:
        return ()
    normals = tuple(D.normals[j] for j in face)
    basis = normals + basis_completion_by_smith(normals)
    y = vec_mat(nu, inverse_by_fractions(basis))
    return tuple((-T * y[i]) % 1 for i in range(len(face)))


def test_sector_membership_is_integral():
    # every listed component has fractional membership coefficients, and
    # its degree shift c_T is their doubled sum
    for D, nu in CASES:
        Q = quotient_polytope(D, nu)
        for sector in Q.sectors:
            for comp in sector.components:
                coeffs = membership_coefficients(D, nu, sector.period,
                                                 comp.face)
                assert all(0 < c < 1 for c in coeffs)
                assert comp.shift == 2 * sum(coeffs)
                total = [sector.period * x for x in nu]
                for j, c in zip(comp.face, coeffs):
                    total = [t + c * x for t, x in zip(total, D.normals[j])]
                assert all(t.denominator == 1 for t in total)


def test_equal_period_components_are_disjoint():
    for D, nu in CASES:
        Q = quotient_polytope(D, nu)
        for sector in Q.sectors:
            comps = sector.components
            for i in range(len(comps)):
                for j in range(i + 1, len(comps)):
                    union = set(comps[i].face) | set(comps[j].face)
                    assert not any(union <= set(tight)
                                   for tight in Q.base.vertex_facets)


def test_census_matches_vertex_isotropy():
    for D, nu in CASES:
        Q = quotient_polytope(D, nu)
        comps = [c.face for s in Q.sectors for c in s.components]
        for tight in Q.base.vertex_facets:
            iso = lattice_index([D.normals[j] for j in tight] + [list(nu)])
            assert iso == sum(1 for face in comps
                              if set(face) <= set(tight))


# ---------------------------------------------------------------- cohomology


def test_lens_base_orbifold_cohomology():
    Q = quotient_polytope(L53_ALT, (1, 1, 2))
    H = orbifold_cohomology_of_base(Q)
    assert list(H.degrees()) == [0, 1, 2, 3, 4]
    assert profile(H, (0, 1, 2, 3, 4)) == (1, 1, 2, 1, 1)


def test_fractional_degrees_at_singular_faces():
    Q = quotient_polytope(L53, (1, 1, 3))
    H = orbifold_cohomology_of_base(Q)
    assert list(H.degrees()) == [F(k, 2) for k in range(9)]
    assert all(H.dim(F(k, 2)) == 1 for k in range(9))


def test_smooth_base_cohomology_is_classical():
    for D, nu, hs in [(SIMPLEX, (1, 1, 3), (1, 1, 1)),
                      (SQUARE, (1, 1, 2), (1, 2, 1)),
                      (QUAD, (1, 1, 1), (1, 2, 1))]:
        H = orbifold_cohomology_of_base(quotient_polytope(D, nu))
        assert list(H.degrees()) == [0, 2, 4]
        assert profile(H, (0, 2, 4)) == hs


def test_rounding_recovers_delta_at_period_one():
    for D, nu in [(L53, (0, 0, 1)), (QUAD, (1, 1, 1)),
                  (TEARDROP, (0, 0, 1)), (RHOMBUS, (0, 0, 1))]:
        Q = quotient_polytope(D, nu)
        assert Q.r == 1
        H = orbifold_cohomology_of_base(Q)
        entries = delta_vector(D.polytope).entries
        n = D.dimension
        for k in range(n + 1):
            band = sum(H.dim(d) for d in H.degrees()
                       if 2 * k <= d < 2 * k + 2)
            assert band == entries[n - k]


# ---------------------------------------------------------------- tables


def test_lens_contribution_rows():
    Q = quotient_polytope(L53_ALT, (1, 1, 2))
    rows = hc_quotient_rows(Q, (0, 12))
    evens = tuple(range(0, 13, 2))
    assert set(rows) == {F(1, 4), F(1, 2), F(3, 4), 1}
    assert profile(rows[F(1, 4)], evens) == (1, 0, 1, 0, 1, 0, 1)
    assert profile(rows[F(1, 2)], evens) == (0, 1, 0, 1, 0, 1, 0)
    assert profile(rows[F(3, 4)], evens) == (0, 0, 1, 0, 1, 0, 1)
    assert profile(rows[1], evens) == (0, 1, 1, 2, 1, 2, 1)
    total = hc_from_quotient(Q, (0, 12))
    assert profile(total, evens) == (1, 2, 3, 3, 3, 3, 3)
    assert all(total.dim(d) == 0 for d in range(1, 12, 2))


def test_tables_over_smooth_bases():
    for D, nu, hi, dims in [
            (SIMPLEX, (1, 1, 3), 8, (0, 0, 1, 1, 1)),
            (L53, (0, 0, 1), 6, (1, 2, 3, 3)),
            (SQUARE, (1, 1, 2), 10, (0, 1, 2, 2, 2, 2)),
            (QUAD, (1, 1, 1), 8, (1, 3, 4, 4, 4))]:
        Q = quotient_polytope(D, nu)
        evens = tuple(range(0, hi + 1, 2))
        assert profile(hc_smooth_base(Q, (0, hi)), evens) == dims
        assert profile(hc_from_quotient(Q, (0, hi)), evens) == dims


def test_tables_match_the_counting_pipeline():
    for D, nu in CASES:
        Q = quotient_polytope(D, nu)
        assert hc_from_quotient(Q) == contact_betti_from_delta(D)


def test_round_trip_preserves_delta():
    for D, nu in CASES:
        Q = quotient_polytope(D, nu)
        image = diagram_from_labelled(Q.base)
        assert delta_vector(image.polytope) == delta_vector(D.polytope)


def test_tables_require_an_integral_diagram():
    Q = quotient_polytope(HALF53, (0, 0, 1))
    assert Q.order == 2 and Q.smooth
    with pytest.raises(NotGorenstein):
        hc_from_quotient(Q)
    with pytest.raises(NotGorenstein):
        hc_smooth_base(Q)


def test_smooth_table_requires_a_manifold_base():
    with pytest.raises(BaseNotSmooth):
        hc_smooth_base(quotient_polytope(L53_ALT, (1, 1, 2)))


# ---------------------------------------------------------------- invariants


def test_fundamental_group_orders():
    for D, p in [(L53, 3), (L53_ALT, 3), (SIMPLEX, 1), (SQUARE, 1),
                 (QUAD, 1), (TEARDROP, 5), (RHOMBUS, 4), (ORDER3, 3)]:
        assert fundamental_group_order(D) == p


@pytest.mark.parametrize(
    "name", sorted(corpus()) + sorted(LADDER) + ["parabola-%d" % k
                                                 for k in (2, 4, 6)])
def test_fundamental_group_order_is_the_gcd_of_maximal_minors(name):
    if name in LADDER:
        D = validate_diagram(convex_hull(
            [tuple(F(c) for c in v) for v in LADDER[name]]))
    elif name.startswith("parabola"):
        k = int(name.split("-")[1])
        D = validate_diagram(convex_hull(
            [(i, i * i) for i in range(-k, k + 1)] + [(k, k * k + 1)]))
    else:
        D = corpus_diagram(corpus()[name])
    assert fundamental_group_order(D) == fundamental_group_order_by_minors(D)


def test_minimal_chern_numbers():
    # over a manifold base the minimal Chern number is r |pi_1|
    for D, nu, mu in [(L53, (0, 0, 1), 3), (SIMPLEX, (1, 1, 3), 3),
                      (SQUARE, (1, 1, 2), 2), (QUAD, (1, 1, 1), 1)]:
        Q = quotient_polytope(D, nu)
        assert Q.smooth
        assert Q.r * fundamental_group_order(D) == mu
    assert not quotient_polytope(L53_ALT, (1, 1, 2)).smooth


# ---------------------------------------------------------------- properties


shear = st.integers(min_value=-2, max_value=2)
offset = st.integers(min_value=-1, max_value=1)
case = st.sampled_from([(L53, (0, 0, 1)), (L53_ALT, (1, 1, 2)),
                        (QUAD, (2, 3, 3)), (RHOMBUS, (0, 0, 1))])


@settings(max_examples=30, deadline=None)
@given(case, shear, shear, offset, offset)
def test_quotient_is_a_lattice_invariant(case, a, b, sx, sy):
    D, nu = case

    def move(p):
        x, y = p
        return (x + a * y + sx, b * x + (1 + a * b) * y + sy)

    image = validate_diagram(convex_hull([move(v)
                                          for v in D.polytope.vertices]))
    moved_nu = (nu[0] + a * nu[1] + sx * nu[2],
                b * nu[0] + (1 + a * b) * nu[1] + sy * nu[2], nu[2])
    Q = quotient_polytope(D, nu)
    Qm = quotient_polytope(image, moved_nu)
    assert Qm.r == Q.r and Qm.smooth == Q.smooth

    def summary(Qx):
        return sorted((s.period, c.shift, c.h, len(c.face))
                      for s in Qx.sectors for c in s.components)

    assert summary(Qm) == summary(Q)
    assert orbifold_cohomology_of_base(Qm) == orbifold_cohomology_of_base(Q)
    assert hc_from_quotient(Qm) == hc_from_quotient(Q)
