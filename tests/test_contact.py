import fractions
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import corpus_diagram, count_calls
from lattice_oracles import (Jet, JetFamily, basis_completion_by_smith,
                             contact_betti_by_passes, floor_family,
                             jet_floor_terms, jet_scaled_degree,
                             orbit_family_by_fractions, table_view)

from contactbetti import contact, exactlat
from contactbetti.contact import (
    FacetNotUnimodular,
    GenericityFailure,
    NotInterior,
    NotSimplicial,
    OrbitFamily,
    ReebVector,
    contact_betti_direct,
    contact_betti_from_delta,
    mean_euler_characteristic,
    minimal_discrepancy,
    orbit_data,
    orbit_degree,
    validate_diagram,
)
from contactbetti.corpus import corpus
from contactbetti.exactlat import smith_normal_form
from contactbetti.grading import GradedDimensions, default_window
from contactbetti.polytope import convex_hull, normalized_volume

F = Fraction

L53 = validate_diagram(convex_hull([(1, 0), (0, 1), (-1, -1)]))
ORDER3 = validate_diagram(convex_hull(
    [(F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
     (F(2, 3), F(2, 3)), (F(2, 3), F(1, 3))]))
SIMPLEX2 = validate_diagram(convex_hull([(0, 0), (1, 0), (0, 1)]))


def cb_dict(gd):
    return {d: gd.dim(d) for d in gd.degrees()}


# ---------------------------------------------------------------- validate


def test_validate_l53():
    assert L53.order == 1
    assert set(L53.normals) == {(1, 0, 1), (0, 1, 1), (-1, -1, 1)}
    assert len(L53.facet_vertex_ids) == 3


def test_validate_order3():
    assert ORDER3.order == 3
    assert set(ORDER3.normals) == {(1, 1, 3), (1, 2, 3), (2, 2, 3), (2, 1, 3)}


def test_validate_non_unimodular_facet():
    with pytest.raises(FacetNotUnimodular) as exc:
        validate_diagram(convex_hull([(0, 0), (2, 0), (0, 2)]))
    assert 2 in exc.value.invariants


def test_validate_not_simplicial():
    # square pyramid: base facet has 4 vertices
    P = convex_hull([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0),
                     (0, 0, 1)])
    with pytest.raises(NotSimplicial):
        validate_diagram(P)


# ---------------------------------------------------------------- c1 order


def c1_order(normals):
    """Least m >= 1 with an integral functional taking value m on every
    normal, or None when no multiple of the all-ones vector is hit by an
    integer functional (the non-torsion case).  An oracle for D.order."""
    A = [list(map(int, row)) for row in normals]
    S, U, _ = smith_normal_form(A)
    rows, cols = len(A), len(A[0])
    # we need x with A x = m * 1; in Smith coordinates S y = m * (U 1)
    u1 = [sum(U[i]) for i in range(rows)]
    r = sum(1 for i in range(min(rows, cols)) if S[i][i] != 0)
    if any(u1[i] != 0 for i in range(r, rows)):
        return None
    return math.lcm(*[S[i][i] // math.gcd(S[i][i], u1[i]) for i in range(r)])


def test_c1_order_examples():
    assert c1_order([(1, 0, 1), (0, 1, 1), (-1, -1, 1)]) == 1
    assert c1_order([(1, 1, 3), (1, 2, 3), (2, 2, 3), (2, 1, 3)]) == 3
    assert c1_order([(1, 0, 0), (0, 1, 0), (-1, 0, 3), (0, -1, 3)]) == 3


def test_c1_order_non_torsion():
    assert c1_order([(1, 0), (-1, 0)]) is None


def test_c1_order_matches_diagram_order():
    for D in (L53, ORDER3, SIMPLEX2):
        assert c1_order(list(D.normals)) == D.order


# ---------------------------------------------------------------- orbits


def worked_reeb():
    # lifted vector (1 + 3eps, 1 + 6eps, 3): base at a vertex, direction
    # strictly increasing so the two incident facets stay jet-interior
    return ReebVector((F(1, 3), F(1, 3)), (F(1), F(2)))


def facet_by_vertices(D, ids):
    return D.facet_vertex_ids.index(tuple(sorted(ids)))


def test_orbit_data_worked_example():
    # facet spanned by lifted normals (1,2,3) and (2,2,3), with the
    # completion eta = (0,1,1); raw solve gives b < 0 so eta is flipped
    D = ORDER3
    fid = facet_by_vertices(D, (1, 3))
    assert D.facet_normals(fid) == ((1, 2, 3), (2, 2, 3))
    jets = orbit_family_by_fractions(D, fid, worked_reeb(), eta=(0, 1, 1))
    assert jets.b_coeffs == (Jet(3, -15), Jet(-1, 9))
    assert jets.eta == (0, -1, -1)
    assert jets.k == -1
    assert jets.b == Jet(3, -18)
    # (0,1,1) is the canonical completion, so the package finds the same
    # family: b_0 / b = 1 and b_1 / b = -1/3, both slopes 9 * 3 > 0
    assert D.facet_frame(fid)[0] == ((0, 1, 1),)
    assert orbit_data(D, fid, worked_reeb()) == OrbitFamily(
        3, (0, -1, -1), -1, F(3), F(-18), ((1, 1), (-1, 3)), (1, 1))


def test_orbit_data_identity_holds():
    # nu = sum_j b_j nu_j + b eta, part by part: the value part is
    # (m v, m) with coefficients summing to 1, the slope part (m d, 0)
    # with coefficients summing to 0
    for D in (L53, SIMPLEX2, ORDER3):
        reeb = ReebVector.default_for(D)
        m, n = D.order, D.dimension
        parts = (("value", [m * x for x in reeb.base] + [m], 1),
                 ("slope", [m * x for x in reeb.direction] + [0], 0))
        for fid in range(len(D.facet_vertex_ids)):
            fam = orbit_family_by_fractions(D, fid, reeb)
            assert orbit_data(D, fid, reeb) == floor_family(fam)
            assert fam.b > Jet(0, 0)
            for part, nu, total in parts:
                bj = [getattr(c, part) for c in fam.b_coeffs]
                b = getattr(fam.b, part)
                assert sum(bj) + b * F(fam.k, m) == total
                assert [sum(c * v[i] for c, v in zip(bj, D.facet_normals(fid)))
                        + b * fam.eta[i] for i in range(n + 1)] == nu


def _bumped_solves(monkeypatch, bump):
    # every solve of orbit_data comes back with bump[j] added to entry j
    real = contact.vec_mat
    monkeypatch.setattr(contact, "vec_mat", lambda v, M: tuple(
        c + bump.get(j, 0) for j, c in enumerate(real(v, M))))


def test_orbit_data_coefficient_sum_is_checked(monkeypatch):
    _bumped_solves(monkeypatch, {0: 1})
    with pytest.raises(AssertionError,
                       match="value coefficients sum to 2, not 1"):
        orbit_data(L53, 0, ReebVector.default_for(L53))


def test_orbit_data_reconstruction_is_checked(monkeypatch):
    # the bumps cancel in the sum, so only the reconstruction fails
    _bumped_solves(monkeypatch, {0: 1, 1: -1})
    with pytest.raises(AssertionError, match="value part reconstructs"):
        orbit_data(L53, 0, ReebVector.default_for(L53))


def test_orbit_data_interior_enforced():
    with pytest.raises(NotInterior):
        orbit_data(L53, 0, ReebVector((F(2), F(2)), (F(1), F(1, 2))))
    # on a facet with outward drift
    with pytest.raises(NotInterior):
        orbit_data(ORDER3, 0, ReebVector((F(1, 3), F(1, 3)),
                                         (F(-1), F(1))))


def test_degrees_facet_through_base_diverge():
    D = ORDER3
    reeb = worked_reeb()
    for ids in ((0, 1), (0, 2)):
        fam = orbit_data(D, facet_by_vertices(D, ids), reeb)
        assert fam.diverges
        with pytest.raises(ValueError):
            cz_index(fam, 1)


def test_worked_example_degree_lists():
    D = ORDER3
    reeb = worked_reeb()
    fam2 = orbit_data(D, facet_by_vertices(D, (1, 3)), reeb)
    degs2 = [orbit_degree(fam2, N) for N in range(1, 9)]
    assert degs2[0] == F(4, 3)
    assert sorted(degs2[1:]) == [F(8 + 2 * k, 3) for k in range(7)]

    fam3 = orbit_data(D, facet_by_vertices(D, (2, 3)), reeb)
    degs3 = [orbit_degree(fam3, N) for N in range(1, 11)]
    assert degs3[:4] == [F(-2, 3), F(2, 3), F(2), F(4, 3)]
    assert sorted(degs3[4:]) == [F(8 + 2 * k, 3) for k in range(6)]


def cz_index(family, N):
    """Conley-Zehnder index of the N-th iterate: degree - n + 2."""
    return orbit_degree(family, N) - len(family.eta) + 3


def test_cz_index_structural_zero_coefficients():
    # identically zero coefficient jets land on an integer with zero slope
    # at every iterate, as in the fused count
    fam = floor_family(JetFamily(1, (1, 0, 1), 1,
                                 (Jet(0, 0), Jet(0, 0)), Jet(F(5, 2), -1)))
    for N in (1, 2, 5):
        with pytest.raises(GenericityFailure) as exc:
            cz_index(fam, N)
        assert (exc.value.N, exc.value.j) == (N, 0)


def floor_of(bj, b=Jet(1), N=1):
    """Floor of N * bj / b as computed by the package: a one-coefficient
    family with k = 0 and order 1 has CZ(gamma^N) = 2 floor + 1."""
    fam = floor_family(JetFamily(1, (0, 1), 0, (bj,), b))
    return (cz_index(fam, N) - 1) / 2


def test_integer_floor_cases():
    # off the integers the slope never matters
    assert floor_of(Jet(F(7, 3), 99)) == 2
    assert floor_of(Jet(F(7, 3), -99)) == 2
    # on an integer the slope decides, for either sign of the value
    assert floor_of(Jet(2, 1)) == 2
    assert floor_of(Jet(2, -1)) == 1
    assert floor_of(Jet(-2, 1)) == -2
    assert floor_of(Jet(-2, -1)) == -3
    # value -1/3 with positive slope: one-sided value just above -1/3
    assert floor_of(Jet(F(-1, 3), 1)) == -1
    # zero value with a slope is not a structural zero
    assert floor_of(Jet(0, 1)) == 0
    assert floor_of(Jet(0, -1)) == -1
    # the slope of the quotient also involves the slope of b: for
    # (4 + 3e)/(2 + e) it is 3*2 - 4*1 > 0, for (4 + 2e)/(2 + e) it is 0
    assert floor_of(Jet(4, 3), Jet(2, 1)) == 2
    assert floor_of(Jet(4, 1), Jet(2, 1)) == 1
    assert floor_of(Jet(F(1, 3), -1), Jet(2, 1), N=6) == 0
    with pytest.raises(GenericityFailure) as exc:
        floor_of(Jet(4, 2), Jet(2, 1))
    assert (exc.value.N, exc.value.j) == (1, 0)
    with pytest.raises(GenericityFailure) as exc:
        floor_of(Jet(5, 0))
    assert (exc.value.N, exc.value.j) == (1, 0)


def test_integer_floor_genericity_failure_site():
    # coefficient 1 is an integer with zero slope exactly at N = 3, 6, ...
    fam = floor_family(JetFamily(1, (0, 0, 1), 1,
                                 (Jet(F(1, 2), 1), Jet(F(1, 3), 0)), Jet(1)))
    assert [orbit_degree(fam, N) for N in (1, 2)] == [4, 8]
    with pytest.raises(GenericityFailure) as exc:
        orbit_degree(fam, 3)
    assert (exc.value.N, exc.value.j) == (3, 1)


def oracle_floor(x, N, j):
    """Floor of a jet by jet arithmetic, independent of the package."""
    if x.value.denominator != 1:
        return math.floor(x.value)
    if x.slope > 0:
        return x.value.numerator
    if x.slope < 0:
        return x.value.numerator - 1
    raise GenericityFailure(N, j)


def oracle_degree(fam, N):
    n = len(fam.b_coeffs)
    b = fam.b
    total = F(N * fam.k, fam.order)
    for j, bj in enumerate(fam.b_coeffs):
        # N * bj / b to first order, by the quotient rule
        quotient = Jet(N * bj.value / b.value,
                       N * (bj.slope * b.value - bj.value * b.slope)
                       / b.value ** 2)
        total += oracle_floor(quotient, N, j)
    return 2 * total + 2 * n - 2


def outcome(degree, fam, N):
    try:
        return degree(fam, N)
    except GenericityFailure as exc:
        return ("GenericityFailure", exc.N, exc.j)


small_rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coefficient = st.one_of(
    st.just(Jet(0, 0)),                             # identically zero
    st.builds(Jet, small_rat, st.sampled_from([0, 0, 1, -1, F(1, 2)])),
    st.builds(Jet, small_rat, small_rat))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 5), k=st.integers(-4, 4),
       coeffs=st.lists(coefficient, min_size=3, max_size=3),
       b_value=st.fractions(min_value=F(1, 4), max_value=3,
                            max_denominator=4),
       b_slope=small_rat)
def test_orbit_degree_matches_jet_oracle(n, m, k, coeffs, b_value, b_slope):
    jets = JetFamily(m, (0,) * n + (k,), k, tuple(coeffs[:n]),
                     Jet(b_value, b_slope))
    fam = floor_family(jets)
    for N in range(1, 13):
        want = outcome(oracle_degree, jets, N)
        assert outcome(orbit_degree, fam, N) == want
        if isinstance(want, tuple):
            break


def test_orbit_degree_matches_jet_oracle_on_diagrams():
    for D in (L53, SIMPLEX2, ORDER3):
        for reeb in (ReebVector.default_for(D), worked_reeb(),
                     ReebVector((F(1, 2), F(1, 2)), (F(1), F(1)))):
            for fid in range(len(D.facet_vertex_ids)):
                try:
                    fam = orbit_data(D, fid, reeb)
                except (NotInterior, GenericityFailure):
                    continue
                if fam.diverges:
                    continue
                jets = orbit_family_by_fractions(D, fid, reeb)
                for N in range(1, 25):
                    assert (outcome(orbit_degree, fam, N)
                            == outcome(oracle_degree, jets, N))


def test_genericity_failure():
    # direction parallel to the diagonal makes b_1/b identically 1 on
    # the facet at the far corner
    reeb = ReebVector((F(1, 2), F(1, 2)), (F(1), F(1)))
    fid = facet_by_vertices(ORDER3, (1, 3))
    fam = orbit_data(ORDER3, fid, reeb)
    with pytest.raises(GenericityFailure) as exc:
        cz_index(fam, 1)
    assert exc.value.N == 1


# ---------------------------------------------------------------- cb tables


def test_cb_l53():
    got = cb_dict(contact_betti_from_delta(L53))
    expect = {F(0): 1, F(2): 2}
    expect.update({F(2 * j): 3 for j in range(2, 6)})
    assert got == expect
    (direct,) = contact_betti_direct(L53)
    assert cb_dict(direct) == expect


def test_cb_order3():
    got = cb_dict(contact_betti_from_delta(ORDER3))
    expect = {F(-2, 3): 1, F(2, 3): 1, F(2): 1, F(4, 3): 2}
    j = F(8, 3)
    while 2 * j <= 2 * 10:  # degrees 8/3, 10/3, ... up to window top
        if j <= 10:
            expect[j] = 2
        j += F(2, 3)
    expect = {d: v for d, v in expect.items() if d <= 10}
    assert got == expect


def test_cb_pipelines_agree_worked_reeb():
    (got,) = contact_betti_direct(ORDER3, (worked_reeb(),))
    assert got == contact_betti_from_delta(ORDER3)


def test_cb_pipelines_agree_on_ladder_n3m3():
    # the pinned n = 3, m = 3 ladder diagram of the benchmark
    D = validate_diagram(convex_hull(
        [(1, -1, F(-1, 3)), (F(1, 3), F(2, 3), 0),
         (F(2, 3), F(2, 3), F(1, 3)), (1, F(2, 3), F(1, 3))]))
    assert (D.order, D.dimension) == (3, 3)
    (direct,) = contact_betti_direct(D)
    assert direct == contact_betti_from_delta(D)
    assert sum(direct.counts.values()) > 0


def test_cb_unit_simplex():
    got = cb_dict(contact_betti_from_delta(SIMPLEX2))
    assert got == {F(4): 1, F(6): 1, F(8): 1, F(10): 1}


def test_cb_pipelines_agree_multiple_reebs():
    reebs = {
        L53: [None, ReebVector((F(0), F(0)), (F(1), F(1, 7))),
              ReebVector((F(1, 5), F(1, 3)), (F(1), F(1, 13)))],
        ORDER3: [None, worked_reeb(),
                 ReebVector((F(1, 2), F(5, 12)), (F(1), F(1, 11)))],
        SIMPLEX2: [None, ReebVector((F(1, 4), F(1, 2)), (F(1), F(1, 19))),
                   ReebVector((F(1, 3), F(1, 3)), (F(1), F(1, 23)))],
    }
    for D, choices in reebs.items():
        want = contact_betti_from_delta(D)
        for reeb in choices:
            reebs = None if reeb is None else (reeb,)
            assert contact_betti_direct(D, reebs) == (want,)


def test_cb_window_restriction():
    window = (F(-2, 3), F(4))
    (a,) = contact_betti_direct(ORDER3, (worked_reeb(),), window)
    b = contact_betti_from_delta(ORDER3, window)
    assert a == b
    assert max(a.degrees()) <= 4


def test_cb_rejects_window_below_minus_two():
    with pytest.raises(ValueError):
        contact_betti_from_delta(L53, (F(-3), F(4)))


def test_facet_frames_are_built_once_for_every_reeb_vector(monkeypatch):
    # a fresh diagram: the module-level ones hold frames from other tests
    D = validate_diagram(convex_hull(ORDER3.polytope.vertices))
    hermite = count_calls(monkeypatch, exactlat, "hermite_normal_form")
    smith = count_calls(monkeypatch, exactlat, "smith_normal_form")
    checks = count_calls(monkeypatch, contact, "_check_interior")
    tables = contact_betti_direct(D, tuple(ReebVector.default_for(D, eps)
                                           for eps in (F(1, 101), F(1, 97))))
    assert tables[0] == tables[1]
    assert len(hermite) == len(D.facet_vertex_ids)
    assert smith == []
    assert len(checks) == 2  # once per Reeb vector, not once per facet
    for fid in range(len(D.facet_vertex_ids)):
        (eta,), _ = D.facet_frame(fid)
        assert (eta,) == basis_completion_by_smith(D.facet_normals(fid))
    assert len(hermite) == len(D.facet_vertex_ids)


def test_explicit_eta_inverts_its_own_basis(monkeypatch):
    # given the canonical eta, the oracle's explicit solve builds no frame
    # and finds the family the package reads off the memoized one
    D = validate_diagram(convex_hull(ORDER3.polytope.vertices))
    reeb = worked_reeb()
    hermite = count_calls(monkeypatch, exactlat, "hermite_normal_form")
    explicit = [floor_family(orbit_family_by_fractions(
        D, fid, reeb, eta=basis_completion_by_smith(D.facet_normals(fid))[0]))
        for fid in range(len(D.facet_vertex_ids))]
    assert hermite == [] and D._frames == {}
    assert explicit == [orbit_data(D, fid, reeb)
                        for fid in range(len(D.facet_vertex_ids))]


def test_eta_independence():
    rng = random.Random(7)
    D = ORDER3
    reeb = worked_reeb()
    for ids in ((1, 3), (2, 3)):
        fid = facet_by_vertices(D, ids)
        base_fam = orbit_data(D, fid, reeb)
        base_degs = [orbit_degree(base_fam, N) for N in range(1, 8)]
        normals = D.facet_normals(fid)
        for _ in range(6):
            shift = [rng.randint(-3, 3) for _ in normals]
            eta = tuple(e + sum(a * nu[i] for a, nu in zip(shift, normals))
                        for i, e in enumerate(base_fam.eta))
            fam = floor_family(orbit_family_by_fractions(D, fid, reeb,
                                                         eta=eta))
            assert [orbit_degree(fam, N) for N in range(1, 8)] == base_degs


def test_stabilization():
    # high-window values all equal the normalized volume of mD
    for D in (L53, ORDER3, SIMPLEX2):
        m, n = D.order, D.dimension
        vol = m ** n * normalized_volume(D.polytope)
        cb = contact_betti_from_delta(D)
        lo, hi = default_window(m, n)
        d = F(2 * n)
        while d <= hi:
            assert cb.dim(d) == vol
            d += F(2, m)


def test_boundary_values():
    from contactbetti.polytope import count_points
    for D in (L53, ORDER3, SIMPLEX2):
        m, n = D.order, D.dimension
        cb = contact_betti_from_delta(D)
        assert cb.dim(0) == count_points(D.polytope, m, interior=True)
        assert (cb.dim(2 * (n - 1))
                == m ** n * normalized_volume(D.polytope) - 1)


# ---------------------------------------------------------------- fused pass

LADDER = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                     / "ladder.json").read_text())


def ladder_diagram(name):
    return validate_diagram(convex_hull(
        [tuple(F(c) for c in v) for v in LADDER[name]]))


def fused_diagrams():
    named = [(name, corpus_diagram(doc)) for name, doc in corpus().items()]
    return named + [(name, ladder_diagram(name))
                    for name in ("n2m8", "n2m13", "n3m3", "n3m5", "n4m2")]


def test_fused_pass_matches_one_pass_per_vector():
    rng = random.Random(1701)
    for name, D in fused_diagrams():
        for _ in range(2):
            eps = [F(rng.choice((-1, 1)) * rng.randint(1, 12),
                     rng.randint(13, 400)) for _ in range(3)]
            reebs = tuple(ReebVector.default_for(D, e) for e in eps)
            want = tuple(table_view(contact_betti_by_passes(D, reeb))
                         for reeb in reebs)
            got = tuple(map(table_view, contact_betti_direct(D, reebs)))
            assert got == want, (name, eps)
            assert want == (table_view(contact_betti_from_delta(D)),) * 3, (
                name, eps)


def test_family_histograms_match_each_vector_facet_by_facet():
    # every vector's table equals the delta table, so a vector that took
    # another's degrees would still pass; its own facets' degrees do not
    rng = random.Random(1705)
    moved = 0
    for name, D in fused_diagrams():
        m, n = D.order, D.dimension
        d_max = default_window(m, n)[1]
        eps = [F(rng.choice((-1, 1)) * rng.randint(1, 12),
                 rng.randint(13, 400)) for _ in range(3)]
        reebs = tuple(ReebVector.default_for(D, e) for e in eps)
        nu, scale = contact._lifted(reebs[0].base, m, 1)
        reach = (d_max.numerator + 2 * d_max.denominator,
                 2 * d_max.denominator * scale)
        for fid in range(len(D.facet_vertex_ids)):
            (eta,), Binv = D.facet_frame(fid)
            basis = D.facet_normals(fid) + (eta,)
            x = contact._coordinates(D, fid, basis, Binv, "value", nu, scale)
            if x[n] == 0:
                continue
            ys = [contact._coordinates(D, fid, basis, Binv, "slope",
                                       *contact._lifted(r.direction, m, 0))
                  for r in reebs]
            got = contact._family_histograms(m, n, eta[n], x, ys, reach)
            tables = []
            for reeb, histogram in zip(reebs, got):
                fam = orbit_family_by_fractions(D, fid, reeb)
                terms = jet_floor_terms(fam)
                bound = math.ceil(fam.b.value * (d_max / 2 + 1)) + 1
                want = Counter(jet_scaled_degree(fam, terms, N)
                               for N in range(1, bound + 1))
                tables.append({2 * key + m * (2 * n - 2): c
                               for key, c in histogram.items() if c})
                assert tables[-1] == want, (name, eps, fid)
            moved += any(t != tables[0] for t in tables)
    assert moved >= 5


def _one_pass(D, reeb):
    """The oracle's table as ``table_view``, or the name of what it
    raises."""
    try:
        return table_view(contact_betti_by_passes(D, reeb))
    except (NotInterior, GenericityFailure) as exc:
        return type(exc).__name__


def _fused(D, reebs):
    try:
        return tuple(map(table_view, contact_betti_direct(D, reebs)))
    except (NotInterior, GenericityFailure) as exc:
        return type(exc).__name__


def test_fused_pass_raises_whenever_one_pass_would():
    # small integer directions from small-denominator base points often
    # land a coefficient exactly on an integer with zero slope
    rng = random.Random(1702)
    seen = Counter()
    for D in (L53, ORDER3, SIMPLEX2, corpus_diagram(corpus()["lens-skew"])):
        n, verts = D.dimension, D.polytope.vertices
        for _ in range(60):
            weights = [rng.randint(0, 3) for _ in verts]
            if not any(weights):
                continue
            base = tuple(sum(w * v[i] for w, v in zip(weights, verts))
                         / sum(weights) for i in range(n))
            reebs = tuple(ReebVector(base, tuple(
                F(rng.randint(-2, 2)) for _ in range(n))) for _ in range(3))
            outcomes = [_one_pass(D, reeb) for reeb in reebs]
            if "NotInterior" in outcomes:
                want = "NotInterior"
            elif "GenericityFailure" in outcomes:
                want = "GenericityFailure"
            else:
                want = tuple(outcomes)
            got = _fused(D, reebs)
            assert got == want, (D, reebs)
            seen[want if isinstance(want, str) else "tables"] += 1
    assert min(seen.values()) >= 10, seen


def test_fused_failure_names_the_first_bad_iterate_of_any_vector():
    # the diagonal direction makes b_1/b identically 1 on the far facet
    # (a zero slope at N = 1); the other two vectors are generic
    base = (F(1, 2), F(1, 2))
    reebs = (ReebVector(base, (F(1), F(1, 3))),
             ReebVector(base, (F(1), F(1))),
             ReebVector(base, (F(1), F(2, 7))))
    with pytest.raises(GenericityFailure) as exc:
        contact_betti_direct(ORDER3, reebs)
    assert exc.value.N == 1
    with pytest.raises(ValueError, match="share one base point"):
        contact_betti_direct(ORDER3, (worked_reeb(), reebs[0]))


def test_identically_zero_coefficient_is_a_genericity_failure():
    # perturbation 0: the lens triangle's centroid direction (1, 0) gives
    # facets 0 and 1 a coefficient jet Jet(0, 0)
    D = corpus_diagram(corpus()["lens-triangle"])
    reeb = ReebVector.default_for(D, F(0))
    coeffs = [orbit_family_by_fractions(D, fid, reeb).b_coeffs
              for fid in range(3)]
    assert [Jet(0, 0) in c for c in coeffs] == [True, True, False]
    with pytest.raises(GenericityFailure) as exc:
        contact_betti_direct(D, (reeb,))
    assert (exc.value.N, exc.value.j) == (1, 0)
    # orbits reads the same floor data: the first iterate fails there too
    for fid in (0, 1):
        with pytest.raises(GenericityFailure) as exc:
            orbit_degree(orbit_data(D, fid, reeb), 1)
        assert (exc.value.N, exc.value.j) == (1, coeffs[fid].index(Jet(0, 0)))


def _fraction_callers(fn):
    """fn(), and per function of ``contact`` the calls into the fractions
    module made below it (its innermost frame of ``contact``)."""
    callers = Counter()

    def hook(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename == fractions.__file__):
            caller = frame.f_back
            while (caller is not None
                   and caller.f_code.co_filename != contact.__file__):
                caller = caller.f_back
            callers[caller.f_code.co_name if caller else None] += 1
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, callers


def test_fused_solve_and_iterate_loop_create_no_fraction():
    D = ladder_diagram("n2m13")
    D.facet_frame(0)
    reebs = tuple(ReebVector.default_for(D, e)
                  for e in (F(1, 101), F(1, 97), F(1, 89)))
    tables, callers = _fraction_callers(
        lambda: contact_betti_direct(D, reebs))
    assert tables == (contact_betti_from_delta(D),) * 3
    assert callers  # the window, the base point and the output degrees
    for name in ("_facet_solve", "_coordinates", "_floor_data",
                 "_family_histograms", "_floor_histogram"):
        assert callers[name] == 0, callers
    # orbit_data shares the integer solve and floor data, and makes only
    # b and b_slope Fractions after them
    _, made = _fraction_callers(lambda: orbit_data(D, 0, reebs[0]))
    assert made["orbit_data"] > 0, made
    for name in ("_facet_solve", "_coordinates", "_floor_data"):
        assert made[name] == 0, made


# ---------------------------------------------------------------- scalars


def test_mean_euler():
    assert mean_euler_characteristic(L53) == F(3, 2)
    assert mean_euler_characteristic(SIMPLEX2) == F(1, 2)
    assert mean_euler_characteristic(ORDER3) == 3


def test_mean_euler_identity_is_checked(monkeypatch):
    real = contact.normalized_volume
    monkeypatch.setattr(contact, "normalized_volume", lambda P: real(P) + 1)
    with pytest.raises(AssertionError,
                       match="characteristic 2 differs from half the delta "
                             "mass 3/2"):
        mean_euler_characteristic(L53)


def test_minimal_discrepancy():
    assert minimal_discrepancy(L53) == 0
    assert minimal_discrepancy(SIMPLEX2) == 2
    assert minimal_discrepancy(ORDER3) == F(-1, 3)


def test_minimal_discrepancy_without_interior_point(monkeypatch):
    monkeypatch.setattr(contact, "count_points", lambda P, t, interior: 0)
    with pytest.raises(AssertionError,
                       match="no interior point up to dilate .* = 3"):
        minimal_discrepancy(L53)


def test_minimal_discrepancy_top_delta_index_is_checked(monkeypatch):
    # hide the interior point of the first dilate: the scan then says 1
    real = contact.count_points
    monkeypatch.setattr(contact, "count_points", lambda P, t, interior: (
        0 if t == 1 else real(P, t, interior)))
    with pytest.raises(AssertionError, match="discrepancy 1 from the dilate "
                                             "scan, 0 from the top delta"):
        minimal_discrepancy(L53)


def test_minimal_discrepancy_lowest_degree_is_checked(monkeypatch):
    monkeypatch.setattr(contact, "contact_betti_from_delta",
                        lambda D: GradedDimensions(1, {2: 1}, (0, 8)))
    with pytest.raises(AssertionError, match="discrepancy 0 is not the "
                                             "lowest graded degree 2"):
        minimal_discrepancy(L53)
