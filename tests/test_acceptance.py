"""Numbered end-to-end acceptance checks.

Every check pins exact integer/Fraction values, so there are no
tolerances anywhere.  Tests register in CHECKLIST under a criterion
number; the terminal-summary hook in conftest prints one PASS/FAIL
line per criterion after the run.
"""
import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

from conftest import brute_forced_reflexive_polygons, hc_smooth_base
from lattice_oracles import interior_count_by_reciprocity
from contactbetti import cli
from contactbetti.contact import (
    FacetNotUnimodular,
    GenericityFailure,
    ReebVector,
    contact_betti_direct,
    contact_betti_from_delta,
    orbit_data,
    orbit_degree,
    validate_diagram,
)
from contactbetti.corpus import corpus
from contactbetti.ehrhart import delta_vector, quasipolynomial
from contactbetti.exactlat import unimodular_frame
from contactbetti.grading import GradedDimensions, default_window
from contactbetti.polytope import (
    convex_hull,
    count_points,
    dual_polytope,
    labelled_polytope,
    normalized_volume,
)
from contactbetti.prequant import (
    diagram_from_labelled,
    gorenstein_r,
    hc_from_quotient,
    hc_quotient_rows,
    orbifold_cohomology_of_base,
    quotient_polytope,
)
from contactbetti.resolution import (
    hc_from_resolution,
    hc_sector_rows,
    star_triangulation,
    stapledon_check,
    triangulation_from_cells,
    trivial_triangulation,
)

F = Fraction

LENS = validate_diagram(convex_hull([(1, 0), (0, 1), (-1, -1)]))
ORDER3 = validate_diagram(convex_hull(
    [(F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
     (F(2, 3), F(2, 3)), (F(2, 3), F(1, 3))]))
QUAD = validate_diagram(convex_hull([(0, 0), (1, 0), (0, 1), (2, 2)]))

EVENS = tuple(F(d) for d in range(0, 14, 2))

CHECKLIST = {}


def criterion(number, title):
    """Register a test under its checklist number (reported by conftest)."""
    def register(fn):
        CHECKLIST[fn.__name__] = (number, title)
        return fn
    return register


def diagram_of(doc):
    if doc["kind"] == "diagram":
        return validate_diagram(convex_hull(
            [tuple(F(c) for c in v) for v in doc["vertices"]]))
    return diagram_from_labelled(
        labelled_polytope(doc["normals"], doc["offsets"]))


def quotient_of(doc):
    # lift the labelled base to its diagram and quotient straight back;
    # the direction is the last column of the basis completing (w, r)
    delta = labelled_polytope(doc["normals"], doc["offsets"])
    r, w = gorenstein_r(delta)
    lift = unimodular_frame([tuple(w) + (r,)])[0]
    nu = tuple(row[-1] for row in lift) + (r,)
    return quotient_polytope(diagram_from_labelled(delta), nu)


def facet_by_vertices(D, ids):
    return D.facet_vertex_ids.index(tuple(sorted(ids)))


def dims(gd, degrees):
    return tuple(gd.dim(d) for d in degrees)


@criterion(1, "reflexive triangle h-star vector and counting polynomial")
def test_triangle_delta_and_counting_polynomial():
    dv = delta_vector(LENS.polytope)
    assert dv.entries == (1, 1, 1)
    qp = quasipolynomial(LENS.polytope)
    assert qp.period == 1
    # single branch (3t^2 + 3t + 2)/2, ascending coefficients
    assert qp.branches == ((F(1), F(3, 2), F(3, 2)),)
    assert [qp.evaluate(t) for t in range(5)] == [1, 4, 10, 19, 31]


@criterion(2, "order-three square h-star vector and branches")
def test_order_three_square_delta_and_branches():
    dv = delta_vector(ORDER3.polytope)
    assert dv.entries == (1, 0, 1, 1, 1, 1, 0, 1, 0)
    qp = quasipolynomial(ORDER3.polytope)
    assert qp.period == 3
    assert qp.branches[0] == (F(1), F(2, 3), F(1, 9))      # (t + 3)^2 / 9
    assert qp.branches[1] == (F(1, 9), F(-2, 9), F(1, 9))  # (t - 1)^2 / 9
    assert qp.branches[2] == (F(1, 9), F(2, 9), F(1, 9))   # (t + 1)^2 / 9


@criterion(3, "direct orbit census equals the series pipeline on the corpus")
def test_direct_and_series_pipelines_agree():
    for name, doc in corpus().items():
        D = diagram_of(doc)
        reference = contact_betti_from_delta(D)
        reebs = tuple(ReebVector.default_for(D, perturb)
                      for perturb in (F(1, 101), F(1, 97), F(1, 89)))
        assert contact_betti_direct(D, reebs) == (reference,) * 3, name


@criterion(4, "orbit degrees for a Reeb vector based at a square vertex")
def test_vertex_based_reeb_degree_lists():
    reeb = ReebVector((F(1, 3), F(1, 3)), (F(1), F(2)))
    fam_top = orbit_data(ORDER3, facet_by_vertices(ORDER3, (1, 3)), reeb)
    degs = [orbit_degree(fam_top, N) for N in range(1, 9)]
    assert degs[0] == F(4, 3)
    assert sorted(degs[1:]) == [F(8 + 2 * k, 3) for k in range(7)]

    fam_right = orbit_data(ORDER3, facet_by_vertices(ORDER3, (2, 3)), reeb)
    degs = [orbit_degree(fam_right, N) for N in range(1, 11)]
    assert degs[:4] == [F(-2, 3), F(2, 3), F(2), F(4, 3)]
    assert sorted(degs[4:]) == [F(8 + 2 * k, 3) for k in range(6)]


@criterion(5, "orbifold series equals the h-star series per triangulation")
def test_orbifold_series_on_shipped_triangulations():
    quad_points = list(QUAD.polytope.vertices) + [(1, 1)]
    cases = (
        (LENS, trivial_triangulation(LENS)),
        (LENS, star_triangulation(LENS, (0, 0))),
        (QUAD, star_triangulation(QUAD, (1, 1))),
        (QUAD, triangulation_from_cells(
            QUAD, quad_points, [(0, 1, 2), (1, 2, 4), (1, 3, 4), (2, 3, 4)])),
        (ORDER3, triangulation_from_cells(
            ORDER3, ORDER3.polytope.vertices, [(0, 1, 3), (0, 2, 3)])),
        (ORDER3, triangulation_from_cells(
            ORDER3, ORDER3.polytope.vertices, [(0, 1, 2), (1, 2, 3)])),
    )
    for D, T in cases:
        report = stapledon_check(D, T)  # raises MismatchAt on failure
        assert report.series_checked_to >= D.order * (D.dimension + 1)
    # the square is not a simplex, so it has no single-cell triangulation;
    # its identity is certified on both diagonal splittings above instead
    with pytest.raises(ValueError):
        trivial_triangulation(ORDER3)


@criterion(6, "lens-diagram sector rows and totals")
def test_lens_sector_rows_and_totals():
    T = trivial_triangulation(LENS)
    window = (F(0), F(8))
    evens = EVENS[:5]
    rows = hc_sector_rows(LENS, T, window)
    assert sorted(rows) == [0, 1, 2]
    assert dims(rows[F(0)], evens) == (0, 0, 1, 1, 1)  # untwisted sector
    assert dims(rows[F(1)], evens) == (0, 1, 1, 1, 1)
    assert dims(rows[F(2)], evens) == (1, 1, 1, 1, 1)
    assert dims(hc_from_resolution(LENS, T, window), evens) == (1, 2, 3, 3, 3)


@criterion(7, "graded totals of the four classical prequantization spaces")
def test_classical_prequantization_totals():
    docs = corpus()
    # Morse-Bott count: the k-th iterate family (k >= 1) puts h_i(B) at
    # degree 2i + 2rk - 2, and each even degree sums over k.
    #   projective-plane           r = 3, h(B) = (1, 1, 1)
    #   projective-plane-triple    r = 1, h(B) = (1, 1, 1)
    #   product-of-spheres-double  r = 1, h(B) = (1, 2, 1)
    #   product-of-spheres         r = 2, h(B) = (1, 2, 1): degree 6 gets
    #     h_2 from k = 1 plus h_0 from k = 2, so 1 + 1 = 2, and the tail
    #     settles at the normalized volume 2 of the unit square.
    cases = (
        ("projective-plane", 3, 8, (0, 0, 1, 1, 1)),
        ("projective-plane-triple", 1, 6, (1, 2, 3, 3)),
        ("product-of-spheres-double", 1, 8, (1, 3, 4, 4, 4)),
        ("product-of-spheres", 2, 10, (0, 1, 2, 2, 2, 2)),
    )
    for name, r, top, expected in cases:
        Q = quotient_of(docs[name])
        assert Q.smooth and Q.r == r, name
        window = (F(0), F(top))
        via_base = hc_smooth_base(Q, window)
        via_sectors = hc_from_quotient(Q, window)
        assert via_base == via_sectors, name
        evens = [F(d) for d in range(0, top + 2, 2)]
        assert dims(via_base, evens) == expected, name


@criterion(8, "weighted projective quotient sectors, rows, and totals")
def test_weighted_projective_quotient_table():
    D = validate_diagram(convex_hull([(0, 0), (1, 0), (2, 3)]))
    Q = quotient_polytope(D, (1, 1, 2))
    assert Q.r == 2 and not Q.smooth
    by_period = {s.period: [c.shift for c in s.components]
                 for s in Q.sectors}
    assert by_period == {F(1, 4): [1], F(1, 2): [2], F(3, 4): [3], F(1): [0]}
    H = orbifold_cohomology_of_base(Q)
    assert [H.dim(d) for d in range(5)] == [1, 1, 2, 1, 1]
    window = (F(0), F(12))
    rows = hc_quotient_rows(Q, window)
    assert dims(rows[F(1, 4)], EVENS) == (1, 0, 1, 0, 1, 0, 1)
    assert dims(rows[F(1, 2)], EVENS) == (0, 1, 0, 1, 0, 1, 0)
    assert dims(rows[F(3, 4)], EVENS) == (0, 0, 1, 0, 1, 0, 1)
    assert dims(rows[F(1)], EVENS) == (0, 1, 1, 2, 1, 2, 1)
    assert dims(hc_from_quotient(Q, window), EVENS) == (1, 2, 3, 3, 3, 3, 3)


@criterion(9, "reciprocity, invariance, duality, and palindromicity sweep")
def test_property_sweep_over_corpus():
    for name, doc in corpus().items():
        D = diagram_of(doc)
        P, m, n = D.polytope, D.order, D.dimension
        dv = delta_vector(P)
        qp = quasipolynomial(P)
        # reciprocity against brute-force interior counts
        for t in range(1, 3 * m + 1):
            assert (interior_count_by_reciprocity(qp, t)
                    == count_points(P, t, interior=True))
        # non-negativity, normalization, total mass
        assert min(dv.entries) >= 0 and dv[0] == 1
        assert sum(dv.entries) == m ** (n + 1) * normalized_volume(P)
        # stabilization and boundary entries of the graded table
        cb = contact_betti_from_delta(D)
        tail = m ** n * normalized_volume(P)
        hi = default_window(m, n)[1]
        d = F(2 * n)
        while d <= hi:
            assert cb.dim(d) == tail
            d += F(2, m)
        assert cb.dim(0) == count_points(P, m, interior=True)
        assert cb.dim(2 * (n - 1)) == tail - 1
        # base-point and direction independence of the direct census
        verts = P.vertices
        centre = tuple(sum(v[i] for v in verts) / len(verts)
                       for i in range(n))
        moved = tuple((3 * centre[i] + verts[0][i]) / 4 for i in range(n))
        other = ReebVector(moved, tuple(F(1, 103) ** i for i in range(n)))
        assert contact_betti_direct(D, (other,)) == (cb,), name
        # completion-choice invariance of orbit degrees
        reeb = ReebVector.default_for(D)
        for fid in range(len(D.facet_vertex_ids)):
            fam = orbit_data(D, fid, reeb)
            eta = tuple(e + sum(nu[i] for nu in D.facet_normals(fid))
                        for i, e in enumerate(fam.eta))
            shifted = orbit_data(D, fid, reeb, eta=eta)
            assert ([orbit_degree(fam, N) for N in range(1, 6)]
                    == [orbit_degree(shifted, N) for N in range(1, 6)])
    # palindromicity classifies reflexivity; duality is an involution
    pool, classes = brute_forced_reflexive_polygons()
    assert len(classes) == 16
    assert all(rep.palindromic is rep.reflexive for _, rep in pool)
    for vertices in classes:
        P = convex_hull(vertices)
        again = dual_polytope(dual_polytope(P))
        assert set(again.vertices) == set(P.vertices)


@criterion(10, "rejection paths and command exit codes")
def test_rejections_and_exit_codes():
    with pytest.raises(FacetNotUnimodular):
        validate_diagram(convex_hull([(0, 0), (2, 0), (0, 2)]))
    # base chosen so a jet collapses to (integer, 0) at the first iterate
    with pytest.raises(GenericityFailure):
        contact_betti_direct(
            ORDER3, (ReebVector((F(1, 2), F(1, 2)), (F(1), F(1))),))

    def run(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return cli.main(argv)

    assert run(["crosscheck", "corpus:lens-triangle"]) == 0
    assert run(["validate", "corpus:no-such-document"]) == 64
    with tempfile.TemporaryDirectory() as tmp:
        doubled = os.path.join(tmp, "doubled.json")
        with open(doubled, "w", encoding="utf-8") as fh:
            json.dump({"name": "doubled", "kind": "diagram",
                       "vertices": [["0", "0"], ["2", "0"], ["0", "2"]]}, fh)
        assert run(["validate", doubled]) == 65
    assert run(["cb", "corpus:order-three-square", "--pipeline", "direct",
                "--reeb", "1/2,1/2", "--perturb", "1"]) == 66
    with pytest.MonkeyPatch.context() as mp:
        # force the two crosscheck pipelines apart
        mp.setattr(cli, "hc_from_quotient",
                   lambda Q, window: GradedDimensions({}, (F(0), F(10))))
        assert run(["crosscheck", "corpus:lens-triangle"]) == 2
