import fractions
import importlib.util
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import corpus_diagram, count_calls
from lattice_oracles import (_coordinate_box as fraction_box,
                             count_points_naive, count_points_row_scan,
                             face_lattice_by_levels, hull_by_hyperplanes,
                             translate)

from contactbetti import polytope
from contactbetti.corpus import corpus
from contactbetti.ehrhart import delta_vector
from contactbetti.polytope import (
    DegenerateInput,
    NotSimple,
    OriginNotInterior,
    UnboundedInput,
    cone_rays,
    convex_hull,
    count_points,
    dual_polytope,
    enumerate_halfspace_vertices,
    intersection_closure,
    labelled_polytope,
    normalized_volume,
    order,
    triangulate_ids,
)

F = Fraction
ROOT = Path(__file__).resolve().parent.parent

L53_TRIANGLE = [(1, 0), (0, 1), (-1, -1)]
ORDER3_SQUARE = [(F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
                 (F(2, 3), F(2, 3)), (F(2, 3), F(1, 3))]
UNIT_SIMPLEX = [(0, 0), (1, 0), (0, 1)]
FLOP_QUAD = [(0, 0), (1, 0), (0, 1), (2, 2)]


def normal_set(P):
    return {(f.normal, f.offset) for f in P.facets}


# ---------------------------------------------------------------- hull


def test_hull_l53_triangle():
    P = convex_hull(L53_TRIANGLE)
    assert P.dimension == 2
    assert set(P.vertices) == {(1, 0), (0, 1), (-1, -1)}
    # inward primitive normals, all at offset 1 (reflexive triangle)
    assert normal_set(P) == {((-1, -1), 1), ((2, -1), 1), ((-1, 2), 1)}


def test_hull_drops_interior_and_duplicate_points():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2)),
                     (1, 1)])
    assert set(P.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(P.facets) == 4


def test_hull_quadrilateral():
    P = convex_hull(FLOP_QUAD)
    assert len(P.vertices) == 4
    assert set(P.vertices) == set((F(a), F(b)) for a, b in FLOP_QUAD)


def test_hull_degenerate():
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def test_hull_3d_simplex():
    P = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(P.vertices) == 4
    assert len(P.facets) == 4
    assert normalized_volume(P) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hull_matches_hyperplane_oracle_on_random_points(n):
    rng = random.Random(700 + n)
    checked = 0
    while checked < 10:
        m = rng.randint(1, 3)
        pts = [tuple(F(rng.randint(-2 * m, 2 * m), m) for _ in range(n))
               for _ in range(rng.randint(n + 1, n + 5))]
        try:
            P = convex_hull(pts)
        except DegenerateInput:
            continue
        checked += 1
        vertices, facets = hull_by_hyperplanes(pts)
        assert list(P.vertices) == vertices, pts
        assert [(f.normal, f.offset) for f in P.facets] == facets, pts
        # V -> H -> V: the facets cut out exactly the hull's vertices
        assert enumerate_halfspace_vertices(
            [f.normal for f in P.facets],
            [f.offset for f in P.facets]) == vertices


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hull_clears_mixed_denominators_once(n):
    # each point has its own denominator in 1..5, and the common
    # denominator L of the set exceeds every single point's
    rng = random.Random(900 + n)
    checked = 0
    while checked < 8:
        pts = []
        for _ in range(rng.randint(n + 1, n + 5)):
            d = rng.randint(1, 5)
            pts.append(tuple(F(rng.randint(-2 * d, 2 * d), d)
                             for _ in range(n)))
        own = [math.lcm(*[x.denominator for x in p]) for p in pts]
        if math.lcm(*own) <= max(own):
            continue
        try:
            P = convex_hull(pts)
        except DegenerateInput:
            continue
        checked += 1
        vertices, facets = hull_by_hyperplanes(pts)
        assert list(P.vertices) == vertices, pts
        assert [(f.normal, f.offset) for f in P.facets] == facets, pts
        for f in P.facets:
            assert f.vertex_ids == tuple(
                i for i, v in enumerate(P.vertices)
                if sum(a * x for a, x in zip(f.normal, v)) + f.offset == 0)


def test_cone_rays_in_one_dimension():
    # the empty subset of rows leaves the whole line: candidates +-1
    assert cone_rays([(3,)]) == ((1,),)
    assert cone_rays([(F(-1, 2),), (-4,)]) == ((-1,),)
    assert cone_rays([(1,), (-1,)]) == ()


def test_cone_rays_clears_rational_rows():
    # the quadrant x >= 0, y >= 0, written with rational rows
    assert cone_rays([(F(1, 2), 0), (0, F(2, 3))]) == ((0, 1), (1, 0))
    assert cone_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))


# ---------------------------------------------------------------- order


def test_order_examples():
    assert order(convex_hull(L53_TRIANGLE)) == 1
    assert order(convex_hull(ORDER3_SQUARE)) == 3
    assert order(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])) == 1


# ---------------------------------------------------------------- counting


def test_count_l53():
    P = convex_hull(L53_TRIANGLE)
    assert count_points(P, 1) == 4
    assert count_points(P, 1, interior=True) == 1


def test_count_order3():
    P = convex_hull(ORDER3_SQUARE)
    assert count_points(P, 3) == 4  # (t+3)^2/9 at t=3
    assert count_points(P, 1) == 0
    assert count_points(P, 2, interior=True) == 1


def test_count_unit_cube():
    for n in (1, 2, 3):
        cube = convex_hull(list(__import__("itertools").product((0, 1),
                                                               repeat=n)))
        assert count_points(cube, 1) == 2 ** n


def test_row_scan_matches_naive():
    polys = [convex_hull(L53_TRIANGLE), convex_hull(ORDER3_SQUARE),
             convex_hull(FLOP_QUAD),
             convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)])]
    for P in polys:
        for t in range(1, 13):
            assert count_points(P, t) == count_points_naive(P, t)
            assert (count_points(P, t, interior=True)
                    == count_points_naive(P, t, interior=True))


def box(*sides):
    return convex_hull(list(itertools.product(*sides)))


# rational facets, and facets whose last normal coefficient is zero (and
# in 3-D and 4-D ones normal to the first n-2 coordinates only, which cut
# whole slices)
ORACLE_POLYTOPES = [
    convex_hull([(F(-2, 3),), (F(5, 4),)]),
    convex_hull([(-1,), (F(7, 3),)]),
    convex_hull(ORDER3_SQUARE),
    convex_hull([(F(-1, 2), F(-1, 3)), (F(3, 2), F(-1, 3)),
                 (F(1, 2), F(5, 4)), (F(-1, 2), F(1, 4))]),
    convex_hull([(0, F(1, 5)), (F(7, 3), 0), (F(7, 3), F(2, 3)),
                 (F(1, 4), F(3, 2))]),
    box((F(-1, 2), F(3, 4)), (F(-1, 3), 1), (0, F(2, 5))),
    convex_hull([(0, 0, 0), (F(3, 2), 0, 0), (0, F(4, 3), 0),
                 (0, 0, F(5, 4)), (F(3, 2), F(4, 3), F(1, 2))]),
    box((0, F(1, 2)), (F(-2, 3), F(1, 3)), (F(1, 4), 1), (0, F(3, 5))),
    convex_hull([(0, 0, 0, 0), (F(3, 2), 0, 0, 0), (0, F(4, 3), 0, 0),
                 (0, 0, 1, 0), (F(1, 2), F(1, 3), F(1, 4), F(7, 5)),
                 (F(1, 2), 0, F(1, 2), F(-1, 2))]),
]


@pytest.mark.parametrize("P", ORACLE_POLYTOPES,
                         ids=[str(i) for i in range(len(ORACLE_POLYTOPES))])
def test_slice_kernel_matches_both_oracles(P):
    for t in range(1, 7 if P.dimension < 4 else 4):
        for interior in (False, True):
            want = count_points_naive(P, t, interior)
            assert count_points_row_scan(P, t, interior) == want
            assert count_points(P, t, interior) == want, (P, t, interior)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slice_kernel_matches_both_oracles_on_random_hulls(n):
    rng = random.Random(400 + n)
    checked = 0
    while checked < 12:
        m = rng.randint(1, 5)
        pts = [tuple(F(rng.randint(-2 * m, 2 * m), m) for _ in range(n))
               for _ in range(rng.randint(n + 1, n + 4))]
        try:
            P = convex_hull(pts)
        except DegenerateInput:
            continue
        checked += 1
        for t in (1, 2, 3) if n < 4 else (1, 2):
            for interior in (False, True):
                want = count_points_naive(P, t, interior)
                assert count_points_row_scan(P, t, interior) == want
                assert count_points(P, t, interior) == want, (pts, t)


def _ladder():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ladder", ROOT / "perfbench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_counts_are_invariant_under_presentation():
    # lattice-equivalent presentations of a ladder row (seeds 0-3) have
    # the same dilate counts; seed 0 also matches the row scan
    ladder = _ladder()
    for name, a in ladder.load_pinned().items():
        row = ladder.ROWS[name]
        top = row.m * (row.n + 1)
        seen = []
        for seed in range(4):
            P = convex_hull(ladder.document(name, a, seed)["vertices"])
            seen.append([count_points(P, t) for t in range(1, top)])
            if seed == 0:
                assert seen[0] == [count_points_row_scan(P, t)
                                   for t in range(1, top)], name
        assert all(counts == seen[0] for counts in seen), name


def random_simplex(rng, n, m):
    """A full-dimensional simplex of order exactly m in [-1, 1]^n."""
    while True:
        pts = [tuple(Fraction(rng.randint(-m, m), m) for _ in range(n))
               for _ in range(n + 1)]
        try:
            P = convex_hull(pts)
        except DegenerateInput:
            continue
        if order(P) == m:
            return P


@pytest.mark.parametrize("n", [3, 4])
def test_row_scan_matches_naive_in_higher_dimensions(n):
    rng = random.Random(20 + n)
    for m in range(1, 6):
        for _ in range(2):
            P = random_simplex(rng, n, m)
            for t in (1, 2, 3):
                for interior in (False, True):
                    assert (count_points(P, t, interior)
                            == count_points_naive(P, t, interior)), (P, t)


def rational_points(n, bound):
    """n+1 to n+3 points with coordinates p/q, q <= 4, |p/q| <= bound."""
    coord = st.integers(min_value=1, max_value=4).flatmap(
        lambda q: st.integers(min_value=-math.floor(bound * q),
                              max_value=math.floor(bound * q)).map(
            lambda p: F(p, q)))
    return st.lists(st.tuples(*[coord] * n), min_size=n + 1,
                    max_size=n + 3)


# the bound keeps the row scan's box of 12P small in 4-D and 5-D
@pytest.mark.parametrize("n,bound", [(2, 2), (3, 1), (4, F(1, 2)),
                                     (5, F(1, 3))])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cleared_counts_match_the_row_scan(n, bound, data):
    # negative and non-integral vertices: the cleared box takes floors and
    # ceilings of negative multiples of 1/m
    try:
        P = convex_hull(data.draw(rational_points(n, bound)))
    except DegenerateInput:
        return
    t = data.draw(st.integers(min_value=1, max_value=12))
    assert polytope._coordinate_box(P, t) == fraction_box(P, t)
    for interior in (False, True):
        assert (count_points(P, t, interior)
                == count_points_row_scan(P, t, interior)), (P, t, interior)


def _fraction_calls(fn):
    """fn(), and the number of calls it made into the fractions module."""
    calls = []

    def hook(frame, event, arg):
        if (event == "call"
                and frame.f_code.co_filename == fractions.__file__):
            calls.append(frame.f_code.co_name)
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, len(calls)


def test_counting_clears_each_polytope_once(monkeypatch):
    cleared = count_calls(monkeypatch, polytope, "clear_row")
    for vertices in (
            [(F(-2, 3), F(-1, 2), 0), (F(5, 3), 0, F(-1, 4)),
             (0, F(7, 6), F(1, 2)), (F(-1, 3), F(1, 2), F(5, 4))],
            [(F(-2, 3), F(-1, 2), 0, F(1, 3)), (F(5, 3), 0, F(-1, 4), 0),
             (0, F(7, 6), F(1, 2), F(-1, 2)), (F(-1, 3), F(1, 2), F(5, 4), 1),
             (F(1, 2), F(-1, 3), F(1, 6), F(-3, 4))]):
        P = convex_hull(vertices)
        del cleared[:]
        count_points(P, 1)
        # each vertex once, then in 4-D each distinct point of the frame's
        # projection onto its first two coordinates, which cone_rays hulls
        perm = polytope._clear(P)[4][0]
        projected = {tuple(v[i] for i in perm[:2]) for v in P.vertices}
        vertices = len(P.vertices)
        assert [args[0] for args in cleared[:vertices]] == list(P.vertices)
        assert len(cleared) == vertices + (
            len(projected) if P.dimension == 4 else 0)
        first = len(cleared)

        def dilates():
            return ([count_points(P, t, interior) for t in range(2, 9)
                     for interior in (False, True)],
                    [polytope._coordinate_box(P, t) for t in range(1, 9)])
        (counts, boxes), made = _fraction_calls(dilates)
        assert made == 0  # no Fraction after the first count
        assert len(cleared) == first
        assert counts == [count_points_naive(P, t, interior)
                          for t in range(2, 9) for interior in (False, True)]
        assert boxes == [fraction_box(P, t) for t in range(1, 9)]


def test_projection_rows_are_the_facets_of_the_projected_hull():
    # the 5-cube comes from its halfspaces: hulling its 32 vertices
    # takes about 20 s
    cube5 = labelled_polytope(
        [tuple(int(i == k) - int(i == k - 5) for i in range(5))
         for k in range(10)], [0] * 5 + [1] * 5).polytope
    polys = ([convex_hull(_cross_polytope(4)),
              convex_hull(_cross_polytope(5)), cube5]
             + _seeded_hulls(4, 8) + _seeded_hulls(5, 6))
    for P in polys:
        perm, _, levels = polytope._clear(P)[4]
        assert len(levels) == P.dimension - 3
        for k, level in enumerate(levels, start=2):
            Q = convex_hull({tuple(v[i] for i in perm[:k])
                             for v in P.vertices})
            cleared = [(tuple(f.offset.denominator * a for a in f.normal),
                        f.offset.numerator) for f in Q.facets]
            assert sorted(level) == sorted(
                (A[:-1], A[-1], c) for A, c in cleared if A[-1]), (P, k)


def _signed_permutations(n):
    return [(perm, signs) for perm in itertools.permutations(range(n))
            for signs in itertools.product((1, -1), repeat=n)]


# the ladder rows n3m13 and n4m3 (perfbench/ladder.json), the past-ladder
# row n5m2, and the 4-D cross-polytope
PRESENTATIONS = {
    "n3m13": [["6/13", "7/13", "-10/13"], ["2/13", "9/13", "-1"],
              ["5/13", "1", "-10/13"], ["0", "2/13", "-8/13"]],
    "n4m3": [["1/3", "2/3", "0", "-1/3"], ["2/3", "-1/3", "1/3", "1/3"],
             ["0", "0", "1/3", "2/3"], ["2/3", "1/3", "-2/3", "1/3"],
             ["-2/3", "-2/3", "-1/3", "-1"]],
    "n5m2": [["1/2", "1/2", "1/2", "1", "-1"], ["1", "0", "-1/2", "1", "1"],
             ["1", "1", "-1", "0", "1/2"], ["1", "-1/2", "0", "0", "-1"],
             ["-1/2", "1/2", "1/2", "1/2", "-1/2"],
             ["1", "-1/2", "1/2", "-1/2", "0"]],
    "cross4": [[str(s * (i == k)) for i in range(4)]
               for k in range(4) for s in (1, -1)],
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_counting_work_does_not_depend_on_the_presentation(monkeypatch,
                                                          name):
    # a signed permutation of the coordinates permutes the counting frame
    # with them, so every count in the delta window and the number of
    # slices counted stay the same
    vertices = [[F(x) for x in v] for v in PRESENTATIONS[name]]
    n = len(vertices[0])
    maps = _signed_permutations(n)
    if n == 5:
        maps = random.Random(24).sample(maps, 8)
    slices = count_calls(monkeypatch, polytope, "_slice_points")
    seen = set()
    for perm, signs in maps:
        P = convex_hull([tuple(s * v[i] for i, s in zip(perm, signs))
                         for v in vertices])
        del slices[:]
        delta_vector(P)
        seen.add((tuple(sorted(P._counts.items())), len(slices)))
    assert len(seen) == 1, sorted(len(s) for _, s in seen)


# ---------------------------------------------------------------- volume


def test_normalized_volume_examples():
    assert normalized_volume(convex_hull(L53_TRIANGLE)) == 3
    assert normalized_volume(convex_hull(UNIT_SIMPLEX)) == 1
    assert normalized_volume(convex_hull(ORDER3_SQUARE)) == F(2, 9)


def test_volume_triangulation_independent():
    for pts in (L53_TRIANGLE, ORDER3_SQUARE, FLOP_QUAD,
                [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)]):
        P = convex_hull(pts)
        assert normalized_volume(P) == normalized_volume(P, pull_last=True)


def test_pull_anchors_give_distinct_cells():
    # pentagon: lex-min and lex-max anchors are not diagonal mates
    P = convex_hull([(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)])
    cells_a = triangulate_ids(P, pull_last=False)
    cells_b = triangulate_ids(P, pull_last=True)
    assert set(cells_a) != set(cells_b)
    assert normalized_volume(P) == normalized_volume(P, pull_last=True)


# ---------------------------------------------------------------- dual


def test_dual_l53():
    P = convex_hull(L53_TRIANGLE)
    D = dual_polytope(P)
    assert set(D.vertices) == {(-1, -1), (2, -1), (-1, 2)}
    DD = dual_polytope(D)
    assert set(DD.vertices) == set(P.vertices)


def test_dual_square_is_diamond():
    P = convex_hull([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    D = dual_polytope(P)
    assert set(D.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_dual_requires_interior_origin():
    with pytest.raises(OriginNotInterior):
        dual_polytope(convex_hull(UNIT_SIMPLEX))


# ---------------------------------------------------------------- faces


def test_faces_square():
    P = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(P.face_lattice()[0]) == 4
    assert len(P.face_lattice()[1]) == 4
    assert len(P.face_lattice()[2]) == 1


def test_faces_triangle_and_order3():
    assert len(convex_hull(L53_TRIANGLE).face_lattice()[1]) == 3
    assert len(convex_hull(ORDER3_SQUARE).face_lattice()[1]) == 4


def test_face_incidence_data():
    P = convex_hull(L53_TRIANGLE)
    for i in range(len(P.vertices)):
        # a polygon vertex meets two edges
        assert sum(i in f.vertex_ids for f in P.facets) == 2


def test_intersection_closure():
    assert intersection_closure(3, []) == {frozenset({0, 1, 2})}
    assert intersection_closure(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == {
        frozenset(s) for s in [(0, 1, 2, 3), (0, 1), (1, 2), (2, 3),
                               (0, 3), (0,), (1,), (2,), (3,)]}
    # disjoint sets meet in the empty set, which is left out
    assert intersection_closure(2, [(0,), (1,)]) == {
        frozenset({0, 1}), frozenset({0}), frozenset({1})}


def _cube(n):
    return list(itertools.product((0, 1), repeat=n))


def _cross_polytope(n):
    return [tuple(s * (i == k) for i in range(n))
            for k in range(n) for s in (1, -1)]


def _seeded_hulls(n, count):
    rng = random.Random(700 + n)
    hulls = []
    while len(hulls) < count:
        pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(n))
               for _ in range(rng.randint(n + 1, n + 6))]
        try:
            hulls.append(convex_hull(pts))
        except DegenerateInput:
            pass
    return hulls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_lattice_matches_level_by_level_oracle(n):
    polytopes = _seeded_hulls(n, 12 if n < 4 else 6)
    polytopes += [convex_hull(_cube(n)), convex_hull(_cross_polytope(n))]
    if n == 2:
        polytopes += [corpus_diagram(doc).polytope
                      for doc in corpus().values()]
    for P in polytopes:
        lattice = P.face_lattice()
        assert list(lattice) == list(range(n, -1, -1))
        assert all(f.dim == d for d, faces in lattice.items()
                   for f in faces)
        assert {d: tuple(f.vertex_ids for f in faces)
                for d, faces in lattice.items()} == face_lattice_by_levels(P)


def test_simplex_triangulation_builds_no_lattice():
    for pts in (UNIT_SIMPLEX, [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1)]):
        P = convex_hull(pts)
        assert triangulate_ids(P) == [tuple(range(len(pts)))]
        assert triangulate_ids(P, pull_last=True) == [tuple(range(len(pts)))]
        assert P._lattice is None
    P = convex_hull(FLOP_QUAD)
    triangulate_ids(P)
    assert P._lattice is not None


def euler_characteristic(P):
    lattice = P.face_lattice()
    return sum((-1) ** d * len(lattice[d]) for d in range(P.dimension))


def test_euler_relation():
    for pts in (L53_TRIANGLE, ORDER3_SQUARE, FLOP_QUAD,
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                 (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]):
        P = convex_hull(pts)
        assert euler_characteristic(P) == 1 - (-1) ** P.dimension


def test_translate():
    P = translate(convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)]), (-1, -1))
    assert set(P.vertices) == {(-1, -1), (1, -1), (-1, 1), (1, 1)}


# ---------------------------------------------------------------- halfspaces


def test_halfspace_vertices_triangle():
    # x >= 0, -x-y+1 >= 0, -3x+y+2 >= 0
    verts = enumerate_halfspace_vertices([(1, 0), (-1, -1), (-3, 1)],
                                         [0, 1, 2])
    assert set(verts) == {(0, 1), (0, -2), (F(3, 4), F(1, 4))}


def test_halfspace_unbounded_detected():
    with pytest.raises(UnboundedInput):
        enumerate_halfspace_vertices([(1, 0), (0, 1)], [0, 0])
    with pytest.raises(UnboundedInput):
        enumerate_halfspace_vertices([(1, 0), (-1, 0)], [0, 1])


def test_halfspace_unbounded_even_when_empty():
    # x >= 1 and x <= 0 leave nothing, yet y >= 0 has a recession direction
    with pytest.raises(UnboundedInput):
        enumerate_halfspace_vertices([(1, 0), (-1, 0), (0, 1)], [-1, 0, 0])
    # bounding y too leaves an empty polytope without vertices
    assert enumerate_halfspace_vertices(
        [(1, 0), (-1, 0), (0, 1), (0, -1)], [-1, 0, 0, 0]) == []
    with pytest.raises(DegenerateInput):
        labelled_polytope([(1, 0), (-1, 0), (0, 1), (0, -1)], [-1, 0, 0, 0])


def test_labelled_polytope_basic():
    lab = labelled_polytope([(1, 0), (-1, -1), (-3, 1)], [0, 1, 2])
    assert lab.labels == (1, 1, 1)
    assert len(lab.polytope.vertices) == 3
    assert all(len(t) == 2 for t in lab.vertex_facets)


def test_labelled_polytope_weights():
    lab = labelled_polytope([(2, 0), (0, 1), (-2, 0), (0, -1)], [0, 0, 2, 1])
    assert lab.labels == (2, 1, 2, 1)
    assert tuple(tuple(x // l for x in a) for a, l in zip(
        lab.weighted_normals, lab.labels)) == ((1, 0), (0, 1), (-1, 0),
                                               (0, -1))


def test_labelled_polytope_not_simple():
    # square pyramid apex meets 4 facets
    with pytest.raises(NotSimple):
        labelled_polytope([(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1),
                           (0, 0, -1)], [0, 0, 0, 0, 1])


def _box_normals(n):
    """e_1 .. e_n, then -e_1 .. -e_n."""
    return [tuple((i == k) - (i == k - n) for i in range(n))
            for k in range(2 * n)]


def _labelled_cube(n, side=1):
    return labelled_polytope(_box_normals(n), [0] * n + [side] * n)


def _seeded_simple_polytopes(n, count):
    """Boxes cut by random integer halfspaces; draws that are not simple
    or leave a redundant halfspace are skipped."""
    rng = random.Random(900 + n)
    found = []
    while len(found) < count:
        normals = _box_normals(n)
        offsets = [rng.randint(1, 4) for _ in range(2 * n)]
        for _ in range(rng.randint(1, 3)):
            normals.append(tuple(rng.randint(-3, 3) for _ in range(n)))
            offsets.append(rng.randint(0, 6))
        try:
            found.append(labelled_polytope(normals, offsets))
        except (NotSimple, DegenerateInput, UnboundedInput):
            pass
    return found


def test_labelled_polytope_facets_are_the_hull_facets():
    # the facets read off the halfspaces equal the hull of the vertices,
    # facet by facet: normal, offset and vertex ids
    bases = [labelled_polytope(doc["normals"], doc["offsets"])
             for doc in corpus().values() if doc["kind"] == "labelled"]
    bases.append(labelled_polytope(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [0, 0, 0, 1]))
    bases += [_labelled_cube(n, side) for n in (1, 2, 3, 4)
              for side in (1, 3)]
    bases += [lab for n in (2, 3, 4)
              for lab in _seeded_simple_polytopes(n, 8 if n < 4 else 4)]
    assert len(bases) > 30
    for lab in bases:
        P = lab.polytope
        hull = convex_hull(P.vertices)
        assert P.dimension == hull.dimension
        assert P.vertices == hull.vertices
        assert P.facets == hull.facets
        # every labelled halfspace is a facet, tight where its facet is
        assert len(P.facets) == len(lab.weighted_normals)
        for a, c, l in zip(lab.weighted_normals, lab.offsets, lab.labels):
            (facet,) = [f for f in P.facets
                        if f.normal == tuple(x // l for x in a)]
            assert facet.offset == F(c, l)


def test_labelled_polytope_error_types():
    with pytest.raises(ValueError, match="matching normals"):
        labelled_polytope([], [])
    with pytest.raises(ValueError, match="matching normals"):
        labelled_polytope([(1, 0), (0, 1), (-1, -1)], [0, 0])
    # flat: x >= 0, -x >= 0 leaves the segment x = 0, 0 <= y <= 1
    with pytest.raises(DegenerateInput, match="do not span"):
        labelled_polytope([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 0, 0, 1])
    # the redundant x <= 5 touches no vertex of the unit square
    with pytest.raises(DegenerateInput, match="redundant"):
        labelled_polytope([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 0)],
                          [0, 0, 1, 1, 5])
    # a repeated halfspace puts three on each of its vertices
    with pytest.raises(NotSimple):
        labelled_polytope([(1, 0), (0, 1), (-1, -1), (2, 0)], [0, 0, 1, 0])


MISMATCHED_RUN = """
from contactbetti.polytope import labelled_polytope
try:
    labelled_polytope([(1, 0), (0, 1)], [0])
except ValueError as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_labelled_argument_check_survives_optimize(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", MISMATCHED_RUN],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError need matching normals and offsets\n"


COUNT_CHECKS_RUN = """
from fractions import Fraction
from contactbetti import exactlat, polytope
P = polytope.convex_hull([(0, 0), (1, 0), (0, 1)])
for call in (lambda: polytope.count_points(P, 0),
             lambda: polytope.count_points(P, Fraction(3, 2)),
             lambda: polytope.enumerate_lattice_points(P, 0),
             lambda: exactlat.floor_sum(-1, 2, 0, 0),
             lambda: exactlat.floor_sum(1, 0, 0, 0),
             lambda: polytope._count_slices([((1, 0), 0), ((0, 1), 0)],
                                            [0, 0], [1, 1], [])):
    try:
        call()
    except (ValueError, AssertionError) as exc:
        print(type(exc).__name__)
    else:
        print("no raise")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_count_checks_survive_optimize(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", COUNT_CHECKS_RUN],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 5 + ["AssertionError"]


# ---------------------------------------------------------------- properties


point_st = st.tuples(st.integers(min_value=-4, max_value=4),
                     st.integers(min_value=-4, max_value=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(point_st, min_size=3, max_size=8))
def test_hull_properties_random(pts):
    try:
        P = convex_hull(pts)
    except DegenerateInput:
        return
    # every input point satisfies all facet inequalities
    for p in pts:
        assert P.contains(p)
    # hull of the hull's vertices is the same polytope
    assert convex_hull(P.vertices) == P
    # Euler relation
    assert euler_characteristic(P) == 1 - (-1) ** P.dimension
    # vertices are extreme: dropping one changes the hull or degenerates
    for i in range(len(P.vertices)):
        rest = [v for j, v in enumerate(P.vertices) if j != i]
        try:
            Q = convex_hull(rest)
        except DegenerateInput:
            continue
        assert Q != P


@settings(max_examples=40, deadline=None)
@given(st.lists(point_st, min_size=3, max_size=7),
       st.integers(min_value=1, max_value=5))
def test_count_consistency_random(pts, t):
    try:
        P = convex_hull(pts)
    except DegenerateInput:
        return
    assert count_points(P, t) == count_points_naive(P, t)
    assert (count_points(P, t, interior=True)
            == count_points_naive(P, t, interior=True))
    assert normalized_volume(P) == normalized_volume(P, pull_last=True)


@settings(max_examples=40, deadline=None)
@given(st.lists(point_st, min_size=3, max_size=7))
def test_dual_involution_random(pts):
    try:
        P = convex_hull(pts)
    except DegenerateInput:
        return
    if not P.contains((0, 0), strict=True):
        return
    DD = dual_polytope(dual_polytope(P))
    assert set(DD.vertices) == set(P.vertices)
