import itertools
import json
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
from lattice_oracles import (delta_by_closed_counts,
                             interior_count_by_reciprocity,
                             reflexive_by_dual)

from contactbetti import ehrhart, polytope
from contactbetti.corpus import corpus
from contactbetti.ehrhart import (
    DeltaVector,
    MismatchAt,
    delta_vector,
    is_reflexive,
    quasipolynomial,
)
from contactbetti.polytope import (
    DegenerateInput,
    convex_hull,
    count_points,
    dual_polytope,
    enumerate_lattice_points,
    normalized_volume,
    order,
)

F = Fraction

L53 = convex_hull([(1, 0), (0, 1), (-1, -1)])
ORDER3 = convex_hull([(F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
                      (F(2, 3), F(2, 3)), (F(2, 3), F(1, 3))])
SIMPLEX2 = convex_hull([(0, 0), (1, 0), (0, 1)])
SRC = Path(__file__).resolve().parent.parent / "src"
LADDER = json.loads(
    (SRC.parent / "perfbench" / "ladder.json").read_text())


def general_binomial(a, k):
    """Binomial coefficient C(a, k) for any integer a and k >= 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if a >= 0:
        return math.comb(a, k)
    return (-1) ** k * math.comb(k - 1 - a, k)


def test_general_binomial():
    assert general_binomial(5, 2) == 10
    assert general_binomial(0, 0) == 1
    assert general_binomial(-1, 2) == 1
    assert general_binomial(-1, 3) == -1
    assert general_binomial(-3, 2) == 6  # (-3)(-4)/2
    assert general_binomial(1, 3) == 0


# ---------------------------------------------------------------- delta


def test_delta_l53():
    dv = delta_vector(L53)
    assert dv.entries == (1, 1, 1)
    assert dv.order == 1 and dv.dimension == 2


def test_delta_order3():
    dv = delta_vector(ORDER3)
    assert dv.entries == (1, 0, 1, 1, 1, 1, 0, 1, 0)
    assert dv.order == 3
    assert dv.top_index == 7


def test_delta_unit_simplex():
    assert delta_vector(SIMPLEX2).entries == (1, 0, 0)


def test_delta_cube():
    cube = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                        (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert delta_vector(cube).entries == (1, 4, 1, 0)


def test_delta_implicit_zeros():
    dv = delta_vector(L53)
    assert dv[-1] == 0
    assert dv[3] == 0
    assert dv[1] == 1


def test_delta_mass_identity_is_checked(monkeypatch):
    real = ehrhart.normalized_volume
    monkeypatch.setattr(ehrhart, "normalized_volume", lambda P: real(P) + 1)
    with pytest.raises(AssertionError,
                       match="delta entries add up to 3, not .* = 4"):
        delta_vector(convex_hull(L53.vertices))  # not memoized yet


def test_delta_vector_is_memoized(monkeypatch):
    # the seam and mass checks run on the first call only; a second call
    # reads no count, builds no series and takes no volume
    P = convex_hull(LADDER["n2m13"])
    first = delta_vector(P)

    def recompute(*args, **kwargs):
        raise AssertionError("delta vector recomputed")

    for name in ("count_points", "series_numerator", "normalized_volume"):
        monkeypatch.setattr(ehrhart, name, recompute)
    assert delta_vector(P) is first
    with pytest.raises(AssertionError, match="recomputed"):
        delta_vector(convex_hull(LADDER["n2m13"]))


def test_delta_rejects_bad_entries():
    with pytest.raises(ValueError):
        DeltaVector((2, 0, 0), 1, 2)
    with pytest.raises(ValueError):
        DeltaVector((1, -1, 0), 1, 2)
    with pytest.raises(ValueError):
        DeltaVector((1, 0), 1, 2)


# ------------------------------------------------- delta by reciprocity


def _seeded_hulls(n, count):
    """Vertex lists of full-dimensional hulls with one denominator
    d in 1..3 each, so orders 1-3 and both parities of m(n+1) for even n."""
    rng = random.Random(1300 + n)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        pts = [tuple(F(rng.randint(-2, 2), d) for _ in range(n))
               for _ in range(rng.randint(n + 1, n + 4))]
        try:
            convex_hull(pts)
        except DegenerateInput:
            continue
        out.append(pts)
    return out


def _oracle_cases():
    """(name, polytope): the corpus, the ladder rows and seeded hulls."""
    cases = [("corpus:" + name, corpus_diagram(doc).polytope)
             for name, doc in corpus().items()]
    cases += [(name, convex_hull(verts)) for name, verts in LADDER.items()]
    for n in (1, 2, 3, 4):
        cases += [(f"hull-n{n}-{i}", convex_hull(pts)) for i, pts in
                  enumerate(_seeded_hulls(n, 10 if n < 4 else 6))]
    return cases


def test_delta_matches_closed_count_convolution():
    parities = set()
    for name, P in _oracle_cases():
        parities.add(order(P) * (P.dimension + 1) % 2)
        fresh = convex_hull(P.vertices)  # no shared count memo
        assert delta_vector(P).entries == delta_by_closed_counts(fresh), name
    assert parities == {0, 1}


@pytest.mark.parametrize("name", ["n2m13", "n3m8", "n4m3"])
def test_delta_reads_half_the_dilates(monkeypatch, name):
    # the interior series walks each dilate t <= floor(m(n+1)/2) + 1 once
    # and counts the closed dilate in the same walk, so the closed series
    # (t < ceil(m(n+1)/2)) finds every count in the memo
    walks = count_calls(monkeypatch, polytope, "_count_slices")
    P = convex_hull(LADDER[name])
    delta_vector(P)
    seam = order(P) * (P.dimension + 1) // 2 + 1
    assert len(walks) == seam
    assert all(args[-1] for args in walks)
    assert set(P._counts) == {(t, interior) for t in range(1, seam + 1)
                              for interior in (False, True)}


@pytest.mark.parametrize("vertices", [L53.vertices, ORDER3.vertices,
                                      SIMPLEX2.vertices, LADDER["n2m13"],
                                      LADDER["n4m2"]],
                         ids=["l53", "order3", "simplex", "n2m13", "n4m2"])
def test_delta_seam_is_checked(vertices):
    # the last interior dilate gives delta_(h-1) a second time
    P = convex_hull(vertices)
    top = order(P) * (P.dimension + 1)
    h = (top + 1) // 2
    s = top // 2 + 1
    P._counts[s, True] = count_points(P, s, interior=True) + 1
    with pytest.raises(MismatchAt, match="interior series gives") as info:
        delta_vector(P)
    assert info.value.j == F(h - 1, order(P))


SEAM_RUN = """
from contactbetti.ehrhart import MismatchAt, delta_vector
from contactbetti.polytope import convex_hull
P = convex_hull([("1/2", 0), (0, "1/2"), ("-1/2", "-1/2")])
P._counts[4, True] = 5
try:
    delta_vector(P)
except MismatchAt as exc:
    print(exc.j)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_delta_seam_raises_under_optimize(flags):
    # m = 2, n = 2: top = 6, h = 3, seam dilate 4, grading (h-1)/m = 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", SEAM_RUN],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


# ---------------------------------------------------------------- branches


def test_quasipolynomial_l53():
    qp = quasipolynomial(L53)
    assert qp.period == 1
    # L(t) = (3t^2 + 3t + 2) / 2
    assert qp.branches[0] == (F(1), F(3, 2), F(3, 2))
    assert [qp.evaluate(t) for t in range(5)] == [1, 4, 10, 19, 31]


def test_quasipolynomial_order3_branches():
    qp = quasipolynomial(ORDER3)
    assert qp.period == 3
    # residue 0: (t+3)^2/9, residue 1: (t-1)^2/9, residue 2: (t+1)^2/9
    assert qp.branches[0] == (F(1), F(2, 3), F(1, 9))
    assert qp.branches[1] == (F(1, 9), F(-2, 9), F(1, 9))
    assert qp.branches[2] == (F(1, 9), F(2, 9), F(1, 9))


def test_quasipolynomial_leading_coefficient_is_volume():
    for P in (L53, ORDER3, SIMPLEX2):
        qp = quasipolynomial(P)
        n = P.dimension
        vol = normalized_volume(P) / __import__("math").factorial(n)
        assert qp.branches[0][n] == vol


def test_reciprocity():
    for P in (L53, ORDER3, SIMPLEX2):
        qp = quasipolynomial(P)
        n = P.dimension
        m = qp.period
        for t in range(1, 3 * m + 1):
            interior = interior_count_by_reciprocity(qp, t)
            assert interior == count_points(P, t, interior=True)
            assert qp.evaluate(-t) == (-1) ** n * interior


# ---------------------------------------------------------------- interior


def interior_series_coeffs(P):
    """Coefficient list (delta_{mn-j})_j of the interior counting series,
    checked by reciprocity against interior counts.

    Index j runs over 0 .. m(n+1)-1 with out-of-range delta read as zero.
    The full reciprocity identity

        L_int(t+m) = sum_{j == t mod m, -m < j <= mn}
                     delta_{mn-j} C((t-j)/m + n, n)

    also needs the terms with j < 0 (they carry the delta entries above
    index mn); the returned truncation is the conventional numerator, and
    the check always uses the untruncated sum.
    """
    dv = delta_vector(P)
    m, n = dv.order, dv.dimension
    coeffs = tuple(dv[m * n - j] for j in range(m * (n + 1)))

    for t in range(0, 3 * m + 1):
        acc = 0
        j = -m + 1 + ((t - (-m + 1)) % m)  # smallest j > -m with j == t (m)
        while j <= m * n:
            acc += dv[m * n - j] * general_binomial((t - j) // m + n, n)
            j += m
        assert acc == count_points(P, t + m, interior=True), \
            f"interior count mismatch at t={t + m}"
    return coeffs


def test_interior_series_l53():
    ics = interior_series_coeffs(L53)
    assert ics[0] == 1  # one interior point in D itself
    assert ics == (1, 1, 1)


def test_interior_series_unit_simplex():
    ics = interior_series_coeffs(SIMPLEX2)
    assert ics[0] == 0
    assert ics == (0, 0, 1)


def test_interior_series_order3_validates():
    # the helper itself brute-force checks L_int(t+3) for t = 0..9
    ics = interior_series_coeffs(ORDER3)
    assert len(ics) == 9
    # delta_7 = 1 sits above index mn = 6, outside the truncated numerator
    assert ics == (0, 1, 1, 1, 1, 0, 1, 0, 0)


# ---------------------------------------------------------------- reflexive


def test_reflexive_l53():
    assert is_reflexive(L53) is True
    assert delta_vector(L53).is_palindromic()
    assert enumerate_lattice_points(L53, 1, interior=True) == [(0, 0)]
    assert all(c.denominator == 1
               for v in dual_polytope(L53).vertices for c in v)


def test_reflexive_translated():
    # reflexivity is detected after recentring the interior point
    P = convex_hull([(2, 1), (1, 2), (0, 0)])
    assert is_reflexive(P) is True
    assert enumerate_lattice_points(P, 1, interior=True) == [(1, 1)]


def test_not_reflexive_simplex():
    # neither route: the delta vector (1, 0, 0) is not palindromic, and
    # with no interior lattice point there is no dual to take
    assert is_reflexive(SIMPLEX2) is False
    assert not delta_vector(SIMPLEX2).is_palindromic()
    assert enumerate_lattice_points(SIMPLEX2, 1, interior=True) == []


def test_not_integral(monkeypatch):
    # a rational polytope is not reflexive, without further checks
    deltas = count_calls(monkeypatch, ehrhart, "delta_vector")
    assert is_reflexive(ORDER3) is False
    assert deltas == []


def test_reflexive_quad_criteria_agree():
    # is_reflexive raises unless its two routes agree
    P = convex_hull([(0, 0), (1, 0), (0, 1), (2, 2)])
    assert is_reflexive(P) is delta_vector(P).is_palindromic()


def test_reflexivity_disagreement_is_raised(monkeypatch):
    monkeypatch.setattr(DeltaVector, "is_palindromic", lambda self: False)
    with pytest.raises(AssertionError, match="criteria disagree"):
        is_reflexive(L53)


def test_palindromicity_classifies_the_sixteen_reflexive_polygons():
    # brute force over the box [-2,2]^2: palindromicity must agree with
    # dual integrality on every candidate, and the reflexive survivors
    # must fall into exactly 16 unimodular classes
    from conftest import brute_forced_reflexive_polygons

    pool, classes = brute_forced_reflexive_polygons()
    assert len(pool) > 1000
    for P, reflexive in pool:
        assert delta_vector(P).is_palindromic() is reflexive
    assert len(classes) == 16
    # one fixed representative pinned down, the anticanonical triangle
    assert ((-2, -1), (1, -1), (1, 2)) in classes


def _seeded_integral_hulls_3d(count):
    """Hulls of centrally symmetric sets of nonzero points of {-1,0,1}^3,
    half of them with one more point of [-2,2]^3: a mix of reflexive and
    non-reflexive integral polytopes."""
    rng = random.Random(33)
    cube = [p for p in itertools.product((-1, 0, 1), repeat=3) if any(p)]
    hulls = []
    while len(hulls) < count:
        pts = rng.sample(cube, rng.randint(3, 5))
        pts += [tuple(-c for c in p) for p in pts]
        if rng.random() < 0.5:
            pts.append(tuple(rng.randint(-2, 2) for _ in range(3)))
        try:
            hulls.append(convex_hull(pts))
        except DegenerateInput:
            pass
    return hulls


def test_unit_facet_distances_match_the_recentred_dual():
    # the route is_reflexive replaced: recentre the interior point and
    # take the polar dual, two more hulls
    from conftest import brute_forced_reflexive_polygons

    pool, _ = brute_forced_reflexive_polygons()
    hulls = [P for P, _ in pool] + _seeded_integral_hulls_3d(40)
    verdicts = [is_reflexive(P) for P in hulls]
    assert verdicts == [reflexive_by_dual(P) for P in hulls]
    assert 0 < sum(verdicts[len(pool):]) < 40


# ---------------------------------------------------------------- properties


coord = st.integers(min_value=-3, max_value=3)
denom = st.sampled_from([1, 1, 2, 3])


@st.composite
def rational_polygons(draw):
    m = draw(denom)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=6))
    return [(F(x, m), F(y, m)) for x, y in pts]


@settings(max_examples=40, deadline=None)
@given(rational_polygons())
def test_delta_properties_random(pts):
    try:
        P = convex_hull(pts)
    except DegenerateInput:
        return
    dv = delta_vector(P)
    m, n = order(P), P.dimension
    assert dv.entries[0] == 1
    assert all(d >= 0 for d in dv.entries)
    assert sum(dv.entries) == m ** (n + 1) * normalized_volume(P)
    qp = quasipolynomial(P)
    for t in range(1, 2 * m + 1):
        assert qp.evaluate(t) == count_points(P, t)
        assert (interior_count_by_reciprocity(qp, t)
                == count_points(P, t, interior=True))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=6))
def test_reflexivity_routes_agree_random(pts):
    try:
        P = convex_hull(pts)
    except DegenerateInput:
        return
    # is_reflexive raises when its two routes disagree
    assert is_reflexive(P) is (order(P) == 1
                               and delta_vector(P).is_palindromic())


# ---------------------------------------------------------------- -O proof

# Corrupt the memoized counts of dilates 2m(n+1) and 3m(n+1) - 1 of the
# order-2 triangle (m = 2, n = 2): both lie in quasipolynomial's validation
# window and outside delta_vector's, so the first one must be reported.
PATCHED_RUN = """
from contactbetti.ehrhart import MismatchAt, quasipolynomial
from contactbetti.polytope import convex_hull, count_points
P = convex_hull([("1/2", 0), (0, "1/2"), ("-1/2", "-1/2")])
for t in (12, 17):
    P._counts[t, False] = count_points(P, t) + 1
try:
    quasipolynomial(P)
except MismatchAt as exc:
    print(exc.j)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_quasipolynomial_raises_at_first_bad_dilate(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", PATCHED_RUN],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "6\n"  # grading t/m = 12/2


def test_quasipolynomial_mismatch_is_an_assertion_error():
    P = convex_hull([(F(1, 2), 0), (0, F(1, 2)), (F(-1, 2), F(-1, 2))])
    P._counts[12, False] = count_points(P, 12) - 1
    with pytest.raises(AssertionError) as info:
        quasipolynomial(P)
    assert isinstance(info.value, MismatchAt) and info.value.j == 6
