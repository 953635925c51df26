"""Slow elimination, lattice-point counters and a slow hull, kept as test
oracles.

``rat_echelon`` is the ``Fraction`` Gauss-Jordan elimination that
``exactlat.int_echelon`` replaced; ``rat_kernel`` and the hull oracle
read it.

``count_points_naive`` tests every point of the integer bounding box of
tP against every facet.  ``count_points_row_scan`` is the row scan the
slice kernel replaced: the first n-1 coordinates run over the box and the
last coordinate's range is solved from the cleared integer inequalities.
``hull_by_hyperplanes`` is the hull search that ``polytope.cone_rays``
replaced: every n-subset of the points that spans a hyperplane with all
points on one side gives a facet.  ``interior_count_by_reciprocity``
reads interior counts off a counting quasi-polynomial.
``delta_by_closed_counts`` is the delta vector as the convolution of all
closed counts L(t), t < m(n+1), which the half-closed, half-interior
reciprocity form replaced.

``face_lattice_by_levels`` is the level-by-level face enumeration that
``polytope.intersection_closure`` replaced, and
``fundamental_group_order_by_minors`` the gcd of all maximal minors that
the product of Smith invariants replaced.

``lattice_index`` is the product of Smith invariants that
``resolution`` read cell unimodularity and cone volumes from before it
took determinants.

``basis_completion_by_smith`` is the completion that
``exactlat.unimodular_frame`` replaced: a Smith form decides saturation,
then a Hermite form of the transpose and an inverse of its transform give
the completion.
"""
import itertools
import math
import operator
from fractions import Fraction

from contactbetti.exactlat import (LinearlyDependent, NotUnimodularSystem,
                                  det_int, hermite_normal_form, intmat,
                                  mat_inverse, primitive_vector,
                                  smith_invariants, transpose)
from contactbetti.polytope import affine_dim, count_points, order


def rat_echelon(rows):
    """Reduced row echelon form over Fractions, with its pivot columns.

    Returns (R, pivots): R keeps the nonzero rows only, row i has a 1 in
    column pivots[i] and every other row a 0 there.  The form is unique,
    so everything read off it is independent of the input row order.
    """
    A = [[Fraction(x) for x in row] for row in rows]
    nr, nc = len(A), len(A[0]) if A else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [v * inv for v in A[r]]
        for i in range(nr):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [v - f * w for v, w in zip(A[i], A[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in A[:len(pivots)]), tuple(pivots)


def rat_kernel(A):
    """Basis of the right kernel {x : A*x = 0} over Fractions."""
    R, pivots = rat_echelon(A)
    nc = len(A[0]) if A else 0
    basis = []
    for fc in range(nc):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for row, pc in zip(R, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def hull_by_hyperplanes(points):
    """(sorted vertices, sorted (normal, offset) facets) of a
    full-dimensional point set, by supporting-hyperplane search."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    n = len(pts[0])
    facets = set()
    for subset in itertools.combinations(pts, n):
        base = subset[0]
        kern = rat_kernel([[x - b for x, b in zip(p, base)]
                           for p in subset[1:]] or [[0] * n])
        if len(kern) != 1:
            continue
        normal = primitive_vector(kern[0])
        offset = -sum(a * x for a, x in zip(normal, base))
        vals = [sum(a * x for a, x in zip(normal, p)) + offset for p in pts]
        if all(v >= 0 for v in vals):
            facets.add((normal, offset))
        elif all(v <= 0 for v in vals):
            facets.add((tuple(-a for a in normal), -offset))
    vertices = [p for p in pts if len(rat_echelon(
        [a for a, c in facets
         if sum(x * y for x, y in zip(a, p)) + c == 0] or [[0] * n])[1]) == n]
    return vertices, sorted(facets)


def _coordinate_box(P, t):
    lo, hi = [], []
    for i in range(P.dimension):
        vals = [t * v[i] for v in P.vertices]
        lo.append(math.ceil(min(vals)))
        hi.append(math.floor(max(vals)))
    return lo, hi


def count_points_naive(P, t, interior=False):
    """Bounding-box scan testing every facet."""
    assert t >= 1
    n = P.dimension
    scaled = [(f.normal, t * f.offset) for f in P.facets]
    lo, hi = _coordinate_box(P, t)
    total = 0
    for pt in itertools.product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
        ok = True
        for normal, offset in scaled:
            val = sum(a * x for a, x in zip(normal, pt)) + offset
            if val < 0 or (interior and val == 0):
                ok = False
                break
        if ok:
            total += 1
    return total


def count_points_row_scan(P, t, interior=False):
    """Row scan: integer // on the last coordinate, one row per prefix."""
    assert t >= 1
    lower, upper, flat = [], [], []
    for f in P.facets:
        d = f.offset.denominator
        head = tuple(d * a for a in f.normal[:-1])
        an = d * f.normal[-1]
        c = t * f.offset.numerator - int(interior)
        if an > 0:    # x_n >= ceil(-(head.x + c) / an)
            lower.append((head, c, an))
        elif an < 0:  # x_n <= floor((head.x + c) / -an)
            upper.append((head, c, -an))
        else:
            flat.append((head, c))
    lo, hi = _coordinate_box(P, t)
    total = 0
    for prefix in itertools.product(*[range(lo[i], hi[i] + 1)
                                      for i in range(P.dimension - 1)]):
        if any(sum(map(operator.mul, h, prefix)) + c < 0 for h, c in flat):
            continue
        first = max(-((sum(map(operator.mul, h, prefix)) + c) // an)
                    for h, c, an in lower)
        last = min((sum(map(operator.mul, h, prefix)) + c) // an
                   for h, c, an in upper)
        if last >= first:
            total += last - first + 1
    return total


def interior_count_by_reciprocity(qp, t):
    """Interior count via reciprocity: L_int(t) = (-1)^n L(-t)."""
    assert t >= 1, "interior counts need t >= 1"
    return (-1) ** qp.dimension * qp.evaluate(-t)


def delta_by_closed_counts(P):
    """delta_j = sum_i (-1)^i C(n+1, i) L(j - i*m), 0 <= j < m(n+1)."""
    n, m = P.dimension, order(P)
    counts = [1] + [count_points(P, t) for t in range(1, m * (n + 1))]
    return tuple(sum((-1) ** i * math.comb(n + 1, i) * counts[j - i * m]
                     for i in range(min(j // m, n + 1) + 1))
                 for j in range(m * (n + 1)))


def face_lattice_by_levels(P):
    """{d: sorted vertex-id tuples of the d-faces}, keys from n down to 0.

    The facets are the (n-1)-faces; the (d-1)-faces are the intersections
    of a d-face with a facet whose vertices span dimension d - 1.
    """
    n = P.dimension
    lattice = {n: (tuple(range(len(P.vertices))),)}
    current = {f.vertex_ids for f in P.facets}
    for d in range(n - 1, -1, -1):
        lattice[d] = tuple(sorted(current))
        for vids in current:
            assert affine_dim([P.vertices[i] for i in vids]) == d
        nxt = set()
        for vids in current:
            for f in P.facets:
                inter = tuple(sorted(set(vids) & set(f.vertex_ids)))
                if inter and inter != vids and affine_dim(
                        [P.vertices[i] for i in inter]) == d - 1:
                    nxt.add(inter)
        current = nxt
    assert lattice[0] == tuple((i,) for i in range(len(P.vertices)))
    return lattice


def fundamental_group_order_by_minors(D):
    """gcd of the maximal minors of the lifted vertex matrix."""
    return math.gcd(*[det_int(sub) for sub in
                      itertools.combinations(D.normals, D.dimension + 1)])


def basis_completion_by_smith(vectors):
    """Rows extending independent, saturated rows to a Z-basis of Z^d."""
    M = intmat(vectors)
    k, d = len(M), len(M[0])
    if k > d:
        raise LinearlyDependent("more vectors than ambient dimension")
    inv = smith_invariants(M)
    if len(inv) < k:
        raise LinearlyDependent("vectors are linearly dependent")
    if any(x != 1 for x in inv):
        raise NotUnimodularSystem(inv)
    _, W = hermite_normal_form(transpose(M))
    Winv = mat_inverse(W)
    completion = tuple(tuple(Winv[i][j] for i in range(d))
                       for j in range(k, d))
    assert abs(det_int(M + completion)) == 1
    return completion


def lattice_index(vectors):
    """Index of the Z-span of the vectors inside its saturation.

    Equals the product of Smith invariants; |det| for square systems.
    """
    M = intmat(vectors)
    inv = smith_invariants(M)
    if len(inv) < len(M):
        raise LinearlyDependent("vectors are linearly dependent")
    return math.prod(inv)
