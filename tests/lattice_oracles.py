"""Slow elimination, lattice-point counters and a slow hull, kept as test
oracles.

``rat_echelon`` is a ``Fraction`` Gauss-Jordan elimination, kept apart
from both kernels of ``exactlat``: the Hermite elimination ``_hermite``,
which ``rat_rank`` and ``mat_inverse`` read, and the Bareiss determinant
``det_int``, which ``rat_solve`` reads by Cramer's rule.  ``rat_kernel``,
the hull oracle and ``inverse_by_fractions`` (the right half of the
reduced form of [M | I]) read it, so the oracles that invert a basis do
not run the kernel that ``exactlat.unimodular_frame`` runs.

``count_points_naive`` tests every point of the integer bounding box of
tP against every facet.  ``count_points_row_scan`` is the row scan the
slice kernel replaced: the first n-1 coordinates run over the box and the
last coordinate's range is solved from the cleared integer inequalities.
``hull_by_hyperplanes`` is the hull search that ``polytope.cone_rays``
replaced: every n-subset of the points that spans a hyperplane with all
points on one side gives a facet.  Its vertices are ``vertices_by_rank``,
the rank test that ``polytope.convex_hull`` replaced by reading
incidences: a point is a vertex when its tight facet normals span Q^n.
``simplex_volume_by_differences`` is the simplex volume that one
determinant of the cleared lifted vertices replaced in
``polytope.simplex_normalized_volume``: the determinant of the
``Fraction`` differences p - p_0, each row cleared by its own
denominator.  ``interior_count_by_reciprocity``
reads interior counts off a counting quasi-polynomial.
``delta_by_closed_counts`` is the delta vector as the convolution of all
closed counts L(t), t < m(n+1), which the half-closed, half-interior
reciprocity form replaced.

``face_lattice_by_levels`` is the level-by-level face enumeration that
``polytope.intersection_closure`` replaced.  ``cone_skeleton_by_rays`` is
the good cone that ``prequant.is_good_cone`` now reads off a diagram's
face lattice: its rays enumerated again by ``cone_rays`` and its faces
closed over the rays' tight sets.  ``reflexive_by_dual`` is the
reflexivity route that Batyrev's unit facet distances replaced in
``ehrhart.is_reflexive``: recentre the interior lattice point by
``translate`` (a second hull) and test the polar dual (a third) for
integrality.  ``fundamental_group_order_by_minors`` is the gcd of all
maximal minors that the product of Smith invariants replaced.

``lattice_index`` is the product of Smith invariants that
``resolution`` read cell unimodularity and cone volumes from before it
took determinants.

``contact_betti_by_passes`` is the direct orbit count that the fused
``contact.contact_betti_direct`` replaced: one pass per Reeb vector, a
``Fraction`` solve per facet (``orbit_family_by_fractions``, a
``JetFamily`` of first-order ``Jet`` coefficients) and one
``jet_scaled_degree`` call per iterate, the per-iterate rule that
``contact.orbit_degree`` replaced.  ``floor_family`` converts a jet
family into the package's ``contact.OrbitFamily`` by ``Fraction``
arithmetic (``jet_floor_terms``).  ``box_ages_by_products``
is the box census that ``resolution.box_elements`` steps: every element
multiplied out of the Smith generators and reduced mod L.

``FractionTable`` is the graded table keyed by ``Fraction`` degrees that
``grading.GradedDimensions`` replaced by integer keys q * degree, with
its ``from_items``; ``sum_rows_by_fractions`` is the row sum over such
tables.  ``contact_betti_from_delta_by_fractions``,
``base_cohomology_by_fractions`` and ``hc_from_quotient_by_fractions``
are the delta and quotient routes' tables built on it, one ``Fraction``
per degree and one generator sum per delta degree.  The package's tables
and these are compared by ``table_view``: the printed rows and the
window.

``basis_completion_by_smith`` is the completion that
``exactlat.unimodular_frame`` replaced: a Smith form decides saturation,
then a Hermite form of the transpose and a ``Fraction`` inverse of its
transform give the completion.
"""
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from contactbetti.contact import (GenericityFailure, OrbitFamily,
                                  _check_interior)
from contactbetti._jsonio import rat_str
from contactbetti.ehrhart import MismatchAt, delta_vector
from contactbetti.exactlat import (LinearlyDependent,
                                  NotUnimodularSystem, det_int,
                                  hermite_normal_form, intmat,
                                  primitive_vector, rat_rank, smith_invariants,
                                  smith_normal_form, transpose, vec_mat)
from contactbetti.grading import checked_window
from contactbetti.polytope import (affine_dim, cone_rays, convex_hull,
                                   count_points, dual_polytope,
                                   enumerate_lattice_points,
                                   intersection_closure, order)
from contactbetti.prequant import ConeFace, _hc_window, _sector_items


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


def inverse_by_fractions(M):
    """Inverse over Q of a square matrix, read off the reduced echelon form
    of [M | I]: LinearlyDependent when M is singular."""
    n = len(M)
    R, pivots = rat_echelon([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(M)])
    if pivots != tuple(range(n)):
        raise LinearlyDependent("matrix is singular")
    return tuple(row[n:] for row in R)


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
    return vertices_by_rank(pts, facets), sorted(facets)


def vertices_by_rank(points, facets):
    """The points whose tight facet normals span Q^n, in their order."""
    n = len(points[0])
    return [p for p in points if len(rat_echelon(
        [a for a, c in facets
         if sum(x * y for x, y in zip(a, p)) + c == 0] or [[0] * n])[1]) == n]


def simplex_volume_by_differences(points):
    """n! times the volume of the simplex on n+1 points, from the
    determinant of the differences to the first point."""
    base = points[0]
    rows = [[Fraction(x) - b for x, b in zip(p, base)] for p in points[1:]]
    scales = [math.lcm(*[x.denominator for x in row]) for row in rows]
    det = det_int([[int(x * d) for x in row] for row, d in zip(rows, scales)])
    return abs(Fraction(det, math.prod(scales)))


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


def cone_skeleton_by_rays(normals):
    """Extreme rays and faces of {y : <nu_j, y> >= 0}: the faces by their
    ray sets, the rays on each facet closed under intersection, sorted as
    ``prequant.is_good_cone`` sorts them."""
    nu = tuple(tuple(int(x) for x in row) for row in normals)
    rays = cone_rays(nu)
    zero_sets = [frozenset(j for j in range(len(nu))
                           if sum(map(operator.mul, nu[j], ray)) == 0)
                 for ray in rays]
    faces = []
    for members in intersection_closure(
            len(rays), [[i for i, z in enumerate(zero_sets) if j in z]
                        for j in range(len(nu))]):
        tight = frozenset.intersection(*[zero_sets[i] for i in members])
        faces.append(ConeFace(tuple(sorted(tight)),
                              rat_rank([rays[i] for i in members])))
    return rays, tuple(sorted(faces, key=lambda f: (len(f.tight), f.tight)))


def translate(P, shift):
    """The hull of P's vertices shifted by ``shift``."""
    sh = tuple(Fraction(x) for x in shift)
    return convex_hull([tuple(x + s for x, s in zip(v, sh))
                        for v in P.vertices])


def reflexive_by_dual(P):
    """Integral P with one interior lattice point p whose recentred polar
    dual (P - p)* is integral."""
    if order(P) != 1:
        return False
    interior = enumerate_lattice_points(P, 1, interior=True)
    if len(interior) != 1:
        return False
    dual = dual_polytope(translate(P, tuple(-c for c in interior[0])))
    return all(c.denominator == 1 for v in dual.vertices for c in v)


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
    Winv = inverse_by_fractions(W)
    completion = tuple(tuple(int(Winv[i][j]) for i in range(d))
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


@dataclass(frozen=True, order=True)
class Jet:
    """value + slope*eps with eps an infinitesimal positive quantity.

    A record with no arithmetic: orbit families solve the value and slope
    parts separately.  Both fields are stored as Fractions, and jets are
    ordered lexicographically in (value, slope), matching eps -> 0+.
    """

    value: Fraction
    slope: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "slope", Fraction(self.slope))


@dataclass(frozen=True)
class JetFamily:
    """One closed-orbit family with exact jet coefficients: the
    decomposition nu = sum_j b_coeffs[j] * nu_j + b * eta over the facet's
    lifted normals nu_j, with b > 0 as a jet."""

    order: int
    eta: Tuple[int, ...]
    k: int
    b_coeffs: Tuple[Jet, ...]
    b: Jet

    @property
    def diverges(self):
        return self.b.value == 0


def orbit_family_by_fractions(D, facet_id, reeb, eta=None):
    """One facet's orbit family from two rational products with the
    inverse of the facet basis, b > 0 as a jet.  eta defaults to the
    canonical completion (the facet's frame); any other completion of the
    facet normals to a lattice basis is inverted here."""
    m, n = D.order, D.dimension
    if eta is None:
        (eta,), Binv = D.facet_frame(facet_id)
    else:
        Binv = inverse_by_fractions(D.facet_normals(facet_id)
                                    + (tuple(eta),))
    value = vec_mat([m * x for x in reeb.base] + [m], Binv)
    slope = vec_mat([m * x for x in reeb.direction] + [0], Binv)
    b = Jet(value[n], slope[n])
    if b == Jet(0, 0):
        raise GenericityFailure(0, facet_id)
    sign = -1 if b < Jet(0, 0) else 1
    return JetFamily(m, tuple(sign * c for c in eta), sign * eta[-1],
                     tuple(Jet(v, s) for v, s in zip(value[:n], slope[:n])),
                     Jet(sign * value[n], sign * slope[n]))


def jet_floor_terms(family):
    """Integer data for the floors of N * b_j / b, one entry per b_j.

    Entry (j, p, q, s): b_j.value / b.value = p/q in lowest terms (q > 0)
    and s is the sign of the eps-slope of b_j / b, which has the sign of
    b_j.slope * b.value - b_j.value * b.slope.  Needs b.value > 0, i.e. a
    family that does not diverge.
    """
    b = family.b
    terms = []
    for j, bj in enumerate(family.b_coeffs):
        ratio = bj.value / b.value
        slope = bj.slope * b.value - bj.value * b.slope
        terms.append((j, ratio.numerator, ratio.denominator,
                      (slope > 0) - (slope < 0)))
    return tuple(terms)


def jet_scaled_degree(family, terms, N):
    """m * deg(gamma^N) = 2 (m * sum_j floor(N b_j / b) + N k) + m (2n - 2).

    Floors are taken in the limit eps -> 0+.  On an integer N*p/q a
    negative slope floors to N*p/q - 1 = (N*p - 1) // q, and off the
    integers (N*p - 1) // q = (N*p) // q, so a negative slope always
    floors N*p - 1.  A zero slope on an integer is a genericity failure,
    so an identically zero jet (p = 0, zero slope) fails at N = 1.
    """
    floors = 0
    for j, p, q, sign in terms:
        Np = N * p
        if sign < 0:
            Np -= 1
        elif sign == 0 and Np % q == 0:
            raise GenericityFailure(N, j)
        floors += Np // q
    m, n = family.order, len(family.b_coeffs)
    return 2 * (m * floors + N * family.k) + m * (2 * n - 2)


def floor_family(family):
    """The package's ``OrbitFamily`` of a jet family: its floor data
    from ``jet_floor_terms``, none when the family diverges."""
    terms = () if family.diverges else jet_floor_terms(family)
    return OrbitFamily(family.order, family.eta, family.k, family.b.value,
                       family.b.slope, tuple((p, q) for _, p, q, _ in terms),
                       tuple(s for *_, s in terms))


def contact_betti_by_passes(D, reeb, window=None):
    """The graded table of one Reeb vector, one iterate at a time."""
    d_min, d_max = checked_window(window, D.order, D.dimension)
    m = D.order
    lo, hi = math.ceil(m * d_min), math.floor(m * d_max)
    _check_interior(D, reeb)
    counts = {}
    for fid in range(len(D.facet_vertex_ids)):
        family = orbit_family_by_fractions(D, fid, reeb)
        if family.diverges:
            continue
        terms = jet_floor_terms(family)
        bound = math.ceil(family.b.value * (d_max / 2 + 1)) + 1
        for N in range(1, bound + 1):
            md = jet_scaled_degree(family, terms, N)
            if lo <= md <= hi:
                counts[md] = counts.get(md, 0) + 1
    return FractionTable.from_items(
        [(Fraction(md, m), c) for md, c in counts.items()], (d_min, d_max))


@dataclass(frozen=True)
class FractionTable:
    """Finitely supported map from ``Fraction`` degrees to dimensions;
    zero entries are never stored."""

    entries: Dict[Fraction, int]
    window: Tuple[Fraction, Fraction]

    @staticmethod
    def from_items(items, window):
        acc = {}
        lo, hi = Fraction(window[0]), Fraction(window[1])
        for d, c in items:
            dd = Fraction(d)
            if c and lo <= dd <= hi:
                acc[dd] = acc.get(dd, 0) + c
        return FractionTable({d: c for d, c in acc.items() if c}, (lo, hi))

    def to_rows(self):
        return [{"degree": rat_str(d), "dim": self.entries[d]}
                for d in sorted(self.entries)]


def sum_rows_by_fractions(rows):
    """Entry-wise sum of keyed rows enumerated over one common window."""
    total = {}
    window = None
    for row in rows.values():
        window = row.window
        for d, v in row.entries.items():
            total[d] = total.get(d, 0) + v
    return FractionTable({d: v for d, v in total.items() if v}, window)


def table_view(table):
    """The rows a table prints and its window: a package table and an
    oracle's ``FractionTable`` compare on these."""
    return table.to_rows(), table.window


def contact_betti_from_delta_by_fractions(D, window=None):
    """cb_{2j} = sum_{i >= 0} delta_{m(n-j) + m i}, one sum per degree."""
    d_min, d_max = checked_window(window, D.order, D.dimension)
    dv = delta_vector(D.polytope)
    m, n = D.order, D.dimension
    items = []
    for mj in range(math.ceil(m * d_min / 2), math.floor(m * d_max / 2) + 1):
        j = Fraction(mj, m)
        start = m * n - mj
        total = sum(dv[idx] for idx in range(start, m * (n + 1), m))
        items.append((2 * j, total))
    return FractionTable.from_items(items, (d_min, d_max))


def base_cohomology_by_fractions(Q):
    """The base's sector cohomology, each component shifted by its doubled
    coefficient sum."""
    n = Q.base.dimension
    items = [(comp.shift + 2 * i, c)
             for sector in Q.sectors
             for comp in sector.components
             for i, c in enumerate(comp.h)]
    return FractionTable.from_items(items, (Fraction(0), Fraction(2 * n)))


def hc_from_quotient_by_fractions(Q, window=None):
    """The sector sum of the quotient route over per-period rows."""
    lo, hi = _hc_window(Q, window)
    return sum_rows_by_fractions({
        sector.period: FractionTable.from_items(
            _sector_items(sector, Q.r, hi), (lo, hi))
        for sector in Q.sectors})


def box_ages_by_products(fan, cone):
    """Ages m * psi of a cone's box elements, each element multiplied out
    as sum t_i g_i mod L over all t in the product of the ranges d_i."""
    k = len(cone)
    if k == 0:
        return [0]
    M = [list(fan.rays[i]) for i in sorted(cone)]
    S, U, _ = smith_normal_form(M)
    dets = [S[i][i] for i in range(k)]
    L = dets[-1]
    cols = list(zip(*[[L // d * u for u in row] for d, row in zip(dets, U)]))
    ages = []
    for t in itertools.product(*[range(d) for d in dets]):
        c = [sum(ti * g for ti, g in zip(t, col)) % L for col in cols]
        if 0 in c:
            continue
        s, rest = divmod(fan.order * sum(c), L)
        if rest:
            raise MismatchAt(Fraction(sum(c), L), "non-integral age m * psi")
        ages.append(s)
    return ages
