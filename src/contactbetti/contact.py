"""Toric diagrams, Reeb orbit gradings, and contact Betti numbers.

A toric diagram is a full-dimensional rational simplicial polytope D in
R^n whose facet vertex systems are unimodular after lifting each vertex
v to the integer normal (m*v, m), m the order of D.  A choice of
interior point and perturbation direction determines a Reeb vector whose
closed orbits come in one family per facet.  The perturbed Reeb vector
is linear in the infinitesimal, so each family is two integer products
with one inverse of the facet basis, a value part and a slope part
(first-order jets), each lifted vector cleared to integers first.  A
diagram builds that basis and its inverse once per facet, on first use,
for every Reeb vector.  The Conley-Zehnder index of every iterate is
then an exact integer computation (one floor per coefficient, the jet
slope deciding exact ties).

Two independent pipelines produce the graded dimension table cb:
``contact_betti_direct`` enumerates orbit degrees facet by facet, and
``contact_betti_from_delta`` reads the same table off the delta vector
of D.  Their agreement on every input is the central cross-check of the
package.

``contact_betti_direct`` is one fused pass for a tuple of Reeb vectors
that share a base point (``crosscheck`` passes its three perturbations,
``cb`` one vector).  Per facet the value part is solved once for all of
them and each slope part is one more integer product; the floor data,
eta, k and the iterate bound are common.  The floors are taken once per
iterate for all the vectors, and a vector's own slope signs act only at
exact hits, where N b_j / b is an integer: a negative slope subtracts 1
there, and a zero slope, including an identically zero coefficient jet,
raises GenericityFailure.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .ehrhart import delta_vector
from .exactlat import (
    Jet,
    Mat,
    clear_row,
    mat_inverse,
    smith_invariants,
    unimodular_frame,
    vec_mat,
)
from .grading import GradedDimensions, checked_window
from .polytope import RationalPolytope, count_points, normalized_volume, order


class NotSimplicial(ValueError):
    """A facet has more vertices than the dimension allows."""


class FacetNotUnimodular(ValueError):
    def __init__(self, facet_id: int, invariants):
        self.facet_id = facet_id
        self.invariants = tuple(invariants)
        super().__init__(
            f"facet {facet_id} has normal system with Smith invariants "
            f"{self.invariants}")


class GenericityFailure(ValueError):
    """A perturbed quantity landed exactly on an integer with no slope."""

    def __init__(self, N: int, j: Optional[int] = None):
        self.N = N
        self.j = j
        where = f" in coefficient {j}" if j is not None else ""
        super().__init__(f"degenerate jet at iterate N={N}{where}")


class NotInterior(ValueError):
    """Reeb base point is not (jet-)interior to the diagram."""


@dataclass(frozen=True)
class ToricDiagram:
    polytope: RationalPolytope
    order: int
    normals: Tuple[Tuple[int, ...], ...]        # (m*v, m) per vertex
    facet_vertex_ids: Tuple[Tuple[int, ...], ...]
    # facet id -> unimodular_frame of its normals, built on first use
    _frames: Dict[int, Tuple[Mat, Mat]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.polytope.dimension

    def facet_normals(self, facet_id: int) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self.normals[i] for i in self.facet_vertex_ids[facet_id])

    def facet_frame(self, facet_id: int) -> Tuple[Mat, Mat]:
        """(eta, inverse of [facet normals; eta]) with eta the canonical
        completion, one ``unimodular_frame`` per facet for every Reeb
        vector."""
        if facet_id not in self._frames:
            self._frames[facet_id] = unimodular_frame(
                self.facet_normals(facet_id))
        return self._frames[facet_id]


def validate_diagram(P: RationalPolytope) -> ToricDiagram:
    """Check simpliciality and per-facet unimodularity of the lifted normals.

    Each facet must have exactly n vertices, and the n lifted normals of
    any facet must extend to a basis of Z^(n+1) (all Smith invariants 1);
    this also forces every individual normal to be primitive.
    """
    n = P.dimension
    m = order(P)
    normals = tuple(tuple(int(m * c) for c in v) + (m,) for v in P.vertices)
    facet_ids = []
    for fid, facet in enumerate(P.facets):
        if len(facet.vertex_ids) != n:
            raise NotSimplicial(
                f"facet {fid} has {len(facet.vertex_ids)} vertices")
        facet_ids.append(tuple(facet.vertex_ids))
    for fid, ids in enumerate(facet_ids):
        inv = smith_invariants([list(normals[i]) for i in ids])
        if any(d != 1 for d in inv):
            raise FacetNotUnimodular(fid, inv)
    return ToricDiagram(P, m, normals, tuple(facet_ids))


@dataclass(frozen=True)
class ReebVector:
    """Interior base point plus perturbation direction.

    Represents the lifted vector (m(v + eps*d), m) with eps an
    infinitesimal; ``orbit_data`` solves its value part (m*v, m) and its
    slope part (m*d, 0) separately.
    """

    base: Tuple[Fraction, ...]
    direction: Tuple[Fraction, ...]

    @staticmethod
    def default_for(D: ToricDiagram,
                    perturb: Fraction = Fraction(1, 101)) -> "ReebVector":
        verts = D.polytope.vertices
        k = len(verts)
        base = tuple(sum(v[i] for v in verts) / k
                     for i in range(D.dimension))
        direction = tuple(perturb ** i for i in range(D.dimension))
        return ReebVector(base, direction)


def _check_interior(D: ToricDiagram, reeb: ReebVector) -> None:
    # jet-interior: equality on a facet is allowed when the direction
    # moves strictly inward there
    for f in D.polytope.facets:
        val = sum(a * x for a, x in zip(f.normal, reeb.base)) + f.offset
        if val < 0:
            raise NotInterior(f"base point violates facet {f.normal}")
        if val == 0:
            drift = sum(a * x for a, x in zip(f.normal, reeb.direction))
            if drift <= 0:
                raise NotInterior(
                    f"base point sits on facet {f.normal} and the "
                    f"perturbation does not move inward")


@dataclass(frozen=True)
class OrbitFamily:
    """One closed-orbit family: facet data plus exact jet coefficients.

    The decomposition reads  nu = sum_j b_coeffs[j] * nu_j  +  b * eta
    over the facet's lifted normals nu_j, with b > 0 as a jet.
    """

    facet_id: int
    order: int
    eta: Tuple[int, ...]
    k: int
    b_coeffs: Tuple[Jet, ...]
    b: Jet

    @property
    def diverges(self) -> bool:
        """Base point on this facet: degrees grow without bound."""
        return self.b.value == 0


def _lifted(point, m: int, last: int) -> Tuple[Tuple[int, ...], int]:
    """The lifted vector (m * point, m * last) cleared to integers: (L
    times it, L) with L the least common denominator of the point."""
    scale = math.lcm(*[x.denominator for x in point])
    return (tuple(m * c for c in clear_row(point, scale))
            + (m * last * scale,), scale)


def _coordinates(D: ToricDiagram, facet_id: int, basis: Mat, Binv: Mat,
                 what: str, nu: Tuple[int, ...], scale: int
                 ) -> Tuple[int, ...]:
    """Integer coordinates x = nu * Binv of a cleared lifted vector nu
    (``_lifted``, scale L) in the basis (facet normals nu_j, eta).

    The defining identities are checked as integer identities.  Every
    nu_j ends in m and eta in k, so m * sum_j x_j + x_n * k must be the
    last entry of nu: m * L for the value part, whose coefficients sum to
    1, and 0 for the slope part, whose coefficients sum to 0.  And
    sum_j x_j nu_j + x_n eta must rebuild nu.
    """
    m, n = D.order, D.dimension
    x = vec_mat(nu, Binv)
    got = m * sum(x[:n]) + x[n] * basis[n][n]
    if got != nu[n]:
        raise AssertionError(
            f"facet {facet_id}: {what} coefficients sum to "
            f"{Fraction(got, m * scale)}, not {Fraction(nu[n], m * scale)}")
    recon = tuple(sum(c * row[i] for c, row in zip(x, basis))
                  for i in range(n + 1))
    if recon != nu:
        raise AssertionError(
            f"facet {facet_id}: {what} part reconstructs "
            f"({', '.join(str(Fraction(c, scale)) for c in recon)}), not "
            f"({', '.join(str(Fraction(c, scale)) for c in nu)})")
    return x


def orbit_data(D: ToricDiagram, facet_id: int, reeb: ReebVector,
               eta: Optional[Sequence[int]] = None) -> OrbitFamily:
    """Solve for the orbit family coefficients on one facet.

    The lifted Reeb vector is linear in eps, so its coordinates in the
    basis (facet normals, eta) are two integer products with the one
    inverse of that basis (``_coordinates``): the value part of (m*v, m)
    and the slope part of (m*d, 0), each cleared to integers.  ``eta``
    may be supplied explicitly (any completion of the facet normals to a
    lattice basis), and the basis is then inverted here; by default the
    canonical completion and its inverse come from the facet's memoized
    frame (``ToricDiagram.facet_frame``).  The sign of eta is flipped if
    needed so that b > 0 in the lexicographic (value, slope) order.
    """
    _check_interior(D, reeb)
    m, n = D.order, D.dimension
    if eta is None:
        (eta,), Binv = D.facet_frame(facet_id)
    else:
        eta = tuple(int(c) for c in eta)
        Binv = mat_inverse(D.facet_normals(facet_id) + (eta,))
    basis = D.facet_normals(facet_id) + (eta,)
    nu, scale = _lifted(reeb.base, m, 1)
    x = _coordinates(D, facet_id, basis, Binv, "value", nu, scale)
    nu, slope_scale = _lifted(reeb.direction, m, 0)
    y = _coordinates(D, facet_id, basis, Binv, "slope", nu, slope_scale)
    if x[n] == 0 == y[n]:
        raise GenericityFailure(0, facet_id)
    sign = 1 if (x[n], y[n]) > (0, 0) else -1
    b_coeffs = tuple(Jet(Fraction(v, scale), Fraction(s, slope_scale))
                     for v, s in zip(x[:n], y[:n]))
    return OrbitFamily(facet_id, m, tuple(sign * c for c in eta),
                       sign * eta[n], b_coeffs,
                       Jet(Fraction(sign * x[n], scale),
                           Fraction(sign * y[n], slope_scale)))


def _floor_terms(family: OrbitFamily) -> Tuple[Tuple[int, int, int, int], ...]:
    """Integer data for the floors of N * b_j / b, one entry per nonzero b_j.

    Entry (j, p, q, s): b_j.value / b.value = p/q in lowest terms (q > 0)
    and s is the sign of the eps-slope of b_j / b, which has the sign of
    b_j.slope * b.value - b_j.value * b.slope.  Needs b.value > 0, i.e. a
    family that does not diverge.
    """
    b = family.b
    terms = []
    for j, bj in enumerate(family.b_coeffs):
        if not bj.value and not bj.slope:
            continue  # structural zero: no floor contribution
        ratio = bj.value / b.value
        slope = bj.slope * b.value - bj.value * b.slope
        terms.append((j, ratio.numerator, ratio.denominator,
                      (slope > 0) - (slope < 0)))
    return tuple(terms)


def _scaled_degree(family: OrbitFamily, terms, N: int) -> int:
    """m * deg(gamma^N) = 2 (m * sum_j floor(N b_j / b) + N k) + m (2n - 2).

    Floors are taken in the limit eps -> 0+.  On an integer N*p/q a
    negative slope floors to N*p/q - 1 = (N*p - 1) // q, and off the
    integers (N*p - 1) // q = (N*p) // q, so a negative slope always
    floors N*p - 1.  A zero slope on an integer is a genericity failure.
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


def orbit_degree(family: OrbitFamily, N: int) -> Fraction:
    """Degree CZ(gamma^N) + n - 2 of the N-th iterate, an exact rational."""
    if N < 1:
        raise ValueError("iterate N must be >= 1")
    if family.diverges:
        raise ValueError("index diverges: base point lies on this facet")
    return Fraction(_scaled_degree(family, _floor_terms(family), N),
                    family.order)


def _floor_histogram(m: int, k: int, terms, bound: int) -> Counter:
    """Counter of m * sum_j floor((N p_j - o_j) / q_j) + N k over the
    iterates N = 1 .. bound, for terms (p_j, q_j, o_j).

    The iterates run as ranges through ``map``, with no Python-level step
    per iterate; N * p_j runs as range(p_j, ..., p_j), and p_j = 0 (so
    q_j = 1) floors to the constant -o_j.
    """
    total = map(mul, range(1, bound + 1), repeat(k))
    for p, q, o in terms:
        if p:
            floors = map(floordiv, range(p - o, p * (bound + 1) - o, p),
                         repeat(q))
        else:
            floors = repeat(-o, bound)
        total = map(add, total, map(mul, floors, repeat(m)))
    return Counter(total)


def _family_histograms(m: int, n: int, eta_n: int, x, ys, reach
                       ) -> List[Counter]:
    """Per Reeb vector, the Counter of m * deg(gamma^N) over one facet's
    iterates N = 1 .. bound.

    x is the facet's integer value part (x[n] != 0, so the family does not
    diverge) and ys holds one slope part per vector, all cleared by
    ``_lifted``.  Every vector's family has the same eta and k (the sign of
    x[n] fixes b > 0), the same floor data b_j / b = p_j / q_j in lowest
    terms and the same iterate bound ceil(b (d_max/2 + 1)) + 1, where
    b (d_max/2 + 1) = |x[n]| * reach[0] / reach[1].  Only the slope
    signs differ: the sign of b_j.slope * b - b_j * b.slope is the sign of
    sgn(x[n]) * (y_j x[n] - x_j y[n]).  A sign decides a floor only at an
    exact hit, N p_j / q_j an integer, i.e. N a multiple of q_j; there a
    negative slope subtracts 1, and a zero slope raises GenericityFailure
    at the first hit N of any vector (then the least j).  An identically
    zero jet (p_j = 0, zero slope) hits at N = 1.

    The floors are taken once per iterate for all the vectors, with the
    first vector's signs (``_floor_histogram``).  Another vector moves
    only the iterates where one of its signs differs from the first
    vector's, all of them exact hits: each moves by m times the change of
    its floors.
    """
    sign = 1 if x[n] > 0 else -1
    bv, k = sign * x[n], sign * eta_n
    bound = -(-bv * reach[0] // reach[1]) + 1
    terms, signs = [], [[] for _ in ys]
    for j in range(n):
        g = math.gcd(x[j], bv)
        terms.append((x[j] // g, bv // g))
        for out, y in zip(signs, ys):
            t = sign * (y[j] * x[n] - x[j] * y[n])
            out.append((t > 0) - (t < 0))
    bad = [(q, j) for j, (p, q) in enumerate(terms)
           if q <= bound and any(s[j] == 0 for s in signs)]
    if bad:
        raise GenericityFailure(*min(bad))
    offsets = [tuple(int(s < 0) for s in row) for row in signs]
    shared = [(p, q, o) for (p, q), o in zip(terms, offsets[0])]
    histogram = _floor_histogram(m, k, shared, bound)
    out = []
    for own in offsets:
        moves: Counter = Counter()  # iterate -> change of its floors
        for (p, q, o), o_own in zip(shared, own):
            if o_own != o:
                for N in range(q, bound + 1, q):
                    moves[N] += o - o_own
        if not any(moves.values()):
            out.append(histogram)
            continue
        moved = Counter(histogram)
        for N, change in moves.items():
            if change:
                key = m * sum((N * p - o) // q for p, q, o in shared) + N * k
                moved[key] -= 1
                moved[key + m * change] += 1
        out.append(moved)
    return out


def contact_betti_direct(D: ToricDiagram,
                         reebs: Optional[Sequence[ReebVector]] = None,
                         window: Optional[Tuple[Fraction, Fraction]] = None,
                         ) -> Tuple[GradedDimensions, ...]:
    """Histograms of orbit degrees over all facets and iterates, one per
    Reeb vector; the vectors share one base point (default: the one
    vector ``ReebVector.default_for(D)``).

    One pass serves all the vectors.  The base point is cleared once; per
    facet its value part is one integer product with the facet frame's
    inverse, and each vector's slope part one more (``_coordinates``).
    Facets containing the base point are skipped: their families' degrees
    exceed any finite window.  The floors are then taken once per iterate
    for all the vectors (``_family_histograms``), and the per-facet
    iterate bound makes the returned window complete.  Degrees are
    counted by the integer m * degree and become rationals only once per
    distinct degree.
    """
    if reebs is None:
        reebs = (ReebVector.default_for(D),)
    if any(reeb.base != reebs[0].base for reeb in reebs):
        raise ValueError("the Reeb vectors must share one base point")
    d_min, d_max = checked_window(window, D.order, D.dimension)
    m, n = D.order, D.dimension
    lo, hi = math.ceil(m * d_min), math.floor(m * d_max)
    for reeb in reebs:
        _check_interior(D, reeb)
    nu, scale = _lifted(reebs[0].base, m, 1)
    slopes = [_lifted(reeb.direction, m, 0) for reeb in reebs]
    # b (d_max/2 + 1) = |x_n| (d_max + 2) / (2 * scale), as two integers
    reach = (d_max.numerator + 2 * d_max.denominator,
             2 * d_max.denominator * scale)
    shift = m * (2 * n - 2)  # m * degree = 2 * key + shift
    tallies = [Counter() for _ in reebs]
    for fid in range(len(D.facet_vertex_ids)):
        (eta,), Binv = D.facet_frame(fid)
        basis = D.facet_normals(fid) + (eta,)
        x = _coordinates(D, fid, basis, Binv, "value", nu, scale)
        ys = [_coordinates(D, fid, basis, Binv, "slope", s, s_scale)
              for s, s_scale in slopes]
        if x[n] == 0:  # b = 0 + slope * eps: the family diverges
            if any(y[n] == 0 for y in ys):
                raise GenericityFailure(0, fid)
            continue
        for tally, histogram in zip(
                tallies, _family_histograms(m, n, eta[n], x, ys, reach)):
            for key, c in histogram.items():
                tally[2 * key + shift] += c
    return tuple(GradedDimensions.from_items(
        [(Fraction(md, m), c) for md, c in tally.items()
         if c and lo <= md <= hi], (d_min, d_max)) for tally in tallies)


def contact_betti_from_delta(D: ToricDiagram,
                             window: Optional[Tuple[Fraction, Fraction]]
                             = None) -> GradedDimensions:
    """The same table computed from the delta vector:

        cb_{2j} = sum_{i >= 0} delta_{m(n-j) + m i}.
    """
    d_min, d_max = checked_window(window, D.order, D.dimension)
    dv = delta_vector(D.polytope)
    m, n = D.order, D.dimension
    items = []
    for mj in range(math.ceil(m * d_min / 2), math.floor(m * d_max / 2) + 1):
        j = Fraction(mj, m)
        start = m * n - mj
        total = sum(dv[idx] for idx in range(start, m * (n + 1), m))
        items.append((2 * j, total))
    return GradedDimensions.from_items(items, (d_min, d_max))


def mean_euler_characteristic(D: ToricDiagram) -> Fraction:
    """Average of the graded dimensions: m^(n+1) vol-normalized mass / 2."""
    m, n = D.order, D.dimension
    chi = Fraction(m ** (n + 1) * normalized_volume(D.polytope), 2)
    half_mass = Fraction(sum(delta_vector(D.polytope).entries), 2)
    if chi != half_mass:
        raise AssertionError(f"mean Euler characteristic {chi} differs "
                             f"from half the delta mass {half_mass}")
    return chi


def minimal_discrepancy(D: ToricDiagram) -> Fraction:
    """Smallest r with an integral point in (r+1) int(mD), r in (1/m)Z.

    Found by scanning dilates s*D for the first interior lattice point
    (r = s/m - 1) and cross-checked against two delta-vector identities:
    r = n - top/m for the top nonzero delta index, and 2r = first degree
    with a nonzero graded dimension.

    delta_vector reads its upper entries off the interior counts
    L°(t), t <= floor(m(n+1)/2) + 1, and the scan reuses those memoized
    counts.  When the first interior dilate s* is in that range, the
    top-index identity only restates reciprocity: delta_(m(n+1)-s*) is
    L°(s*) and every entry above it is 0 by construction.  Reciprocity
    itself is tested by delta_vector's seam entry and mass identity, by
    resolution.stapledon_check and by ehrhart.quasipolynomial.
    """
    m, n = D.order, D.dimension
    dv = delta_vector(D.polytope)
    r = None
    for s in range(1, m * (n + 1) + 1):
        if count_points(D.polytope, s, interior=True) > 0:
            r = Fraction(s, m) - 1
            break
    if r is None:
        raise AssertionError("no interior point up to dilate m(n+1) = "
                             f"{m * (n + 1)}")
    from_delta = n - Fraction(dv.top_index, m)
    if r != from_delta:
        raise AssertionError(f"minimal discrepancy {r} from the dilate "
                             f"scan, {from_delta} from the top delta index")
    lowest = min(contact_betti_from_delta(D).degrees())
    if 2 * r != lowest:
        raise AssertionError(f"twice the minimal discrepancy {r} is not "
                             f"the lowest graded degree {lowest}")
    return r
