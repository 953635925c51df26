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

``validate_diagram`` tests each facet by the gcd of the maximal minors of
its lifted normals (``exactlat.minor_gcd``) and takes a Smith form only
for the first facet that fails, to report its invariants.

Two independent pipelines produce the graded dimension table cb:
``contact_betti_direct`` enumerates orbit degrees facet by facet, and
``contact_betti_from_delta`` reads the same table off the delta vector
of D.  Their agreement on every input is the central cross-check of the
package.

``contact_betti_direct`` is one fused pass for a tuple of Reeb vectors
that share a base point (``crosscheck`` passes its three perturbations,
``cb`` one vector).  Per facet the value part is solved once for all of
them and each slope part is one more integer product (``_facet_solve``);
the ratios b_j / b, eta, k and the iterate bound are common, and
``_floor_data`` gives the ratios with each vector's slope signs.  The
floors are taken once per iterate for all the vectors, and a vector's own
slope signs act only at exact hits, where N b_j / b is an integer: a
negative slope subtracts 1 there, and a zero slope, including an
identically zero coefficient jet, raises GenericityFailure.

``orbits`` and ``cb`` read one floor data: ``orbit_data`` solves a
family by the same ``_facet_solve`` and ``_floor_data``, and
``orbit_degree`` takes one iterate's floors by the histogram's rule.
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
    Mat,
    clear_row,
    minor_gcd,
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
    any facet must extend to a basis of Z^(n+1): the gcd of their n x n
    minors is 1 (``minor_gcd``, the product of their Smith invariants);
    this also forces every individual normal to be primitive.  The Smith
    invariants are computed only for the first facet that fails, to
    report them in ``FacetNotUnimodular``.
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
        rows = [normals[i] for i in ids]
        if minor_gcd(rows) != 1:
            raise FacetNotUnimodular(fid, smith_invariants(rows))
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
    """One closed-orbit family.

    The decomposition reads  nu = sum_j b_j * nu_j  +  b * eta  over the
    facet's lifted normals nu_j, with b > 0 as a jet (value ``b``, slope
    ``b_slope``).  ``ratios`` and ``signs`` are the floor data of the b_j
    (``_floor_data``), empty when the family diverges.
    """

    order: int
    eta: Tuple[int, ...]
    k: int
    b: Fraction
    b_slope: Fraction
    ratios: Tuple[Tuple[int, int], ...]
    signs: Tuple[int, ...]

    @property
    def diverges(self) -> bool:
        """Base point on this facet: degrees grow without bound."""
        return self.b == 0


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


def _facet_solve(D: ToricDiagram, facet_id: int, value, slopes):
    """(eta, x, ys): the facet's canonical eta and the coordinates of a
    cleared value part and of each cleared slope part (``_lifted`` pairs)
    in the basis (facet normals, eta), by the facet's memoized frame."""
    (eta,), Binv = D.facet_frame(facet_id)
    basis = D.facet_normals(facet_id) + (eta,)
    x = _coordinates(D, facet_id, basis, Binv, "value", *value)
    ys = [_coordinates(D, facet_id, basis, Binv, "slope", *slope)
          for slope in slopes]
    return eta, x, ys


def _floor_data(x, ys):
    """Floor data of one facet's families, which share the cleared value
    part x (x[n] != 0: they do not diverge) and have one slope part y in
    ys each: the ratios b_j / b = p_j / q_j in lowest terms (q_j > 0),
    common since the sign of x[n] fixes b > 0, and per y the signs of the
    eps-slopes of b_j / b, those of sgn(x[n]) * (y_j x[n] - x_j y[n]).
    """
    n = len(x) - 1
    sign = 1 if x[n] > 0 else -1
    bv = sign * x[n]
    ratios = []
    for j in range(n):
        g = math.gcd(x[j], bv)
        ratios.append((x[j] // g, bv // g))
    signs = []
    for y in ys:
        slopes = [sign * (y[j] * x[n] - x[j] * y[n]) for j in range(n)]
        signs.append(tuple((t > 0) - (t < 0) for t in slopes))
    return tuple(ratios), signs


def orbit_data(D: ToricDiagram, facet_id: int,
               reeb: ReebVector) -> OrbitFamily:
    """Solve for the orbit family on one facet, as one vector of
    ``contact_betti_direct`` would: the value part of (m*v, m) and the
    slope part of (m*d, 0) by ``_facet_solve``, then ``_floor_data``.
    The sign of eta is flipped if needed so that b > 0 in the
    lexicographic (value, slope) order.
    """
    _check_interior(D, reeb)
    m, n = D.order, D.dimension
    value = _lifted(reeb.base, m, 1)
    slope = _lifted(reeb.direction, m, 0)
    eta, x, (y,) = _facet_solve(D, facet_id, value, (slope,))
    if x[n] == 0 == y[n]:
        raise GenericityFailure(0, facet_id)
    sign = 1 if (x[n], y[n]) > (0, 0) else -1
    ratios, signs = (), ()
    if x[n]:
        ratios, (signs,) = _floor_data(x, (y,))
    return OrbitFamily(m, tuple(sign * c for c in eta), sign * eta[n],
                       Fraction(sign * x[n], value[1]),
                       Fraction(sign * y[n], slope[1]), ratios, signs)


def orbit_degree(family: OrbitFamily, N: int) -> Fraction:
    """Degree CZ(gamma^N) + n - 2 of the N-th iterate, an exact rational.

    m * degree = 2 (m * sum_j floor((N p_j - o_j) / q_j) + N k) + m (2n - 2),
    the rule of ``_floor_histogram``: in the limit eps -> 0+ a negative
    slope (o_j = 1) floors an exact hit, q_j dividing N, one lower and
    changes no other floor.  A zero slope at an exact hit is a genericity
    failure; an identically zero coefficient (p_j = 0) hits at N = 1.
    """
    if N < 1:
        raise ValueError("iterate N must be >= 1")
    if family.diverges:
        raise ValueError("index diverges: base point lies on this facet")
    floors = 0
    for j, ((p, q), s) in enumerate(zip(family.ratios, family.signs)):
        if s == 0 and N % q == 0:
            raise GenericityFailure(N, j)
        floors += (N * p - (s < 0)) // q
    m, n = family.order, len(family.ratios)
    return Fraction(2 * (m * floors + N * family.k) + m * (2 * n - 2), m)


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
    x[n] fixes b > 0), the same ratios b_j / b = p_j / q_j and the same
    iterate bound ceil(b (d_max/2 + 1)) + 1, where
    b (d_max/2 + 1) = |x[n]| * reach[0] / reach[1].  Only the slope
    signs differ (``_floor_data``).  A sign decides a floor only at an
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
    k = eta_n if x[n] > 0 else -eta_n
    bound = -(-abs(x[n]) * reach[0] // reach[1]) + 1
    terms, signs = _floor_data(x, ys)
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
    inverse, and each vector's slope part one more (``_facet_solve``).
    Facets containing the base point are skipped: their families' degrees
    exceed any finite window.  The floors are then taken once per iterate
    for all the vectors (``_family_histograms``), and the per-facet
    iterate bound makes the returned window complete.  Degrees are
    counted by the integer m * degree, the key of the returned tables.
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
    value = _lifted(reebs[0].base, m, 1)
    slopes = [_lifted(reeb.direction, m, 0) for reeb in reebs]
    # b (d_max/2 + 1) = |x_n| (d_max + 2) / (2 * scale), as two integers
    reach = (d_max.numerator + 2 * d_max.denominator,
             2 * d_max.denominator * value[1])
    shift = m * (2 * n - 2)  # m * degree = 2 * key + shift
    tallies = [Counter() for _ in reebs]
    for fid in range(len(D.facet_vertex_ids)):
        eta, x, ys = _facet_solve(D, fid, value, slopes)
        if x[n] == 0:  # b = 0 + slope * eps: the family diverges
            if any(y[n] == 0 for y in ys):
                raise GenericityFailure(0, fid)
            continue
        for tally, histogram in zip(
                tallies, _family_histograms(m, n, eta[n], x, ys, reach)):
            for key, c in histogram.items():
                tally[2 * key + shift] += c
    return tuple(GradedDimensions(
        m, {md: c for md, c in tally.items() if c and lo <= md <= hi},
        (d_min, d_max)) for tally in tallies)


def contact_betti_from_delta(D: ToricDiagram,
                             window: Optional[Tuple[Fraction, Fraction]]
                             = None) -> GradedDimensions:
    """The same table computed from the delta vector:

        cb_{2j} = sum_{i >= 0} delta_{m(n-j) + m i},

    keyed by m * 2j.  One suffix-sum pass per residue class mod m gives
    every sum: delta_idx is 0 outside 0 <= idx < m(n+1), so a start
    below 0 reads the sum from the least index of its class.
    """
    d_min, d_max = checked_window(window, D.order, D.dimension)
    dv = delta_vector(D.polytope)
    m, n = D.order, D.dimension
    top = m * (n + 1)
    suffix = list(dv.entries) + [0] * m
    for idx in range(top - 1, -1, -1):
        suffix[idx] += suffix[idx + m]
    counts = {}
    for mj in range(math.ceil(m * d_min / 2), math.floor(m * d_max / 2) + 1):
        start = m * n - mj
        if start < top:
            total = suffix[start if start >= 0 else start % m]
            if total:
                counts[2 * mj] = total
    return GradedDimensions(m, counts, (d_min, d_max))


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
    table = contact_betti_from_delta(D)
    lowest = Fraction(min(table.counts), table.order)
    if 2 * r != lowest:
        raise AssertionError(f"twice the minimal discrepancy {r} is not "
                             f"the lowest graded degree {lowest}")
    return r
