"""Toric diagrams, Reeb orbit gradings, and contact Betti numbers.

A toric diagram is a full-dimensional rational simplicial polytope D in
R^n whose facet vertex systems are unimodular after lifting each vertex
v to the integer normal (m*v, m), m the order of D.  A choice of
interior point and perturbation direction determines a Reeb vector whose
closed orbits come in one family per facet.  The perturbed Reeb vector
is linear in the infinitesimal, so each family is two rational solves
against one inverse of the facet basis, a value part and a slope part
(first-order jets).  A diagram builds that basis and its inverse once
per facet, on first use, for every Reeb vector.  The Conley-Zehnder
index of every iterate is then an exact integer computation (one
``divmod``-style floor per coefficient, the jet slope deciding exact
ties).

Two independent pipelines produce the graded dimension table cb:
``contact_betti_direct`` enumerates orbit degrees facet by facet, and
``contact_betti_from_delta`` reads the same table off the delta vector
of D.  Their agreement on every input is the central cross-check of the
package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .ehrhart import delta_vector
from .exactlat import (
    Jet,
    Mat,
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


def orbit_data(D: ToricDiagram, facet_id: int, reeb: ReebVector,
               eta: Optional[Sequence[int]] = None) -> OrbitFamily:
    """Solve for the orbit family coefficients on one facet.

    The lifted Reeb vector is linear in eps, so its coordinates in the
    basis (facet normals, eta) are two products with the one inverse of
    that basis: the value part of (m*v, m) and the slope part of (m*d, 0).
    ``eta`` may be supplied explicitly (any completion of the facet
    normals to a lattice basis), and the basis is then inverted here; by
    default the canonical completion and its inverse come from the
    facet's memoized frame (``ToricDiagram.facet_frame``).  The sign of
    eta is flipped if needed so that b > 0 in the lexicographic
    (value, slope) order.
    """
    _check_interior(D, reeb)
    return _orbit_family(D, facet_id, reeb, eta)


def _orbit_family(D: ToricDiagram, facet_id: int, reeb: ReebVector,
                  eta: Optional[Sequence[int]] = None) -> OrbitFamily:
    """orbit_data for a Reeb vector already checked to be interior."""
    m, n = D.order, D.dimension
    facet_normals = D.facet_normals(facet_id)
    if eta is None:
        (eta,), Binv = D.facet_frame(facet_id)
    else:
        eta = tuple(int(c) for c in eta)
        Binv = mat_inverse(facet_normals + (eta,))

    nu_value = [m * x for x in reeb.base] + [m]
    nu_slope = [m * x for x in reeb.direction] + [0]
    value, slope = vec_mat(nu_value, Binv), vec_mat(nu_slope, Binv)
    b = Jet(value[n], slope[n])
    if b == Jet(0, 0):
        raise GenericityFailure(0, facet_id)
    sign = -1 if b < Jet(0, 0) else 1
    eta, k = tuple(sign * c for c in eta), sign * eta[-1]

    # defining identities, checked on each part
    for what, nu, coeffs, total in (("value", nu_value, value, 1),
                                    ("slope", nu_slope, slope, 0)):
        bj, bn = coeffs[:n], sign * coeffs[n]
        got = sum(bj) + bn * Fraction(k, m)
        if got != total:
            raise AssertionError(
                f"facet {facet_id}: {what} coefficients sum to {got}, "
                f"not {total}")
        recon = [sum(c * fn[i] for c, fn in zip(bj, facet_normals))
                 + bn * eta[i] for i in range(n + 1)]
        if recon != nu:
            raise AssertionError(
                f"facet {facet_id}: {what} part reconstructs "
                f"({', '.join(map(str, recon))}), not "
                f"({', '.join(map(str, nu))})")
    b_coeffs = tuple(Jet(v, s) for v, s in zip(value[:n], slope[:n]))
    return OrbitFamily(facet_id, m, eta, k, b_coeffs,
                       Jet(sign * value[n], sign * slope[n]))


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


def _iterate_bound(family: OrbitFamily, d_max: Fraction) -> int:
    # deg(gamma^N) > 2 (N / b_value - 1), so iterates beyond this bound
    # exceed d_max; +1 margin keeps the boundary case inside
    return math.ceil(family.b.value * (d_max / 2 + 1)) + 1


def contact_betti_direct(D: ToricDiagram, reeb: Optional[ReebVector] = None,
                         window: Optional[Tuple[Fraction, Fraction]] = None,
                         ) -> GradedDimensions:
    """Histogram of orbit degrees over all facets and iterates.

    Facets containing the base point itself are skipped: their families'
    degrees exceed any finite window.  The per-facet iterate bound makes
    the returned window complete.  Degrees are counted by the integer
    m * degree and become rationals only once per distinct degree.
    """
    if reeb is None:
        reeb = ReebVector.default_for(D)
    d_min, d_max = checked_window(window, D.order, D.dimension)
    m = D.order
    lo, hi = math.ceil(m * d_min), math.floor(m * d_max)
    counts: dict = {}
    _check_interior(D, reeb)
    for fid in range(len(D.facet_vertex_ids)):
        family = _orbit_family(D, fid, reeb)
        if family.diverges:
            continue
        terms = _floor_terms(family)
        for N in range(1, _iterate_bound(family, d_max) + 1):
            md = _scaled_degree(family, terms, N)
            if lo <= md <= hi:
                counts[md] = counts.get(md, 0) + 1
    return GradedDimensions.from_items(
        [(Fraction(md, m), c) for md, c in counts.items()], (d_min, d_max))


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
