"""Circle quotients of Gorenstein diagrams and their twisted sectors.

An integral diagram describes a contact manifold fibering over a labelled
symplectic base once an integral direction through the interior is fixed.
This module translates between the two descriptions (labelled polytope
with its Gorenstein period on one side, diagram plus quotient direction on
the other), enumerates the twisted sectors of the quotient, and assembles
the two column-graded tables that must agree: the base's orbifold
cohomology and the contact homology of the total space.

The good cone of a diagram D is {y : <nu_j, y> >= 0} over D's lifted
normals nu_j = (m v_j, m).  Its rays are D's facets, so no ray is
enumerated here: its faces are read off D's face lattice, which
``polytope`` builds from the facets that ``convex_hull`` found.  No
further hull of the diagram runs: beside that hull, ``cone_rays`` runs
on a diagram of dimension n >= 4 only once per projection level of the
counting frame (``polytope._frame``) that bounds its lattice point counts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .contact import NotInterior, ToricDiagram, validate_diagram
from .exactlat import (LinearlyDependent, det_int, minor_gcd, rat_solve,
                       smith_invariants, transpose, unimodular_frame,
                       vec_mat)
from .grading import GradedDimensions, checked_window, sum_rows
from .polyarith import f_to_h
from .polytope import LabelledPolytope, convex_hull, labelled_polytope


class NotGorenstein(ValueError):
    """The labelled data admits no integral period-one functional."""


class NotPrimitive(ValueError):
    """The quotient direction is an integer multiple of a shorter vector."""


# ----------------------------------------------------------------------
# good cones


@dataclass(frozen=True)
class ConeFace:
    """Face of a pointed cone, keyed by the full tight set of facet ids."""

    tight: Tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class GoodCone:
    normals: Tuple[Tuple[int, ...], ...]
    faces: Tuple[ConeFace, ...]     # dims 1 .. n+1; the apex is never used

    @property
    def dimension(self) -> int:
        return len(self.normals[0])


@dataclass(frozen=True)
class GoodConeReport:
    """Outcome of the per-face lattice-basis test.

    ``failing_face`` is the tight set of the first bad face; ``invariants``
    carries its Smith invariants, or None when the face is cut by the wrong
    number of facets.
    """

    good: bool
    cone: Optional[GoodCone]
    failing_face: Optional[Tuple[int, ...]]
    invariants: Optional[Tuple[int, ...]]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def is_good_cone(D: ToricDiagram) -> GoodConeReport:
    """Test every face of codim 1..n of D's cone for being cut by exactly
    that many facets whose normals extend to a lattice basis.

    <(m v, m), (a, c)> = m (<a, v> + c), so the facet <a, x> + c >= 0 of
    D is the cone's ray (a, c), tight on the lifts of the facet's
    vertices.  A face F of D with vertex ids J is then the cone face
    tight on exactly J, of dimension n - dim F; the empty face of D is
    the whole cone (dimension n + 1), and D itself the apex, never used.

    A face passes when ``minor_gcd`` of its normals is 1; Smith
    invariants are taken only for the first face that fails, for the
    report.  On a diagram that ``validate_diagram`` accepted no face
    fails: every proper face of D is a face of a simplex facet, so its
    tight normals are some of that facet's n lifted normals, which
    validation certified to extend to a basis of Z^(n+1), and part of a
    basis extends to one.  The test stays as a cheap cross-check of that
    argument; only a ``ToricDiagram`` built without validation can fail
    it.
    """
    n = D.dimension
    lattice = D.polytope.face_lattice()
    faces = [ConeFace((), n + 1)] + [ConeFace(f.vertex_ids, n - d)
                                     for d in range(n) for f in lattice[d]]
    faces.sort(key=lambda f: (len(f.tight), f.tight))
    for face in faces[1:]:  # faces[0], the whole cone, has no facet
        if len(face.tight) != n + 1 - face.dim:
            return GoodConeReport(False, None, face.tight, None)
        rows = [D.normals[j] for j in face.tight]
        if minor_gcd(rows) != 1:
            return GoodConeReport(False, None, face.tight,
                                  smith_invariants(rows))
    return GoodConeReport(True, GoodCone(D.normals, tuple(faces)), None,
                          None)


def good_cone(D: ToricDiagram) -> GoodCone:
    report = is_good_cone(D)
    if not report.good:
        raise ValueError("cone is not good at face %s (invariants %s)"
                         % (report.failing_face, report.invariants))
    return report.cone


# ----------------------------------------------------------------------
# labelled polytope <-> diagram


def gorenstein_r(delta: LabelledPolytope):
    """Integral (r, w) with <(w, r), (v_j, b_j)> = 1 on every facet.

    The lifted facet rows span, so the solution is unique when it exists;
    returns None when it is non-integral, inconsistent, or has r < 1.
    """
    rows = [tuple(v) + (b,) for v, b in
            zip(delta.weighted_normals, delta.offsets)]
    n1 = delta.dimension + 1
    ones = [1] * n1
    for subset in itertools.combinations(range(len(rows)), n1):
        try:
            sol = rat_solve([rows[i] for i in subset], ones)
        except LinearlyDependent:
            continue
        break
    else:
        return None
    if any(_dot(row, sol) != 1 for row in rows):
        return None
    if any(x.denominator != 1 for x in sol):
        return None
    r = int(sol[-1])
    if r < 1:
        return None
    return r, tuple(int(x) for x in sol[:-1])


def prequantization(delta: LabelledPolytope
                    ) -> Tuple[ToricDiagram, Tuple[int, ...]]:
    """Integral diagram of the prequantization of the labelled base, and
    the quotient direction that takes it back to that base.

    Completes the Gorenstein functional (w, r) to a lattice basis and maps
    each lifted facet row to (v~_j, 1); the diagram is the hull of the
    v~_j.  In the new basis the direction is the last column of the
    change-of-basis matrix [completion; (w, r)].
    """
    found = gorenstein_r(delta)
    if found is None:
        raise NotGorenstein("labelled polytope has no integral period")
    r, w = found
    A = unimodular_frame([w + (r,)])[0]
    rows = [tuple(v) + (b,) for v, b in
            zip(delta.weighted_normals, delta.offsets)]
    images = [tuple(_dot(a, row) for a in A) for row in rows]
    P = convex_hull(images)
    assert len(P.vertices) == len(images), "a facet row failed to survive"
    return validate_diagram(P), tuple(row[-1] for row in A) + (r,)


def diagram_from_labelled(delta: LabelledPolytope) -> ToricDiagram:
    """The diagram of ``prequantization``."""
    return prequantization(delta)[0]


# ----------------------------------------------------------------------
# quotients and twisted sectors


@dataclass(frozen=True)
class SectorComponent:
    """One fixed-point component: a face of the cone with the doubled sum
    of its fractional membership coefficients as degree shift."""

    face: Tuple[int, ...]
    shift: Fraction
    h: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return 2 * (len(self.h) - 1)


@dataclass(frozen=True)
class TwistedSector:
    period: Fraction
    components: Tuple[SectorComponent, ...]


@dataclass(frozen=True)
class QuotientData:
    r: int
    base: LabelledPolytope
    sectors: Tuple[TwistedSector, ...]
    smooth: bool
    order: int


def _frac(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _face_h(C: GoodCone, J: Sequence[int]) -> Tuple[int, ...]:
    """h-vector of the base face cut out by the facets in J (J may be
    empty for the whole base); computed inside the cone's face lattice."""
    target = set(J)
    fdim = C.dimension - 1 - len(J)
    total = f_to_h(fdim, [cf.dim - 1 for cf in C.faces
                          if target <= set(cf.tight)])
    if len(total) != fdim + 1:
        raise AssertionError(f"face {tuple(J)}: h-vector {total} has "
                             f"{len(total)} entries, not {fdim + 1}")
    return total


def twisted_sectors(C: GoodCone, nu) -> Tuple[TwistedSector, ...]:
    """All sectors of the period-one action generated by the direction nu.

    Per face J the direction is reduced modulo the span of the face's
    normals; the gcd g of the reduced coordinates bounds the periods to
    s/g, and a candidate survives at J only when every coefficient is
    fractional (integral ones belong to a smaller face).
    """
    nu = tuple(int(x) for x in nu)
    if math.gcd(*[abs(x) for x in nu]) != 1:
        raise NotPrimitive("sector direction %s is not primitive" % (nu,))
    by_period: Dict[Fraction, List[SectorComponent]] = {}
    for face in C.faces:
        J = face.tight
        if J:
            y = vec_mat(nu, unimodular_frame([C.normals[j] for j in J])[1])
            g = math.gcd(*[abs(x) for x in y[len(J):]])
            if g < 1:
                raise AssertionError(f"direction {nu} lies in the span of "
                                     f"face {J}")
        else:
            y = nu
            g = 1
        h = _face_h(C, J)
        for s in range(1, g + 1):
            T = Fraction(s, g)
            coeffs = tuple(_frac(-T * y[i]) for i in range(len(J)))
            if any(c == 0 for c in coeffs):
                continue
            comp = SectorComponent(tuple(J), 2 * sum(coeffs, Fraction(0)), h)
            by_period.setdefault(T, []).append(comp)
    return tuple(
        TwistedSector(T, tuple(sorted(by_period[T],
                                      key=lambda c: (len(c.face), c.face))))
        for T in sorted(by_period))


def quotient_polytope(D: ToricDiagram, nu) -> QuotientData:
    """Labelled base of the quotient of D along nu = (w, r), plus sectors.

    The lattice map G with G nu = e_(n+1) is the Hermite transform W of
    nu (W nu = e_1, see ``unimodular_frame``) with its rows rotated by
    one; another such G gives a unimodularly equivalent base.
    """
    nu = tuple(int(x) for x in nu)
    n1 = D.dimension + 1
    if len(nu) != n1:
        raise ValueError("quotient direction needs %d entries" % n1)
    if math.gcd(*[abs(x) for x in nu]) != 1:
        raise NotPrimitive("quotient direction %s is not primitive" % (nu,))
    r = nu[-1]
    if r < 1:
        raise NotInterior("quotient direction needs a positive last entry")
    point = tuple(Fraction(x, r) for x in nu[:-1])
    if not D.polytope.contains(point, strict=True):
        raise NotInterior("direction %s does not point into the diagram"
                          % (nu,))
    W = transpose(unimodular_frame([nu])[1])
    G = W[1:] + W[:1]
    images = [tuple(_dot(row, v) for row in G) for v in D.normals]
    base = labelled_polytope([u[:-1] for u in images],
                             [u[-1] for u in images])
    smooth = all(
        abs(det_int([list(base.weighted_normals[i]) for i in tight])) == 1
        for tight in base.vertex_facets)
    return QuotientData(r, base, twisted_sectors(good_cone(D), nu),
                        smooth, D.order)


# ----------------------------------------------------------------------
# graded tables


def orbifold_cohomology_of_base(Q: QuotientData) -> GradedDimensions:
    """Sector cohomology of the base, each component shifted by its
    doubled coefficient sum; rational degrees appear at singular faces."""
    n = Q.base.dimension
    items = [(comp.shift + 2 * i, c)
             for sector in Q.sectors
             for comp in sector.components
             for i, c in enumerate(comp.h)]
    return GradedDimensions.from_items(items, (Fraction(0), Fraction(2 * n)))


def _sector_items(sector: TwistedSector, r: int, hi: Fraction):
    for comp in sector.components:
        offset = comp.shift + 2 * r * sector.period - 2
        k = 0
        while offset + 2 * r * k <= hi:
            for i, c in enumerate(comp.h):
                yield 2 * i + offset + 2 * r * k, c
            k += 1


def _hc_window(Q, window):
    if Q.order != 1:
        raise NotGorenstein(
            "sector contact homology needs an integral diagram")
    return checked_window(window, 1, Q.base.dimension)


def hc_quotient_rows(Q: QuotientData,
                     window: Optional[Tuple[Fraction, Fraction]] = None
                     ) -> Dict[Fraction, GradedDimensions]:
    """Per-period contribution rows of the table summed by hc_from_quotient."""
    lo, hi = _hc_window(Q, window)
    return {sector.period:
            GradedDimensions.from_items(_sector_items(sector, Q.r, hi),
                                        (lo, hi))
            for sector in Q.sectors}


def hc_from_quotient(Q: QuotientData,
                     window: Optional[Tuple[Fraction, Fraction]] = None
                     ) -> GradedDimensions:
    """Contact homology of the total space from the base's sectors:

        HC_d += h_i(S)  at  d = 2 i + |S| + 2 r k,   |S| = c_T + 2 r T - 2,

    summed over periods T, components S, and windings k >= 0."""
    return sum_rows(hc_quotient_rows(Q, window))


# ----------------------------------------------------------------------
# global invariants


def fundamental_group_order(D: ToricDiagram) -> int:
    """Product of the invariant factors of the lifted vertex matrix, which
    is the gcd of its maximal minors."""
    p = math.prod(smith_invariants(D.normals))
    assert p >= 1
    return p
