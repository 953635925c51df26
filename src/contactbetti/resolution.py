"""Triangulations, fans, crepant fillings, and orbifold cohomology.

A rational triangulation of a diagram D induces a fan over D x {1}; when
every lifted point (m*p, m) is primitive the fan is crepant and the toric
variety it defines is a filling whose orbifold cohomology is encoded by
the delta vector of D.  This module validates triangulations, builds
their fans, counts box elements by age cone by cone, and assembles the
orbifold Poincare series and the graded dimension table it induces.  It
does not certify that the filling is projective (a strictly convex
support function): the cohomology it reads off needs only the fan.

A triangulation keeps its fan (``fan_over``) and a fan its census of box
elements by age (``_age_h``), both built on first use, so the orbifold
series of ``stapledon_check`` and the sector rows of
``hc_from_resolution`` read one census of one fan.  Both still compare
that box route against the counting route.  ``box_elements`` steps a
cone's points, one generator addition and one wrap test per coordinate.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .contact import ToricDiagram, contact_betti_from_delta
from .ehrhart import MismatchAt, delta_vector, series_numerator
from .exactlat import det_int, primitive_vector, smith_normal_form
from .grading import GradedDimensions, checked_window, sum_rows
from .polyarith import f_to_h
from .polytope import normalized_volume, simplex_normalized_volume


class PointNotInterior(ValueError):
    pass


class PointNotRational(ValueError):
    pass


class NotCovering(ValueError):
    pass


class ImproperIntersection(ValueError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"cells {self.pair} do not meet in a common face")


class NotRational(ValueError):
    pass


class NotStrictlyConvex(ValueError):
    pass


@dataclass(frozen=True)
class Triangulation:
    points: Tuple[Tuple[Fraction, ...], ...]
    cells: Tuple[Tuple[int, ...], ...]
    order: int
    # fan_over(self), built on first use
    _fan: Optional["Fan"] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.points[0])


def trivial_triangulation(D: ToricDiagram) -> Triangulation:
    verts = D.polytope.vertices
    if len(verts) != D.dimension + 1:
        raise ValueError("trivial triangulation needs a simplex diagram")
    return Triangulation(tuple(verts), (tuple(range(len(verts))),), D.order)


def star_triangulation(D: ToricDiagram, centre) -> Triangulation:
    """Cone every facet of D to an interior rational point."""
    centre = tuple(Fraction(c) for c in centre)
    if any((D.order * c).denominator != 1 for c in centre):
        raise PointNotRational(f"{centre} not in (1/{D.order})Z^n")
    if not D.polytope.contains(centre, strict=True):
        raise PointNotInterior(f"{centre} not interior to the diagram")
    pts = tuple(D.polytope.vertices) + (centre,)
    c_id = len(pts) - 1
    cells = tuple(tuple(ids) + (c_id,) for ids in D.facet_vertex_ids)
    return Triangulation(pts, cells, D.order)


def triangulation_from_cells(D: ToricDiagram, points,
                             cells) -> Triangulation:
    pts = tuple(tuple(Fraction(c) for c in p) for p in points)
    return Triangulation(pts, tuple(tuple(map(int, c)) for c in cells),
                         D.order)


@dataclass(frozen=True)
class TriangulationReport:
    unimodular: bool
    cell_volumes: Tuple[Fraction, ...]


def validate_triangulation(D: ToricDiagram,
                           T: Triangulation) -> TriangulationReport:
    """Covering, proper-intersection, and rationality checks; classifies
    whether every cell is unimodular (lifted generators a lattice basis).

    Cells inside D whose volumes add up to D's volume form a triangulation
    exactly when they are glued facet to facet: every cell facet has at
    most one cell on each side, and one on both sides unless it lies on
    the boundary of D (De Loera, Rambau, Santos, Triangulations, 2010).
    """
    n = D.dimension
    m = D.order
    for p in T.points:
        if any((m * c).denominator != 1 for c in p):
            raise NotRational(f"point {p} not in (1/{m})Z^n")
    vols = []
    for cell in T.cells:
        if len(cell) != n + 1:
            raise NotCovering(f"cell {cell} is not an n-simplex")
        vol = simplex_normalized_volume([T.points[i] for i in cell])
        if vol == 0:
            raise NotCovering(f"cell {cell} is degenerate")
        vols.append(vol)
    if sum(vols) != normalized_volume(D.polytope):
        raise NotCovering("cell volumes do not add up to the diagram volume")
    for p in T.points:
        if not D.polytope.contains(p):
            raise NotCovering("point (%s) lies outside the diagram"
                              % ", ".join(map(str, p)))

    # integer coordinates m*p, and the facets of D each point lies on
    scaled = [[int(m * c) for c in p] for p in T.points]
    tight = [frozenset(i for i, f in enumerate(D.polytope.facets)
                       if sum(a * x for a, x in zip(f.normal, p)) + f.offset
                       == 0)
             for p in T.points]
    # facet (sorted point ids) -> {side of its hyperplane: cell on that side}
    sides: Dict[Tuple[int, ...], Dict[bool, int]] = {}
    for c, cell in enumerate(T.cells):
        for apex in cell:
            key = tuple(sorted(i for i in cell if i != apex))
            base = scaled[key[0]]
            rows = [[x - b for x, b in zip(scaled[i], base)]
                    for i in key[1:] + (apex,)]
            side = det_int(rows) > 0
            cells = sides.setdefault(key, {})
            if side in cells:
                raise ImproperIntersection((cells[side], c))
            cells[side] = c
    for key, cells in sides.items():
        if len(cells) == 1 and not frozenset.intersection(
                *[tight[i] for i in key]):
            raise NotCovering(f"interior facet {key} bounds only one cell")

    # the lifted cell (m*p, m) has |det| = m^(n+1) * normalized volume
    unimod = all(m ** (n + 1) * vol == 1 for vol in vols)
    return TriangulationReport(unimod, tuple(vols))


def _lift(p, m: int) -> List[int]:
    out = [int(m * c) for c in p]
    return out + [m]


@dataclass(frozen=True)
class Fan:
    rays: Tuple[Tuple[int, ...], ...]
    max_cones: Tuple[Tuple[int, ...], ...]
    crepant: bool
    order: int
    dimension: int  # n: the fan lives in R^(n+1)
    # _age_h(self), built on first use
    _census: Optional[Dict[int, Tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False)

    def cones(self) -> List[Tuple[int, ...]]:
        """All cones (as sorted ray index tuples), zero cone included."""
        seen = set()
        for cell in self.max_cones:
            for k in range(len(cell) + 1):
                for sub in itertools.combinations(sorted(cell), k):
                    seen.add(sub)
        return sorted(seen, key=lambda c: (len(c), c))


def fan_over(T: Triangulation) -> Fan:
    """The fan over T x {1}, built once per triangulation."""
    if T._fan is not None:
        return T._fan
    m = T.order
    rays = []
    crepant = True
    for p in T.points:
        lift = _lift(p, m)
        prim = primitive_vector(lift)
        if list(prim) != lift:
            crepant = False
        rays.append(tuple(prim))
    fan = Fan(tuple(rays), tuple(tuple(sorted(c)) for c in T.cells),
              crepant, m, T.dimension)
    object.__setattr__(T, "_fan", fan)
    return fan


# ------------------------------------------------------------------
# box elements and cohomology


def box_elements(F: Fan, cone: Sequence[int]) -> List[int]:
    """Ages s = m * psi of the cone's box elements, one entry per element.

    A box element is a lattice point sum c_i v_i of the cone's rays v_i
    with every c_i in (0, 1); its age is psi = sum c_i.  The zero cone
    contributes the single point 0, of age 0.  With U*M*V = S the
    coefficient vectors c with c*M integral are z*U mod 1 for z_i in
    (1/d_i)Z.  Every d_i divides L = d_k, so the enumeration runs on the
    integer numerators L*c = sum t_i g_i mod L of the generator rows
    g_i = (L/d_i) U_i.  Since L*c*M = sum t_i (g_i M) mod L, checking
    once that L divides every g_i M certifies that every box point is
    a lattice point.

    The points are stepped, not multiplied out (``_stepped``): each
    generator with d_i > 1 adds g_i, reduced mod L, d_i times to every
    point built from the generators before it, with one wrap test per
    coordinate.  A generator with d_i = 1 is 0 mod L and adds nothing.
    Ages are checked integral once per distinct sum of coordinates.
    """
    k = len(cone)
    if k == 0:
        return [0]
    m = F.order
    M = [list(F.rays[i]) for i in sorted(cone)]
    S, U, _ = smith_normal_form(M)
    dets = [S[i][i] for i in range(k)]
    if 0 in dets:
        raise AssertionError(f"cone {tuple(cone)}: rays must be independent")
    L = dets[-1]
    gens = [[L // d * u for u in row] for d, row in zip(dets, U)]
    for g in gens:
        image = [sum(gj * row[i] for gj, row in zip(g, M))
                 for i in range(F.dimension + 1)]
        if any(x % L for x in image):
            raise AssertionError(
                f"cone {tuple(cone)}: Smith generator {tuple(g)} maps to "
                f"{tuple(image)}, not divisible by {L}")
    points: Iterator[List[int]] = iter([[0] * k])
    for g, d in zip(gens, dets):
        if d > 1:
            points = _stepped(points, [x % L for x in g], d, L)
    totals = [sum(c) for c in points if 0 not in c]
    ages = {}
    for total in sorted(set(totals)):
        ages[total], rest = divmod(m * total, L)
        if rest:
            raise MismatchAt(Fraction(total, L), "non-integral age m * psi")
    return list(map(ages.__getitem__, totals))


def _stepped(points: Iterator[List[int]], g: List[int], d: int,
             L: int) -> Iterator[List[int]]:
    """c, c + g, ..., c + (d - 1) g mod L for every point c, with g
    reduced mod L: one add and one wrap test per coordinate and step."""
    for c in points:
        for _ in range(d):
            yield c
            c = [x - L if x >= L else x for x in map(add, c, g)]


def h_polynomial(F: Fan, cone: Sequence[int]) -> Tuple[int, ...]:
    """h_tau(q) = sum over cones sigma containing tau of
    q^(dim sigma - dim tau) (1-q)^(n+1-dim sigma)."""
    tau = frozenset(cone)
    n1 = F.dimension + 1
    return f_to_h(n1 - len(tau), [n1 - len(sigma) for sigma in F.cones()
                                  if tau <= frozenset(sigma)])


def _age_h(F: Fan) -> Dict[int, Tuple[int, ...]]:
    """The fan's box elements summed by age: {s: sum of h_tau over the
    elements of age s = m * psi}, tau the element's cone, in ascending s.

    Each h_tau is padded to the n + 2 coefficients of h of the zero cone.
    The census is taken once per fan, so ``orbifold_poincare`` and
    ``hc_sector_rows`` on one fan read the same one.
    """
    if F._census is not None:
        return F._census
    census: Dict[int, List[int]] = {}
    for cone in F.cones():
        ages = box_elements(F, cone)
        if not ages:
            continue
        h = h_polynomial(F, cone)
        for s, mult in Counter(ages).items():
            acc = census.setdefault(s, [0] * (F.dimension + 2))
            for e, coeff in enumerate(h):
                acc[e] += mult * coeff
    object.__setattr__(F, "_census", {s: tuple(h)
                                      for s, h in sorted(census.items())})
    return F._census


def orbifold_poincare(F: Fan) -> GradedDimensions:
    """dim H^(2j)_orb of the filling, j in (1/m)Z: an element of age psi
    in cone tau adds h_tau(q) at degrees 2(psi + e)."""
    if not F.crepant:
        raise ValueError("orbifold grading needs a crepant fan")
    m, n = F.order, F.dimension
    items = [(Fraction(2 * (s + m * e), m), coeff)
             for s, h in _age_h(F).items() for e, coeff in enumerate(h)]
    # support bound: top delta index is at most m(n+1)-1, degree 2(n+1)-2/m
    top = 2 * (n + 1) - Fraction(2, m)
    out = GradedDimensions.from_items(items, (Fraction(0), top))
    total = sum(out.entries.values())
    mass = m ** (n + 1) * normalized_volume_of_fan_base(F)
    if total != mass:
        raise AssertionError(f"orbifold dimensions add up to {total}, "
                             f"not m^(n+1) * volume = {mass}")
    return out


def normalized_volume_of_fan_base(F: Fan) -> Fraction:
    """Sum of the cells' normalized volumes, via lifted determinant."""
    total = sum(abs(det_int([F.rays[i] for i in cone]))
                for cone in F.max_cones)
    return Fraction(total, F.order ** (F.dimension + 1))


@dataclass(frozen=True)
class StapledonReport:
    orbifold: GradedDimensions
    delta: Tuple[int, ...]
    series_checked_to: int


def stapledon_check(D: ToricDiagram, T: Triangulation) -> StapledonReport:
    """Per-degree equality dim H^2j_orb == delta_(mj), plus the generating
    series identity multiplied out to a fixed truncation order.

    The series part multiplies out (1 - z^m)^(n+1) * sum_t L(t) z^t from
    the closed counts L(t), t < 2m(n+1).  Its coefficients below m(n+1)
    must equal the delta entries, which delta_vector takes above
    m(n+1)/2 from interior counts, so this checks reciprocity entry by
    entry; the coefficients m(n+1) <= j < 2m(n+1) must vanish.
    MismatchAt (grading j/m) at the first j that fails either test.
    """
    F = fan_over(T)
    H = orbifold_poincare(F)
    dv = delta_vector(D.polytope)
    m, n = D.order, D.dimension
    for mj in range(0, m * (n + 1)):
        j = Fraction(mj, m)
        if H.dim(2 * j) != dv[mj]:
            raise MismatchAt(j)

    top = m * (n + 1)
    series = series_numerator(D.polytope, 2 * top)
    for j in range(top):
        if series[j] != dv[j]:
            raise MismatchAt(Fraction(j, m), "delta entry differs from the "
                             "closed-count series")
    for j in range(top, 2 * top):
        if series[j]:
            raise MismatchAt(Fraction(j, m),
                             "counting series numerator does not vanish")
    return StapledonReport(H, dv.entries, 2 * top - 1)


def hc_from_resolution(D: ToricDiagram, T: Triangulation,
                       window=None) -> GradedDimensions:
    """Graded dimensions via the filling:
    value at 2j = sum_{k >= 0} dim H^(2(n-j+k))_orb."""
    return sum_sector_rows(D, hc_sector_rows(D, T, window))


def sum_sector_rows(D: ToricDiagram, rows: Dict[Fraction, GradedDimensions]
                    ) -> GradedDimensions:
    """The table summed over hc_sector_rows' rows, checked degree by degree
    against contact_betti_from_delta; MismatchAt at the first degree where
    they differ."""
    out = sum_rows(rows)
    reference = contact_betti_from_delta(D, out.window)
    for d in sorted(set(out.entries) | set(reference.entries)):
        if out.dim(d) != reference.dim(d):
            raise MismatchAt(d / 2,
                             "sector row sum differs from the delta table")
    return out


def hc_sector_rows(D: ToricDiagram, T: Triangulation,
                   window=None) -> Dict[Fraction, GradedDimensions]:
    """Per-sector contribution rows keyed by the age psi.

    The box elements of age psi (psi = 0 for the untwisted zero-cone
    sector) contribute the sum of their h_tau(q) shifted by psi.  The
    row's value at degree 2j sums the coefficients at exponents e with
    k = psi + e - n + j a non-negative integer.  In the integers s = m*psi
    and mj, with r = s + mj - m*n, that is 0 unless m | r, and else the
    suffix sum of h from e = -(r // m).
    """
    m, n = D.order, D.dimension
    lo, hi = checked_window(window, m, n)
    F = fan_over(T)
    if not F.crepant:
        raise ValueError("graded table via filling needs a crepant fan")
    first, last = math.ceil(m * lo / 2), math.floor(m * hi / 2)
    rows: Dict[Fraction, GradedDimensions] = {}
    for s, h in _age_h(F).items():
        suffix = list(itertools.accumulate(reversed(h)))[::-1] + [0]
        row = {}
        # m | r exactly when mj = -s mod m
        for mj in range(first + (-s - first) % m, last + 1, m):
            val = suffix[min(max((m * n - s - mj) // m, 0), len(h))]
            if val:
                row[Fraction(2 * mj, m)] = val
        rows[Fraction(s, m)] = GradedDimensions(row, (lo, hi))
    return rows
