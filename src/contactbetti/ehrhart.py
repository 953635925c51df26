"""Lattice point counting in dilates: quasi-polynomials and delta vectors.

For a full-dimensional rational polytope P of order m in R^n, the counting
function L(t) = #(tP cap Z^n) agrees with a quasi-polynomial of period m
and degree n.  Its generating series has the closed form

    sum_t L(t) z^t = (sum_j delta_j z^j) / (1 - z^m)^(n+1)

with non-negative integer coefficients delta_j supported on
0 <= j <= m(n+1) - 1.  Everything downstream (contact Betti numbers,
orbifold Poincare series, discrepancy bounds) is read off this vector,
so this module computes it from exact counts and cross-checks every
derived identity it exposes.

By Ehrhart-Macdonald reciprocity the interior counts L°(t) of the
open dilates have the reversed numerator,

    sum_{t>=1} L°(t) z^t = z^(m(n+1)) delta(1/z) / (1 - z^m)^(n+1),

so the lower half of delta comes from closed counts and the upper half
from interior counts, and no dilate beyond about m(n+1)/2 is counted.
One walk per dilate: ``count_points`` counts the closed dilate in the
same slice walk as the open one (the open y-count of a slice is
ceil(U) + ceil(L) - 1 over the two least lines whose floors give the
closed count floor(U) + floor(L) + 1), so ``delta_vector`` reads the
interior series first and the closed series then finds every count it
needs in the memo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .polyarith import poly_eval, poly_mul, poly_scale
from .polytope import (
    RationalPolytope,
    count_points,
    enumerate_lattice_points,
    normalized_volume,
    order,
)


class MismatchAt(AssertionError):
    """Theorem-level failure at grading j (degree 2j): by default an
    orbifold dimension that differs from its delta entry.  An explicit
    raise, so the check survives ``python -O``."""

    def __init__(self, j: Fraction,
                 what: str = "orbifold dimension mismatch"):
        self.j = j
        super().__init__(f"{what} at grading {j}")


@dataclass(frozen=True)
class DeltaVector:
    """Numerator coefficients of the lattice point generating series.

    ``entries[j]`` is the coefficient of z^j; indices outside
    [0, m(n+1)-1] are implicitly zero (see ``__getitem__``).
    """

    entries: Tuple[int, ...]
    order: int
    dimension: int

    def __post_init__(self) -> None:
        m, n = self.order, self.dimension
        if len(self.entries) != m * (n + 1):
            raise ValueError("delta vector has wrong length")
        if self.entries[0] != 1:
            raise ValueError("delta_0 must be 1")
        if any(d < 0 for d in self.entries):
            raise ValueError("delta entries must be non-negative")

    def __getitem__(self, j: int) -> int:
        if 0 <= j < len(self.entries):
            return self.entries[j]
        return 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def top_index(self) -> int:
        """Largest j with a nonzero entry."""
        return max(j for j, d in enumerate(self.entries) if d)

    def is_palindromic(self) -> bool:
        """Entry symmetry delta_j == delta_(n-j); only sensible for order 1."""
        n = self.dimension
        return all(self[j] == self[n - j] for j in range(len(self.entries)))


@dataclass(frozen=True)
class QuasiPolynomial:
    """Counting quasi-polynomial: one degree-n branch per residue class.

    ``branches[r]`` holds monomial coefficients (c_0 .. c_n) of the
    polynomial giving L(t) for t == r (mod period).  All branches share
    the leading coefficient vol(P).
    """

    period: int
    dimension: int
    branches: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.branches) != self.period:
            raise ValueError("need one branch per residue class")
        lead = {b[self.dimension] for b in self.branches}
        if len(lead) != 1:
            raise ValueError("branch leading coefficients must agree")

    def evaluate(self, t: int) -> int:
        val = poly_eval(self.branches[t % self.period], Fraction(t))
        if val.denominator != 1:
            raise ValueError(f"non-integral count at t={t}")
        return val.numerator


def series_numerator(P: RationalPolytope, upto: int,
                     interior: bool = False) -> Tuple[int, ...]:
    """Coefficients of z^j, j < upto, in (1 - z^m)^(n+1) * sum_t L(t) z^t.

    The coefficient of z^j is sum_i (-1)^i C(n+1, i) L(j - i*m), which
    reads the counts L(t) for t < upto only.  For j < m(n+1) these are
    the delta entries; every coefficient from m(n+1) on vanishes.  With
    ``interior`` the series is sum_{t>=1} L°(t) z^t (L°(0) = 0), whose
    coefficient of z^j is delta_(m(n+1)-j) by reciprocity.
    """
    n = P.dimension
    m = order(P)
    counts = [int(not interior)] + [count_points(P, t, interior)
                                    for t in range(1, upto)]
    entries = []
    for j in range(upto):
        acc = 0
        for i in range(min(j // m, n + 1) + 1):
            acc += (-1) ** i * math.comb(n + 1, i) * counts[j - i * m]
        entries.append(acc)
    return tuple(entries)


def delta_vector(P: RationalPolytope) -> DeltaVector:
    """Numerator of the counting series, from exact counts of half the
    dilates.

    With top = m(n+1) and h = ceil(top/2), delta_j for j < h is the
    closed-series coefficient, read off L(t) for t < h.  For h <= j < top
    it is the coefficient of z^(top-j) in the interior series, read off
    L°(t) for t <= floor(top/2) + 1.  The interior series is read first:
    each of its dilates is walked once and the walk also memoizes L(t)
    (``count_points``), and h - 1 <= floor(top/2), so the closed series
    walks no dilate again; floor(top/2) + 1 walks in all.  The last
    interior dilate gives delta_(h-1) a second time: MismatchAt (grading
    (h-1)/m) if the two values differ.  The entries must also add up to
    m^(n+1) times the normalized volume.  The checked vector is memoized
    on P.
    """
    if P._delta is not None:
        return P._delta
    n = P.dimension
    m = order(P)
    top = m * (n + 1)
    h, seam = (top + 1) // 2, top // 2 + 1  # seam = top - (h - 1)
    upper = series_numerator(P, seam + 1, interior=True)
    lower = series_numerator(P, h)
    if upper[seam] != lower[h - 1]:
        raise MismatchAt(Fraction(h - 1, m),
                         f"interior series gives delta_{h - 1} = "
                         f"{upper[seam]}, closed series {lower[h - 1]}")
    entries = lower + tuple(upper[top - j] for j in range(h, top))
    dv = DeltaVector(entries, m, n)
    # mass check: sum delta_j = m * (normalized volume of mP)
    mass = m ** (n + 1) * normalized_volume(P)
    if sum(entries) != mass:
        raise AssertionError(f"delta entries add up to {sum(entries)}, "
                             f"not m^(n+1) * volume = {mass}")
    P._delta = dv
    return dv


def _branch_polynomial(dv: DeltaVector, residue: int) -> Tuple[Fraction, ...]:
    m, n = dv.order, dv.dimension
    scale = Fraction(1, m ** n * math.factorial(n))
    total = [Fraction(0)] * (n + 1)
    for j in range(residue % m, m * (n + 1), m):
        if dv[j] == 0:
            continue
        # C((t-j)/m + n, n) = prod_{i=1..n} (t - j + i*m) / (m^n n!)
        poly: Sequence[Fraction] = (Fraction(1),)
        for i in range(1, n + 1):
            poly = poly_mul(poly, (Fraction(i * m - j), Fraction(1)))
        poly = poly_scale(poly, scale * dv[j])
        for k, c in enumerate(poly):
            total[k] += c
    return tuple(total)


def quasipolynomial(P: RationalPolytope) -> QuasiPolynomial:
    """Branch polynomials recovered from the delta vector.

    Validated against raw counts for t = 0 .. 3m(n+1) before returning;
    MismatchAt (grading t/m) at the first dilate whose count differs.
    """
    dv = delta_vector(P)
    m, n = dv.order, dv.dimension
    qp = QuasiPolynomial(m, n, tuple(_branch_polynomial(dv, r)
                                     for r in range(m)))
    for t in range(3 * m * (n + 1) + 1):
        count = count_points(P, t) if t else 1
        if qp.evaluate(t) != count:
            raise MismatchAt(Fraction(t, m),
                             f"quasi-polynomial differs from the count L({t})")
    return qp


def is_reflexive(P: RationalPolytope) -> bool:
    """Check reflexivity of an integral polytope by two independent routes.

    Route one: the delta vector is palindromic.  Route two (Batyrev's
    criterion): P has exactly one interior lattice point p, and every
    facet <a, x> + c >= 0 lies at lattice distance <a, p> + c = 1 from
    it.  This is the integrality of the polar dual of P - p, whose
    vertices are a/(<a, p> + c) with a primitive, read off P's own facets
    with no further hull of P (``cone_rays`` runs in the hull that built
    P and, when P has dimension n >= 4, once per projection level of the
    counting frame that ``_frame`` builds on the first count).  The two
    answers must agree; a rational
    (non-integral) polytope is not reflexive, without further checks.
    """
    if order(P) != 1:
        return False
    dv = delta_vector(P)
    palindromic = dv.is_palindromic()

    interior = enumerate_lattice_points(P, 1, interior=True)
    unit_distance = len(interior) == 1 and all(
        sum(a * x for a, x in zip(f.normal, interior[0])) + f.offset == 1
        for f in P.facets)
    if palindromic != unit_distance:
        raise AssertionError(f"reflexivity criteria disagree: palindromic "
                             f"{palindromic}, unit facet distances "
                             f"{unit_distance}")
    return palindromic
