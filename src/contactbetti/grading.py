"""Graded dimension tables keyed by integer multiples of the degree.

Every pipeline in this package ultimately produces a map
``degree -> dimension`` with finitely many nonzero entries inside a
window of degrees.  This module holds that shared container so the
pipelines can be compared entry by entry.

A table stores its degrees as integers: the key of degree d is q * d for
one integer scale q per table (its ``order``).  The pipelines that count
in integers build the table directly with q = m, the order of the
diagram, so no table entry is a ``Fraction``.  ``from_items`` takes
rational degrees, for the sector sums of the quotient route, and picks q
as the least common denominator.  A ``Fraction`` is made only where a
degree leaves the table: ``dim``, ``degrees``, a mismatch report, and
the degree strings of ``to_rows``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Tuple, Union

from ._frozen import Frozen
from ._jsonio import ratio_str

Degree = Union[int, Fraction]


def default_window(order: int, n: int) -> Tuple[Fraction, Fraction]:
    """Degree window guaranteed to show the stabilized low-degree pattern.

    The lower end sits just below the smallest attainable generator degree
    for a diagram of the given order; the upper end leaves one full period
    of degrees beyond 2n.
    """
    return (Fraction(-2) + Fraction(2, order), Fraction(2 * n + 6))


def checked_window(window, order: int,
                   n: int) -> Tuple[Fraction, Fraction]:
    """The window as two rationals, ``default_window`` when it is None.

    No generator has degree -2 or below, and a window must start above
    degree -2; ValueError otherwise.
    """
    if window is None:
        window = default_window(order, n)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo <= -2:
        raise ValueError("window must start above degree -2")
    return lo, hi


class GradedDimensions(Frozen):
    """Finitely supported map from rational degrees to dimensions.

    ``counts`` maps q * degree to the dimension there, q = ``order`` > 0;
    zero entries are never stored.  ``window`` records the degree range
    the producer actually enumerated, so equality of two tables is only
    meaningful on overlapping windows.  Tables with different q are equal
    when their entries are.
    """

    __slots__ = ("order", "counts", "window")

    def __init__(self, order: int, counts: Mapping[int, int],
                 window: Tuple[Fraction, Fraction]) -> None:
        super().__init__(order, counts, window)

    @staticmethod
    def from_items(items: Iterable[Tuple[Degree, int]],
                   window: Tuple[Degree, Degree]) -> "GradedDimensions":
        """The table of (rational degree, dimension) items inside the
        window, summed per degree; q is their least common denominator."""
        lo, hi = Fraction(window[0]), Fraction(window[1])
        kept = []
        for d, c in items:
            d = Fraction(d)
            if c and lo <= d <= hi:
                kept.append((d, c))
        q = math.lcm(*[d.denominator for d, _ in kept])
        acc: dict = {}
        for d, c in kept:
            key = d.numerator * (q // d.denominator)
            acc[key] = acc.get(key, 0) + c
        return GradedDimensions(q, {k: c for k, c in acc.items() if c},
                                (lo, hi))

    def dim(self, degree: Degree) -> int:
        key = Fraction(degree) * self.order
        if key.denominator != 1:
            return 0
        return self.counts.get(key.numerator, 0)

    def degrees(self) -> Iterator[Fraction]:
        q = self.order
        return (Fraction(k, q) for k in sorted(self.counts))

    def _reduced(self) -> Tuple[int, Mapping[int, int]]:
        """(q, counts) with q the least scale that keeps every key an
        integer: equal tables have equal reduced forms."""
        g = math.gcd(self.order, *self.counts)
        if g == 1:
            return self.order, self.counts
        return self.order // g, {k // g: c for k, c in self.counts.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedDimensions):
            return NotImplemented
        if self.order == other.order:
            return self.counts == other.counts
        return self._reduced() == other._reduced()

    def __hash__(self) -> int:
        q, counts = self._reduced()
        return hash((q, frozenset(counts.items())))

    def to_rows(self) -> list:
        """Sorted ``{"degree": str, "dim": int}`` rows for JSON output."""
        q, counts = self.order, self.counts
        return [{"degree": ratio_str(k, q), "dim": counts[k]}
                for k in sorted(counts)]


def sum_rows(rows: Mapping[Fraction, GradedDimensions]) -> GradedDimensions:
    """Entry-wise sum of keyed rows enumerated over one common window."""
    q = math.lcm(*[row.order for row in rows.values()])
    total: dict = {}
    window = None
    for row in rows.values():
        window = row.window
        scale = q // row.order
        for k, v in row.counts.items():
            k *= scale
            total[k] = total.get(k, 0) + v
    return GradedDimensions(q, {k: v for k, v in total.items() if v}, window)
