"""Graded dimension tables keyed by rational degrees.

Every pipeline in this package ultimately produces a map
``degree -> dimension`` with finitely many nonzero entries inside a
window of degrees.  This module holds that shared container so the
pipelines can be compared entry by entry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Tuple, Union

Degree = Union[int, Fraction]


def _as_degree(d: Degree) -> Fraction:
    return Fraction(d)


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


@dataclass(frozen=True)
class GradedDimensions:
    """Finitely supported map from rational degrees to dimensions.

    Zero entries are never stored.  ``window`` records the degree range the
    producer actually enumerated, so equality of two tables is only
    meaningful on overlapping windows.
    """

    entries: Mapping[Fraction, int] = field(default_factory=dict)
    window: Tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))

    @staticmethod
    def from_items(items: Iterable[Tuple[Degree, int]],
                   window: Tuple[Degree, Degree]) -> "GradedDimensions":
        acc: dict = {}
        lo, hi = _as_degree(window[0]), _as_degree(window[1])
        for d, c in items:
            dd = _as_degree(d)
            if c and lo <= dd <= hi:
                acc[dd] = acc.get(dd, 0) + c
        acc = {d: c for d, c in acc.items() if c}
        return GradedDimensions(acc, (lo, hi))

    def dim(self, degree: Degree) -> int:
        return self.entries.get(_as_degree(degree), 0)

    def degrees(self) -> Iterator[Fraction]:
        return iter(sorted(self.entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedDimensions):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def to_rows(self) -> list:
        """Sorted ``{"degree": str, "dim": int}`` rows for JSON output."""
        from ._jsonio import rat_str
        return [{"degree": rat_str(d), "dim": self.entries[d]}
                for d in sorted(self.entries)]


def sum_rows(rows: Mapping[Fraction, GradedDimensions]) -> GradedDimensions:
    """Entry-wise sum of keyed rows enumerated over one common window."""
    total: dict = {}
    window = None
    for row in rows.values():
        window = row.window
        for d, v in row.entries.items():
            total[d] = total.get(d, 0) + v
    return GradedDimensions({d: v for d, v in total.items() if v}, window)
