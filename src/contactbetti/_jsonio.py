"""Rational-aware JSON helpers shared by the CLI and the corpus."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Sequence, Union

Rat = Union[int, Fraction]


def rat_str(x: Rat) -> str:
    """Lowest-terms ``p/q`` string, plain ``p`` when the denominator is 1."""
    f = Fraction(x)
    return ratio_str(f.numerator, f.denominator)


def ratio_str(p: int, q: int) -> str:
    """``rat_str`` of p / q for integers p and q > 0, with no Fraction."""
    g = math.gcd(p, q)
    if g == q:
        return str(p // q)
    return f"{p // g}/{q // g}"


def parse_rat(s: Union[str, int]) -> Fraction:
    """An integer, or a string ``p``, ``p/q`` or plain decimal such as
    ``-.5``.  Exponents (``1e5``) are refused: their digits, and so the
    cost of every later step, would grow with the exponent's value."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise TypeError("coordinate must be an integer or a string, got %r"
                        % (s,))
    if isinstance(s, int):
        return Fraction(s)
    if "e" in s or "E" in s:
        raise ValueError("exponent not accepted in %r" % s)
    return Fraction(s.strip())


def parse_point(coords: Sequence[Union[str, int]]) -> tuple:
    return tuple(parse_rat(c) for c in coords)


def point_json(p: Sequence[Rat]) -> list:
    return [rat_str(c) for c in p]


def dumps(obj: Any) -> str:
    """Deterministic serialization: sorted keys, no trailing whitespace."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
