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


_quote = json.encoder.encode_basestring_ascii


def dumps(obj: Any) -> str:
    """Deterministic serialization: sorted keys, no trailing whitespace.

    The bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.
    An indent turns the standard library's C encoder off, so this small
    emitter writes the same text: strings by the C string encoder, keys
    sorted and str only, lists and tuples alike, each item on its own
    line at two spaces of indent per level.
    """
    out: list[str] = []
    _emit(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _emit(obj: Any, newline: str, put) -> None:
    """Append the indented JSON text of obj, nested at ``newline``."""
    if isinstance(obj, str):
        put(_quote(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        put(_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            put(sep)
            _emit(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("report keys must be str")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            put(sep)
            put(_quote(key))
            put(": ")
            _emit(obj[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def _float(x: float) -> str:
    """A float as ``json.dumps`` writes it, non-finite values included."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)
