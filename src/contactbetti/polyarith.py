"""Dense univariate polynomial arithmetic over exact scalars.

Polynomials are lists/tuples of coefficients, index = power.  Scalars may be
ints or Fractions; operations never leave exact arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_scale(p, s):
    return poly_trim([a * s for a in p])


def poly_eval(p, x):
    acc = 0
    for a in reversed(list(p)):
        acc = acc * x + a
    return acc


def f_to_h(top, dims):
    """h(q) = sum of q^(top - k) (1 - q)^k over the face dimensions k listed.

    One term per face, so ``dims`` carries the f-vector of a face poset
    whose faces all have dimension at most ``top``.
    """
    h = [0] * (top + 1)
    for k, f in Counter(dims).items():
        for i in range(k + 1):
            h[top - k + i] += f * (-1) ** i * math.comb(k, i)
    h = poly_trim(h)
    if any(c < 0 for c in h):
        raise AssertionError(f"h-polynomial {h} must be non-negative")
    return h
