"""Dense univariate polynomial arithmetic over exact scalars.

Polynomials are lists/tuples of coefficients, index = power.  Scalars may be
ints or Fractions; operations never leave exact arithmetic.
"""

from __future__ import annotations


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


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
