"""Ladder of simplex toric diagrams, drawn once and presented per seed.

A ladder row (n, m, mass) asks for an n-dimensional simplex of order
exactly m whose lifted vertex matrix [(m*v_i, m)] has |det| = mass.  The
mass is m^(n+1) times the normalized volume and equals the sum of the
delta vector; the direct pipeline's iterate count grows with it, and the
row-scan lattice counter's work grows with the bounding box of the
first n-1 coordinates of the dilates.  Two draws with the same (n, m)
can differ in cost by more than an order of magnitude, so ``draw`` keeps
a draw only when every n-subset of lifted vertices has Smith invariants
all 1, the order is exactly m, and both the mass and the row-scan work
fall in a narrow band around the row's target.

Even inside those bands two draws do not cost the same, and a cost that
moved with the seed would widen the run-to-run spread the regression
bounds must cover.  So the draws are made once, with the default seed,
and pinned in ``ladder.json``
(``python3 perfbench/ladder.py`` rewrites it; ``--seed N --out PATH``
draws another ladder into another file).  A run's ``--seed`` then
picks, per row, a lattice-equivalent presentation of the pinned draw:
a signed permutation of the first n-1 coordinates, a sign on the last
one, and an order of the vertices.  These maps preserve the lattice, so
every invariant the commands print is unchanged, and they preserve the
row-scan box, so the work is too; the program still receives different
documents for different seeds.  Seed 0 is the pinned draw itself.

Everything here is plain integer and rational arithmetic, independent of
the package under test, so the generator cannot inherit a defect from it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

DEFAULT_SEED = 0
MASS_BAND = 0.03   # relative half-width of the accepted mass band
SCAN_BAND = 0.05   # relative half-width of the accepted row-scan band
MAX_DRAWS = 2_000_000
PINNED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "ladder.json")

Matrix = List[List[int]]


class Row(NamedTuple):
    n: int
    m: int
    mass: int      # target mass
    scan: int      # target row-scan work (see row_scan_work)
    radius: int    # bound on |m*v_i| for the first n-1 coordinates

    @property
    def name(self) -> str:
        return "n%dm%d" % (self.n, self.m)


# The radius narrows the first n-1 coordinates, where the row scan's
# work is decided, so that in-band draws are common.
ROWS: Dict[str, Row] = {r.name: r for r in (
    Row(2, 8, 230, 254, 8),
    Row(2, 13, 480, 629, 13),
    Row(2, 21, 1000, 1025, 13),
    Row(2, 40, 2000, 2000, 24),
    Row(2, 101, 935000, 52097, 101),
    Row(3, 3, 15, 667, 3),
    Row(3, 5, 1100, 5000, 5),
    Row(3, 8, 4400, 18000, 8),
    Row(3, 13, 2200, 18733, 8),
    Row(4, 2, 26, 2449, 1),
    Row(4, 3, 400, 21000, 2),
)}

# Vertex lists found when the ladder was first explored; ``draw`` keeps
# them for their rows when they fall in band.
ROADMAP_DRAWS = {
    (2, 101): [["68/101", "27/101"], ["-47/101", "53/101"],
               ["-45/101", "-28/101"]],
    (3, 13): [["6/13", "7/13", "-10/13"], ["2/13", "9/13", "-1"],
              ["5/13", "1", "-10/13"], ["0", "2/13", "-8/13"]],
}


def det(M: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    A = [list(r) for r in M]
    k = len(A)
    sign, prev = 1, 1
    for i in range(k - 1):
        if A[i][i] == 0:
            for r in range(i + 1, k):
                if A[r][i] != 0:
                    A[i], A[r] = A[r], A[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                A[r][c] = (A[r][c] * A[i][i] - A[r][i] * A[i][c]) // prev
        prev = A[i][i]
    return sign * A[k - 1][k - 1]


def mass(a: Sequence[Sequence[int]], m: int) -> int:
    return abs(det([list(v) + [m] for v in a]))


def subsets_unimodular(a: Sequence[Sequence[int]], m: int) -> bool:
    """Every n-subset of the n+1 lifted rows has Smith invariants all 1.

    For an n x (n+1) integer matrix that holds exactly when the gcd of
    its n x n maximal minors is 1.
    """
    L = [list(v) + [m] for v in a]
    k = len(L)
    for drop in range(k):
        rows = [L[i] for i in range(k) if i != drop]
        g = 0
        for col in range(k):
            g = math.gcd(g, det([[r[c] for c in range(k) if c != col]
                                 for r in rows]))
            if g == 1:
                break
        if g != 1:
            return False
    return True


def row_scan_work(a: Sequence[Sequence[int]], m: int) -> int:
    """Rows the dilate-scan counter visits for t = 1 .. m(n+1) - 1.

    The counter loops over the integer box of the first n-1 coordinates
    of t*D and solves the last coordinate per row.
    """
    n = len(a[0])
    total = 0
    for t in range(1, m * (n + 1)):
        rows = 1
        for i in range(n - 1):
            lo = min(x[i] for x in a) * t
            hi = max(x[i] for x in a) * t
            rows *= hi // m + (-lo) // m + 1
        total += rows
    return total


def in_band(row: Row, a: Sequence[Sequence[int]], m: int) -> bool:
    if m != row.m or len(a) != row.n + 1 or any(len(v) != row.n for v in a):
        return False
    if any(abs(x) > m for v in a for x in v):
        return False
    if math.gcd(m, *[x for v in a for x in v]) != 1:
        return False    # the order would be a proper divisor of m
    if abs(mass(a, m) - row.mass) > MASS_BAND * row.mass:
        return False
    if abs(row_scan_work(a, m) - row.scan) > SCAN_BAND * row.scan:
        return False
    return subsets_unimodular(a, m)


def _numerators(vertices) -> Tuple[Matrix, int]:
    fr = [[Fraction(x) for x in v] for v in vertices]
    m = math.lcm(*[x.denominator for v in fr for x in v])
    return [[int(x * m) for x in v] for v in fr], m


def draw(row: Row, seed: int) -> Matrix:
    """Integer numerators a (vertex v = a/m) of a seeded in-band diagram.

    The default seed takes a row's ROADMAP_DRAWS entry if it is in band.
    """
    if seed == DEFAULT_SEED and (row.n, row.m) in ROADMAP_DRAWS:
        a, m = _numerators(ROADMAP_DRAWS[(row.n, row.m)])
        if in_band(row, a, m):
            return a
    rng = random.Random("ladder:%d:%s" % (seed, row.name))
    for _ in range(MAX_DRAWS):
        a = [[rng.randint(-row.radius, row.radius) for _ in range(row.n - 1)]
             + [rng.randint(-row.m, row.m)] for _ in range(row.n + 1)]
        if in_band(row, a, row.m):
            return a
    raise RuntimeError("no in-band draw for %s after %d draws"
                       % (row.name, MAX_DRAWS))


def present(a: Matrix, row: Row, seed: int) -> Matrix:
    """The seed's lattice-equivalent presentation of the draw ``a``."""
    if seed == DEFAULT_SEED:
        return [list(v) for v in a]
    rng = random.Random("present:%d:%s" % (seed, row.name))
    axes = list(range(row.n - 1))
    rng.shuffle(axes)
    axes.append(row.n - 1)
    signs = [rng.choice((-1, 1)) for _ in range(row.n)]
    out = [[signs[i] * v[axes[i]] for i in range(row.n)] for v in a]
    rng.shuffle(out)
    return out


def load_pinned() -> Dict[str, Matrix]:
    """The pinned draws, re-checked against their rows."""
    with open(PINNED_FILE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    draws = {}
    for name, row in ROWS.items():
        a, m = _numerators(pinned[name])
        if not in_band(row, a, m):
            raise ValueError("pinned draw %s is out of band" % name)
        draws[name] = a
    return draws


def document(name: str, a: Matrix, seed: int) -> dict:
    row = ROWS[name]
    b = present(a, row, seed)
    return {"name": "%s-seed%d" % (name, seed), "kind": "diagram",
            "vertices": [[str(Fraction(x, row.m)) for x in v] for v in b]}


def main() -> None:
    p = argparse.ArgumentParser(
        description="Draw the ladder; the default seed and output rewrite "
                    "the pinned ladder.json.")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=PINNED_FILE)
    args = p.parse_args()
    drawn = {}
    for name, row in ROWS.items():
        a = draw(row, args.seed)
        drawn[name] = [[str(Fraction(x, row.m)) for x in v] for v in a]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            '  "%s": %s' % (name, json.dumps(v)) for name, v in drawn.items())
            + "\n}\n")


if __name__ == "__main__":
    main()
