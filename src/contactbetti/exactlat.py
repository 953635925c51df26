"""Exact lattice linear algebra: normal forms, basis completion,
elimination, floor sums, jets.

Integer matrices are tuples of row tuples of Python ints; vectors are plain
tuples.  Everything in this package is exact, there is no floating point
anywhere.  Rank, solves and inverses over Q run on one fraction-free
elimination (``int_echelon``) on integer rows.  Basis completion and the
inverse of the completed basis come from one Hermite form
(``unimodular_frame``).  A first-order jet (value + slope*eps for an
infinitesimal eps > 0) is a record of its two parts; a perturbation
linear in eps is carried through a linear solve as two solves, one per
part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


class NotUnimodularSystem(ValueError):
    """Row system does not extend to a Z-basis of the ambient lattice."""

    def __init__(self, invariants: tuple[int, ...]):
        super().__init__(
            "system has Smith invariants %s, expected all 1" % (invariants,))
        self.invariants = tuple(invariants)


class LinearlyDependent(ValueError):
    """Vectors required to be linearly independent are not."""


def intmat(rows) -> Mat:
    M = tuple(tuple(int(x) for x in row) for row in rows)
    if not M or len({len(r) for r in M}) != 1 or len(M[0]) == 0:
        raise ValueError("matrix must be rectangular and nonempty")
    return M


def identity(k: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def transpose(M) -> Mat:
    return tuple(zip(*[tuple(r) for r in M]))


def mat_mul(A, B) -> Mat:
    cols = list(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


def vec_mat(v, M):
    """Row vector times matrix.  Entries of v may be ints or Fractions."""
    cols = list(zip(*M))
    return tuple(sum(x * c for x, c in zip(v, col)) for col in cols)


def det_int(M) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    A = [list(r) for r in M]
    k = len(A)
    assert all(len(r) == k for r in A), "determinant needs a square matrix"
    if k == 0:
        return 1
    sign, prev = 1, 1
    for p in range(k - 1):
        if A[p][p] == 0:
            for i in range(p + 1, k):
                if A[i][p]:
                    A[p], A[i] = A[i], A[p]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(p + 1, k):
            for j in range(p + 1, k):
                A[i][j] = (A[i][j] * A[p][p] - A[i][p] * A[p][j]) // prev
            A[i][p] = 0
        prev = A[p][p]
    return sign * A[-1][-1]


def hermite_normal_form(M) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form with transform.

    Returns (H, U) with U unimodular and U*M = H.  Pivots are positive,
    entries below a pivot are zero, entries above are reduced into
    [0, pivot), and zero rows sink to the bottom.
    """
    A = [list(r) for r in intmat(M)]
    nr, nc = len(A), len(A[0])
    U = [list(r) for r in identity(nr)]
    r = 0
    for c in range(nc):
        for i in range(r + 1, nr):
            # euclidean elimination in column c between rows r and i
            while A[i][c]:
                if A[r][c]:
                    q = A[r][c] // A[i][c]
                    for t in range(nc):
                        A[r][t] -= q * A[i][t]
                    for t in range(nr):
                        U[r][t] -= q * U[i][t]
                A[r], A[i] = A[i], A[r]
                U[r], U[i] = U[i], U[r]
        if A[r][c] == 0:
            continue
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            U[r] = [-x for x in U[r]]
        piv = A[r][c]
        for i in range(r):
            q = A[i][c] // piv
            if q:
                for t in range(nc):
                    A[i][t] -= q * A[r][t]
                for t in range(nr):
                    U[i][t] -= q * U[r][t]
        r += 1
        if r == nr:
            break
    H = tuple(tuple(row) for row in A)
    Ut = tuple(tuple(row) for row in U)
    assert mat_mul(Ut, intmat(M)) == H
    assert abs(det_int(Ut)) == 1
    return H, Ut


def smith_normal_form(M) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: U*M*V = S.

    S is diagonal with non-negative entries forming a divisibility chain
    d1 | d2 | ...; U and V are unimodular.
    """
    A = [list(r) for r in intmat(M)]
    nr, nc = len(A), len(A[0])
    U = [list(r) for r in identity(nr)]
    V = [list(r) for r in identity(nc)]

    def row_sub(i, j, q):  # row i -= q * row j
        for t in range(nc):
            A[i][t] -= q * A[j][t]
        for t in range(nr):
            U[i][t] -= q * U[j][t]

    def col_sub(i, j, q):  # col i -= q * col j
        for t in range(nr):
            A[t][i] -= q * A[t][j]
        for t in range(nc):
            V[t][i] -= q * V[t][j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for t in range(nr):
            A[t][i], A[t][j] = A[t][j], A[t][i]
        for t in range(nc):
            V[t][i], V[t][j] = V[t][j], V[t][i]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] and (best is None
                                or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_sub(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_sub(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                # enforce divisibility of the remaining block by the pivot
                found = False
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if A[i][j] % A[t][t]:
                            row_sub(t, i, -1)
                            dirty = found = True
                            break
                    if found:
                        break
        if A[t][t] < 0:
            for j in range(nc):
                A[t][j] = -A[t][j]
            for j in range(nr):
                U[t][j] = -U[t][j]
        t += 1

    S = tuple(tuple(row) for row in A)
    Ut = tuple(tuple(row) for row in U)
    Vt = tuple(tuple(row) for row in V)
    assert mat_mul(mat_mul(Ut, intmat(M)), Vt) == S
    assert abs(det_int(Ut)) == 1 and abs(det_int(Vt)) == 1
    diag = [S[i][i] for i in range(min(nr, nc))]
    for i in range(len(diag) - 1):
        assert diag[i + 1] == 0 or (diag[i] != 0 and diag[i + 1] % diag[i] == 0)
    assert all(S[i][j] == 0 for i in range(nr) for j in range(nc) if i != j)
    return S, Ut, Vt


def smith_invariants(M) -> tuple[int, ...]:
    """The nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    S, _, _ = smith_normal_form(M)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    return tuple(d for d in diag if d != 0)


def lattice_index(vectors) -> int:
    """Index of the Z-span of the vectors inside its saturation.

    Equals the product of Smith invariants; |det| for square systems.
    """
    M = intmat(vectors)
    inv = smith_invariants(M)
    if len(inv) < len(M):
        raise LinearlyDependent("vectors are linearly dependent")
    return math.prod(inv)


def unimodular_frame(vectors) -> tuple[Mat, Mat]:
    """(completion, inverse): rows extending the given independent rows to
    a Z-basis of Z^d, and the inverse of the stacked basis.

    One Hermite form W * M^T = H of the transposed k x d system decides:
    the rows extend to a basis exactly when H = [I_k; 0], since the gcd of
    the k x k minors of M^T is that of H, the product of its pivots.  Then
    M^T is the first k columns of W^-1, the completion is the transpose of
    its other columns (the canonical choice, so repeated calls agree), the
    basis B = [M; completion] is (W^-1)^T and its inverse is W^T.  Smith
    invariants are computed only to report a failure.
    """
    M = intmat(vectors)
    k, d = len(M), len(M[0])
    if k > d:
        raise LinearlyDependent("more vectors than ambient dimension")
    H, W = hermite_normal_form(transpose(M))
    if H != tuple(row[:k] for row in identity(d)):
        inv = smith_invariants(M)
        if len(inv) < k:
            raise LinearlyDependent("vectors are linearly dependent")
        raise NotUnimodularSystem(inv)
    Winv = mat_inverse(W)
    completion = tuple(tuple(Winv[i][j] for i in range(d))
                       for j in range(k, d))
    inverse = transpose(W)
    if mat_mul(M + completion, inverse) != identity(d):
        raise AssertionError("Hermite transform does not invert the basis")
    return completion, inverse


def basis_completion(vectors) -> Mat:
    """Rows extending the given independent rows to a Z-basis of Z^d:
    [vectors; completion] has determinant +-1 (see unimodular_frame)."""
    return unimodular_frame(vectors)[0]


# ----------------------------------------------------------------------
# elimination over Q on integer rows


def clear_row(row, scale: int = 0) -> Vec:
    """The int/Fraction row times ``scale`` as a tuple of ints.

    ``scale`` defaults to the least common denominator of the row and
    must be a multiple of it; no Fraction is created.
    """
    if not scale:
        scale = math.lcm(*[x.denominator for x in row])
    return tuple(x.numerator * (scale // x.denominator) for x in row)


def _content_free(row) -> list[int]:
    """The integer row divided by the gcd of its entries (a zero row stays)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else list(row)


def int_echelon(rows) -> tuple[Mat, Vec]:
    """Reduced row echelon form over Q, kept on primitive integer rows.

    Returns (R, pivots): R keeps the nonzero rows, row i has a positive
    pivot in column pivots[i] and every other row a 0 there, so
    R[i] / R[i][pivots[i]] is the unique reduced echelon form and neither
    depends on the row order.  Rows are cleared to integers once; a pivot
    p clears column c from a row r by r <- p*r - r[c]*(pivot row), divided
    by its content (the gcd of its entries): fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968) that creates no Fraction.
    """
    A = [_content_free(clear_row(row)) for row in rows]
    nr, nc = len(A), len(A[0]) if A else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        prow = A[r]
        p = prow[c]
        for i in range(nr):
            f = A[i][c]
            if f and i != r:
                A[i] = _content_free([p * v - f * w
                                      for v, w in zip(A[i], prow)])
        pivots.append(c)
    R = tuple(tuple(row) if row[pc] > 0 else tuple(-v for v in row)
              for row, pc in zip(A, pivots))
    return R, tuple(pivots)


def rat_rank(rows) -> int:
    """Rank of a matrix with Fraction/int entries."""
    return len(int_echelon(rows)[1])


def rat_solve(A, b):
    """Solve the square system A*x = b over Q; raises if singular."""
    n = len(A)
    M = [list(row) + [bv] for row, bv in zip(A, b)]
    assert all(len(row) == n + 1 for row in M)
    R, pivots = int_echelon(M)
    if pivots != tuple(range(n)):
        raise LinearlyDependent("singular system")
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(R))


def mat_inverse(M) -> Mat:
    """Inverse of a unimodular integer matrix (integral again)."""
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    assert all(len(row) == 2 * n for row in A)
    R, pivots = int_echelon(A)
    if pivots != tuple(range(n)):
        raise LinearlyDependent("matrix is singular")
    inverse = []
    for i, row in enumerate(R):
        p = row[i]
        if any(v % p for v in row[n:]):
            raise ValueError("matrix is not unimodular")
        inverse.append(tuple(v // p for v in row[n:]))
    return tuple(inverse)


def primitive_vector(v) -> Vec:
    """Scale a nonzero rational vector to its primitive integer multiple."""
    ints = clear_row(v)
    if not any(ints):
        raise ValueError("zero vector has no primitive multiple")
    return tuple(_content_free(ints))


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m > 0, any a, b.

    Euclidean recursion (the AtCoder Library's floor_sum): reduce a and b
    modulo m, then count the same lattice points under the line with the
    axes swapped, which takes (n, m, a, b) to (top // m, a, m, top % m)
    for top = a*n + b; O(log m) steps.
    """
    assert n >= 0 and m > 0
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


# ----------------------------------------------------------------------
# first-order jets


@dataclass(frozen=True, order=True)
class Jet:
    """value + slope*eps with eps an infinitesimal positive quantity.

    A record with no arithmetic: orbit families solve the value and slope
    parts separately.  Both fields are stored as Fractions, and jets are
    ordered lexicographically in (value, slope), matching eps -> 0+.
    """

    value: Fraction
    slope: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "slope", Fraction(self.slope))
