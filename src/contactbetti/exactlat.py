"""Exact lattice linear algebra: normal forms, basis completion,
rank, solves, inverses, floor sums.

Integer matrices are tuples of row tuples of Python ints; vectors are plain
tuples.  Everything in this package is exact, there is no floating point
anywhere.  Two kernels do all the elimination.  ``_hermite``, one Hermite
elimination in place on integer rows, serves every normal form and
reduction: the Hermite form is one pass of it, the Smith form alternates
passes on the rows and the columns, ``rat_rank`` counts the nonzero rows
it leaves, and ``mat_inverse`` and the basis completion of
``unimodular_frame`` read the transform it leaves on [M | I].
``det_int``, a Bareiss determinant, serves every determinant and minor:
the certificates of the normal forms, ``minor_gcd`` and the Cramer's
rule of ``rat_solve``.  Rational rows are cleared to integers
(``clear_row``) before either kernel sees them.

Whether rows extend to a lattice basis is a yes/no question answered by
their maximal minors (``minor_gcd``), with no normal form: diagram
validation and the good-cone test ask only that.  A Smith form is
computed only where its entries are read: the invariants a failed check
reports, the fundamental group order, the box census transform of
``resolution`` and the failure report of ``unimodular_frame``.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
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
    return tuple((0,) * i + (1,) + (0,) * (k - 1 - i) for i in range(k))


def transpose(M) -> Mat:
    return tuple(zip(*[tuple(r) for r in M]))


def mat_mul(A, B) -> Mat:
    cols = list(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def vec_mat(v, M):
    """Row vector times matrix.  Entries of v may be ints or Fractions."""
    cols = list(zip(*M))
    return tuple(sum(x * c for x, c in zip(v, col)) for col in cols)


def det_int(M) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    A = [list(r) for r in M]
    k = len(A)
    if any(len(r) != k for r in A):
        raise AssertionError("determinant needs a square matrix")
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


def _hermite(rows, ncols: int) -> None:
    """Row-style Hermite form of the first ``ncols`` columns, in place.

    ``rows`` is a list of integer lists; the columns past ``ncols``
    follow every row operation, so rows [M | I] end as [H | U] with
    U*M = H.  Pivots are positive, entries below a pivot are zero,
    entries above it are reduced into [0, pivot), and zero rows sink to
    the bottom.
    """
    nr = len(rows)
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        for i in range(r + 1, nr):
            # euclidean elimination in column c between rows r and i
            while rows[i][c]:
                if rows[r][c]:
                    q = rows[r][c] // rows[i][c]
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        if prow[c] == 0:
            continue
        if prow[c] < 0:
            prow = rows[r] = [-x for x in prow]
        for i in range(r):
            q = rows[i][c] // prow[c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
        r += 1


def _hermite_pass(A, T) -> tuple[list, list]:
    """Hermite form of the rows of A, and W*T for its transform W."""
    k = len(A[0])
    rows = [list(a) + list(t) for a, t in zip(A, T)]
    _hermite(rows, k)
    return [row[:k] for row in rows], [row[k:] for row in rows]


def hermite_normal_form(M) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form with transform.

    Returns (H, U) with U unimodular and U*M = H: ``_hermite`` on the
    rows [M | I].
    """
    M = intmat(M)
    H, U = _hermite_pass(M, identity(len(M)))
    H = tuple(map(tuple, H))
    U = tuple(map(tuple, U))
    if mat_mul(U, M) != H or abs(det_int(U)) != 1:
        raise AssertionError("Hermite transform is not a unimodular U "
                             "with U*M = H")
    return H, U


def smith_normal_form(M) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: U*M*V = S.

    S is diagonal with non-negative entries forming a divisibility chain
    d1 | d2 | ...; U and V are unimodular.  Row Hermite passes on
    [A | U] alternate with passes on [A^T | V^T] until A is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979, build the Smith form
    from Hermite steps, which keeps entries from growing as pivoting
    eliminations can).  While some d_i (i < j) does not divide d_j,
    column j is added to column i and the passes resume; the next row
    pass puts gcd(d_i, d_j) < d_i there.  The loop ends only on a
    diagonal divisibility chain; the transforms are checked after it.
    """
    M = intmat(M)
    nr, nc = len(M), len(M[0])
    A, U, Vt = M, identity(nr), [list(row) for row in identity(nc)]
    while True:
        A, U = _hermite_pass(A, U)
        if not _is_diagonal(A):
            At, Vt = _hermite_pass(transpose(A), Vt)
            A = [list(col) for col in zip(*At)]
            if not _is_diagonal(A):
                continue
        d = [A[i][i] for i in range(min(nr, nc))]
        bad = next(((i, j) for j in range(len(d)) for i in range(j)
                    if d[i] and d[j] % d[i]), None)
        if bad is None:
            break
        i, j = bad
        A[j][i] = d[j]  # column j of the diagonal A added to column i
        Vt[i] = [a + b for a, b in zip(Vt[i], Vt[j])]
    S = tuple(map(tuple, A))
    U = tuple(map(tuple, U))
    V = transpose(Vt)
    if (mat_mul(mat_mul(U, M), V) != S or abs(det_int(U)) != 1
            or abs(det_int(V)) != 1):
        raise AssertionError("Smith transforms are not unimodular U, V "
                             "with U*M*V = S")
    return S, U, V


def _is_diagonal(A) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:])
                   for i, row in enumerate(A))


def smith_invariants(M) -> tuple[int, ...]:
    """The nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    S, _, _ = smith_normal_form(M)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    return tuple(d for d in diag if d != 0)


def minor_gcd(rows) -> int:
    """The gcd of the k x k minors of a k x d integer matrix, 0 when its
    rows are dependent (or k > d, when it has none).

    That gcd is the product d1 * ... * dk of the Smith invariants (the
    k-th determinantal divisor; Newman, Integral Matrices, 1972), so the
    rows extend to a basis of Z^d exactly when it is 1.  The minors are
    Bareiss determinants of column subsets, taken until the gcd reaches 1.
    """
    cols = list(zip(*rows))
    g = 0
    for sub in itertools.combinations(cols, len(rows)):
        g = math.gcd(g, det_int(sub))
        if g == 1:
            break
    return g


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


# ----------------------------------------------------------------------
# rank, solve and inverse over Q on integer rows


def clear_row(row, scale: int = 0) -> Vec:
    """The int/Fraction row times ``scale`` as a tuple of ints.

    ``scale`` defaults to the least common denominator of the row and
    must be a multiple of it; no Fraction is created.
    """
    if not scale:
        scale = math.lcm(*[x.denominator for x in row])
    return tuple(x.numerator * (scale // x.denominator) for x in row)


def rat_rank(rows) -> int:
    """Rank of a matrix with Fraction/int entries: the nonzero rows of the
    Hermite form of its rows, each cleared to integers."""
    A = [list(clear_row(row)) for row in rows]
    _hermite(A, len(A[0]) if A else 0)
    return sum(map(any, A))


def rat_solve(A, b):
    """Solve the square system A*x = b over Q; raises if singular.

    Each row of [A | b] is cleared to integers, which keeps the solution,
    and Cramer's rule gives x_j = det(A_j) / det(A), where A_j is A with
    column j replaced by b: Bareiss determinants, no Fraction until the
    quotients.
    """
    rows = [clear_row(tuple(row) + (bv,)) for row, bv in zip(A, b)]
    d = det_int([row[:-1] for row in rows])
    if d == 0:
        raise LinearlyDependent("singular system")
    return tuple(Fraction(det_int([row[:j] + row[-1:] + row[j + 1:-1]
                                   for row in rows]), d)
                 for j in range(len(rows)))


def mat_inverse(M) -> Mat:
    """Inverse of a unimodular integer matrix (integral again).

    ``_hermite`` on the rows [M | I] leaves [H | W] with W*M = H, and the
    form H is I exactly when M is unimodular; then W is the inverse.  A
    zero last row of H means M is singular.
    """
    ident = identity(len(M))
    H, W = _hermite_pass(M, ident)
    if not any(H[-1]):
        raise LinearlyDependent("matrix is singular")
    if H != [list(row) for row in ident]:
        raise ValueError("matrix is not unimodular")
    return tuple(map(tuple, W))


def primitive_vector(v) -> Vec:
    """Scale a nonzero rational vector to its primitive integer multiple."""
    ints = clear_row(v)
    g = math.gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive multiple")
    return tuple(x // g for x in ints)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m > 0, any a, b.

    Euclidean recursion (the AtCoder Library's floor_sum): reduce a and b
    modulo m, then count the same lattice points under the line with the
    axes swapped, which takes (n, m, a, b) to (top // m, a, m, top % m)
    for top = a*n + b; O(log m) steps.  A one-term sum is b // m whatever
    a is, so the recursion stops once n reaches 1 instead of running
    Euclid's algorithm on (a, m) to the end.
    """
    if n < 0 or m <= 0:
        raise ValueError("floor_sum needs n >= 0 and m > 0, got n=%r, m=%r"
                         % (n, m))
    total = 0
    while n > 1:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m
    return total + b // m if n else total

