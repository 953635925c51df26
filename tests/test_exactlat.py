import math
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import count_calls, time_limit
from lattice_oracles import (Jet, basis_completion_by_smith,
                             lattice_index, rat_echelon, rat_kernel)

from contactbetti import exactlat
from contactbetti.exactlat import (
    LinearlyDependent,
    NotUnimodularSystem,
    det_int,
    floor_sum,
    hermite_normal_form,
    identity,
    int_echelon,
    intmat,
    mat_inverse,
    mat_mul,
    minor_gcd,
    primitive_vector,
    rat_rank,
    rat_solve,
    smith_invariants,
    smith_normal_form,
    transpose,
    unimodular_frame,
    vec_mat,
)

small_ints = st.integers(min_value=-9, max_value=9)


def int_matrices(max_dim=4, entries=small_ints):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda nr: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda nc: st.lists(
                st.lists(entries, min_size=nc, max_size=nc),
                min_size=nr, max_size=nr)))


# dense matrices up to 6 x 6 with entries +-100: pivoting eliminations
# blow their entries up there, so these tests carry a deadline and a
# time limit on each normal form
dense_matrices = int_matrices(6, st.integers(min_value=-100, max_value=100))


def naive_det(M):
    # cofactor expansion oracle
    k = len(M)
    if k == 1:
        return M[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * naive_det(minor)
    return total


def minor_gcd_invariants(M):
    """Smith invariants straight from gcds of k x k minors."""
    import itertools
    nr, nc = len(M), len(M[0])
    gcds = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = math.gcd(g, naive_det(sub))
        gcds.append(g)
    out = []
    for k in range(1, len(gcds)):
        if gcds[k] == 0:
            break
        out.append(gcds[k] // gcds[k - 1])
    return tuple(out)


def is_row_hnf(H):
    nr, nc = len(H), len(H[0])
    pivots = []
    for i in range(nr):
        cols = [c for c in range(nc) if H[i][c]]
        if not cols:
            pivots.append(None)
            continue
        pivots.append(cols[0])
    seen_zero = False
    last = -1
    for i, p in enumerate(pivots):
        if p is None:
            seen_zero = True
            continue
        if seen_zero:
            return False  # nonzero row below a zero row
        if p <= last:
            return False
        last = p
        if H[i][p] <= 0:
            return False
        for j in range(i):
            if not (0 <= H[j][p] < H[i][p]):
                return False
    return True


# ---------------------------------------------------------------- hermite


def test_hnf_identity():
    H, U = hermite_normal_form(identity(3))
    assert H == identity(3)
    assert U == identity(3)


def test_hnf_single_row():
    H, U = hermite_normal_form(((2, 4),))
    assert H == ((2, 4),)
    assert U == ((1,),)


def test_hnf_two_rows():
    M = intmat([(1, 2, 3), (2, 2, 3)])
    H, U = hermite_normal_form(M)
    assert mat_mul(U, M) == H
    assert abs(det_int([row[:2] for row in U])) or True
    assert is_row_hnf(H)
    # the row lattice is unchanged: both generate the same HNF
    assert H == hermite_normal_form(H)[0]


@settings(max_examples=200, deadline=timedelta(seconds=1))
@given(int_matrices() | dense_matrices)
def test_hnf_properties(rows):
    M = intmat(rows)
    with time_limit(5):
        H, U = hermite_normal_form(M)
    assert mat_mul(U, M) == H
    assert abs(det_int(U)) == 1
    assert is_row_hnf(H)


# (M, H, U) and one frame, pinned from the Hermite elimination as it ran
# before the Smith form was built on it
GOLDEN_HERMITE = [
    (((4, -6, 9, 1), (7, 3, -2, 5), (-8, 0, 6, 11)),
     ((1, 3, 21, 49), (0, 6, 25, 65), (0, 0, 74, 143)),
     ((1, 3, 3), (1, 4, 4), (4, 8, 9))),
    (((3, 1, 2), (6, 2, 4), (-5, 7, 0), (1, -1, 1)),
     ((1, 1, 6), (0, 2, 5), (0, 0, 11), (0, 0, 0)),
     ((0, 0, 1, 6), (0, 0, 1, 5), (-1, 0, 2, 13), (-2, 1, 0, 0))),
    (((-12, 18), (30, -45)),
     ((6, -9), (0, 0)),
     ((2, 1), (-5, -2))),
]


@pytest.mark.parametrize("M,H,U", GOLDEN_HERMITE)
def test_hnf_golden(M, H, U):
    assert hermite_normal_form(M) == (H, U)


def test_unimodular_frame_golden():
    assert unimodular_frame(((3, 5, -2, 7), (1, 4, 6, -3))) == (
        ((-7, -13, 1, 0), (0, 0, 0, 1)),
        ((82, 21, 38, -511), (-43, -11, -20, 268), (15, 4, 7, -93),
         (0, 0, 0, 1)))


def _corrupt_transforms(monkeypatch):
    """Make ``_hermite`` add 1 to the first transform entry it returns."""
    real = exactlat._hermite

    def corrupted(rows, ncols):
        real(rows, ncols)
        rows[0][ncols] += 1

    monkeypatch.setattr(exactlat, "_hermite", corrupted)


def test_hermite_certificate_is_an_explicit_raise(monkeypatch):
    _corrupt_transforms(monkeypatch)
    with pytest.raises(AssertionError, match="Hermite transform"):
        hermite_normal_form(((2, 3), (4, 5)))


def test_smith_certificate_is_an_explicit_raise(monkeypatch):
    _corrupt_transforms(monkeypatch)
    with pytest.raises(AssertionError, match="Smith transforms"):
        smith_normal_form(((2, 3), (4, 5)))


# ---------------------------------------------------------------- smith


def test_smith_identity():
    assert smith_invariants(identity(4)) == (1, 1, 1, 1)


def test_smith_diagonal():
    assert smith_invariants(((2, 0), (0, 2))) == (2, 2)


def test_smith_lens_cone():
    assert smith_invariants(((1, 0, 1), (0, 1, 1), (-1, -1, 1))) == (1, 1, 3)


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(int_matrices() | dense_matrices)
def test_smith_matches_minor_gcds(rows):
    M = intmat(rows)
    with time_limit(5):
        S, U, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == S
    assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1
    inv = minor_gcd_invariants(M)
    assert S == tuple(tuple(inv[i] if i == j and i < len(inv) else 0
                            for j in range(len(M[0])))
                      for i in range(len(M)))
    assert smith_invariants(M) == inv


def test_smith_of_a_matrix_the_pivoting_elimination_stalled_on():
    # a 5 x 5 matrix with entries <= 30 on which eliminating by the
    # least pivot, row and column at a time, took 28 s
    M = ((26, -21, -7, -9, -14), (22, -13, 0, 20, -21),
         (17, -23, -14, -14, 23), (-29, 10, -14, -6, -20),
         (10, 20, -15, 14, -14))
    with time_limit(5):
        S, U, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == S
    assert smith_invariants(M) == minor_gcd_invariants(M)


# ---------------------------------------------------------------- determinant


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(st.lists(small_ints, min_size=k, max_size=k),
                       min_size=k, max_size=k)))
def test_det_matches_cofactor(rows):
    assert det_int(rows) == naive_det(rows)


def test_det_of_the_empty_matrix_is_one():
    assert det_int([]) == 1


# ---------------------------------------------------------------- completion


def test_complete_unit_vectors():
    assert unimodular_frame(((1, 0, 0), (0, 1, 0)))[0] == ((0, 0, 1),)


def test_complete_two_in_three():
    vs = ((1, 0, 1), (0, 1, 1))
    eta = unimodular_frame(vs)[0][0]
    assert abs(det_int(vs + (eta,))) == 1


def test_complete_order3_facet():
    # facet normals of an order-3 diagram; eta = (0, 1, 1) is one valid answer
    vs = ((1, 2, 3), (2, 2, 3))
    eta = unimodular_frame(vs)[0][0]
    assert abs(det_int(vs + (eta,))) == 1
    # deterministic
    assert eta == unimodular_frame(vs)[0][0]


def test_complete_rejects_non_saturated():
    with pytest.raises(NotUnimodularSystem) as err:
        unimodular_frame(((2, 0, 0), (0, 1, 0)))
    assert 2 in err.value.invariants


def test_complete_rejects_dependent():
    with pytest.raises(LinearlyDependent):
        unimodular_frame(((1, 2, 3), (2, 4, 6)))


@settings(max_examples=150)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                min_size=1, max_size=2))
def test_basis_completion_property(rows):
    M = intmat(rows)
    inv = smith_invariants(M)
    if len(inv) < len(M) or any(x != 1 for x in inv):
        return
    completion = unimodular_frame(M)[0]
    assert abs(det_int(M + completion)) == 1


def _raised(fn, rows):
    """fn(rows), or the type and invariants of the error it raised."""
    try:
        return fn(rows)
    except (LinearlyDependent, NotUnimodularSystem) as exc:
        return exc.__class__, getattr(exc, "invariants", None)


def _check_frame_against_oracle(rows):
    """Whether the rows extend to a basis, after checking the frame."""
    got = _raised(unimodular_frame, rows)
    want = _raised(basis_completion_by_smith, rows)
    if len(want) == 2 and isinstance(want[0], type):  # the oracle raised
        assert got == want
        return False
    completion, inverse = got
    assert completion == want
    assert mat_mul(intmat(rows) + completion, inverse) == identity(
        len(rows[0]))
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                                min_size=d, max_size=d),
                       min_size=1, max_size=d + 1)))
def test_unimodular_frame_matches_smith_oracle(rows):
    _check_frame_against_oracle(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.tuples(
        st.integers(min_value=1, max_value=d),
        st.lists(st.tuples(st.integers(min_value=0, max_value=d - 1),
                           st.integers(min_value=0, max_value=d - 1),
                           st.integers(min_value=-3, max_value=3)),
                 max_size=12),
        st.just(d))))
def test_unimodular_frame_completes_rows_of_unimodular_matrices(drawn):
    # rows of a product of elementary matrices always extend to a basis
    k, ops, d = drawn
    U = [list(row) for row in identity(d)]
    for i, j, q in ops:
        if i != j:
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    assert _check_frame_against_oracle(U[:k])


def test_unimodular_frame_failures_carry_the_smith_invariants():
    with pytest.raises(NotUnimodularSystem) as err:
        unimodular_frame(((2, 0, 0), (0, 1, 0)))
    assert err.value.invariants == (1, 2)
    with pytest.raises(NotUnimodularSystem) as err:
        unimodular_frame(((1, 1, 3), (1, 2, 3), (2, 2, 3)))
    assert err.value.invariants == (1, 1, 3)
    for rows in (((1, 2, 3), (2, 4, 6)), ((1, 0), (0, 1), (1, 1))):
        with pytest.raises(LinearlyDependent):
            unimodular_frame(rows)


def test_unimodular_frame_takes_one_hermite_form_and_no_smith_form(
        monkeypatch):
    hermite = count_calls(monkeypatch, exactlat, "hermite_normal_form")
    smith = count_calls(monkeypatch, exactlat, "smith_normal_form")
    completion, inverse = unimodular_frame(((1, 2, 3), (2, 2, 3)))
    assert len(hermite) == 1 and smith == []
    assert completion == basis_completion_by_smith(((1, 2, 3), (2, 2, 3)))


# ---------------------------------------------------------------- index


def test_lattice_index_examples():
    assert lattice_index(((1, 1, 2), (1, 0, 3), (2, 1, 1))) == 4
    assert lattice_index(((1, 0, 0), (0, 1, 0))) == 1
    assert lattice_index(((1, 0, 1), (0, 1, 1), (-1, -1, 1))) == 3


def test_lattice_index_dependent():
    with pytest.raises(LinearlyDependent):
        lattice_index(((1, 2), (2, 4)))


@settings(max_examples=150)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_lattice_index_is_abs_det(rows):
    d = naive_det(rows)
    if d == 0:
        with pytest.raises(LinearlyDependent):
            lattice_index(rows)
    else:
        assert lattice_index(rows) == abs(d)


def test_mat_inverse_unimodular():
    M = ((1, 2, 0), (0, 1, 3), (0, 0, 1))
    assert mat_mul(M, mat_inverse(M)) == identity(3)
    with pytest.raises(ValueError):
        mat_inverse(((2, 0), (0, 1)))


def test_rational_helpers():
    assert rat_rank([[1, 2], [2, 4]]) == 1
    assert rat_solve([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))
    (k,) = rat_kernel([[1, 1, 1]])[:1]
    assert sum(k) == 0
    assert primitive_vector((Fraction(2, 3), Fraction(4, 3))) == (1, 2)
    assert primitive_vector((-2, -4)) == (-1, -2)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
mixed_entries = small_ints | small_fracs | st.just(Fraction(0))


@st.composite
def frac_matrices(draw, max_dim=4):
    """Rows mixing int and Fraction entries, with zero and repeated rows."""
    nr = draw(st.integers(min_value=1, max_value=max_dim))
    nc = draw(st.integers(min_value=1, max_value=max_dim))
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * nc)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(mixed_entries,
                                      min_size=nc, max_size=nc)))
    return rows


def oracle_solve(S, b):
    """Solution of a square system read off the Fraction echelon form,
    or None when it is singular."""
    n = len(S)
    R, pivots = rat_echelon([list(row) + [bv] for row, bv in zip(S, b)])
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n] for row in R)


@settings(max_examples=150, deadline=None)
@given(frac_matrices(), st.lists(mixed_entries, min_size=4, max_size=4))
def test_rat_echelon_properties(A, rhs):
    nr, nc = len(A), len(A[0])
    R, pivots = rat_echelon(A)
    rank = len(pivots)
    # reduced echelon shape: increasing pivots, each a 1 alone in its column
    assert len(R) == rank == rat_rank(A) <= min(nr, nc)
    assert list(pivots) == sorted(set(pivots))
    for i, (row, pc) in enumerate(zip(R, pivots)):
        assert not any(row[:pc]) and row[pc] == 1
        assert all(R[k][pc] == 0 for k in range(rank) if k != i)
    # the form is unique, hence independent of the row order
    assert rat_echelon(A[::-1]) == (R, pivots)
    # the integer kernel: same pivots and, divided by its pivots, the same
    # form; its rows are primitive integer rows with a positive pivot
    IR, ipivots = int_echelon(A)
    assert ipivots == pivots
    assert tuple(tuple(Fraction(v, row[pc]) for v in row)
                 for row, pc in zip(IR, ipivots)) == R
    for row, pc in zip(IR, ipivots):
        assert all(type(v) is int for v in row)
        assert row[pc] > 0 and math.gcd(*row) == 1
    assert int_echelon(A[::-1]) == (IR, ipivots)
    # right kernel: annihilated by A, independent, of size nc - rank
    kernel = rat_kernel(A)
    assert len(kernel) == nc - rank
    assert all(sum(a * x for a, x in zip(row, k)) == 0
               for row in A for k in kernel)
    assert not kernel or rat_rank(kernel) == len(kernel)
    # square systems: solve round trip, or a singular system is refused
    n = min(nr, nc)
    S, b = [row[:n] for row in A[:n]], rhs[:n]
    expected = oracle_solve(S, b)
    assert (expected is None) == (rat_rank(S) < n)
    if expected is not None:
        x = rat_solve(S, b)
        assert x == expected
        assert [sum(a * v for a, v in zip(row, x)) for row in S] == b
    else:
        with pytest.raises(LinearlyDependent):
            rat_solve(S, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n),
                       min_size=2 * n, max_size=2 * n)))
def test_mat_inverse_round_trip(rows):
    # L*U with L unit lower and U unit upper triangular is unimodular
    n = len(rows) // 2
    L = tuple(tuple(rows[i][j] if j < i else int(i == j) for j in range(n))
              for i in range(n))
    U = tuple(tuple(rows[n + i][j] if j > i else int(i == j)
                    for j in range(n)) for i in range(n))
    M = mat_mul(L, U)
    inv = mat_inverse(M)
    assert mat_mul(M, inv) == identity(n) == mat_mul(inv, M)
    # any other integer matrix is refused: singular, or not unimodular
    B = tuple(tuple(r) for r in rows[:n])
    d = det_int(B)
    if d == 0:
        with pytest.raises(LinearlyDependent):
            mat_inverse(B)
    elif abs(d) != 1:
        with pytest.raises(ValueError, match="not unimodular"):
            mat_inverse(B)
    else:
        assert mat_mul(B, mat_inverse(B)) == identity(n)


# ---------------------------------------------------------------- jets


def test_jet_ordering_lexicographic():
    assert Jet(1, -100) > Jet(0, 100)
    assert Jet(1, -1) < Jet(1, 0) < Jet(1, 1)
    assert Jet(0, 1) > Jet(0, 0)
    assert Jet(0, -1) < Jet(0, 0)


def test_transpose_and_vec_mat():
    M = ((1, 2), (3, 4), (5, 6))
    assert transpose(M) == ((1, 3, 5), (2, 4, 6))
    assert vec_mat((1, 0, -1), M) == (-4, -4)


# ---------------------------------------------------------------- floor sums


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=-200, max_value=200),
       st.integers(min_value=-200, max_value=200))
def test_floor_sum_matches_brute_force(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_edge_cases():
    assert floor_sum(0, 7, -5, -3) == 0
    assert floor_sum(1, 7, 100, -3) == -1
    assert floor_sum(5, 1, -2, -1) == sum(-2 * i - 1 for i in range(5))
    # large arguments take few steps and stay exact
    n, m, a, b = 10 ** 6, 999_983, -(10 ** 9 + 7), 3 ** 30
    assert floor_sum(n, m, a, b) == (
        floor_sum(n, m, a % m, b % m)
        + (a // m) * n * (n - 1) // 2 + (b // m) * n)


def test_minor_gcd_examples():
    assert minor_gcd([(2, 0), (0, 1)]) == 2
    assert minor_gcd([(1, 0, 0), (0, 1, 0)]) == 1
    assert minor_gcd([(2, 4, 6)]) == 2
    assert minor_gcd([(1, 2), (2, 4)]) == 0  # dependent rows
    assert minor_gcd([(1,), (1,)]) == 0  # k > d: no k x k minor


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.integers(min_value=1, max_value=d).flatmap(
        lambda k: st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                                    min_size=d, max_size=d),
                           min_size=k, max_size=k))))
def test_minor_gcd_is_the_product_of_smith_invariants(rows):
    # the k-th determinantal divisor: rows extend to a basis exactly when
    # it is 1, which is when every one of the k invariants is 1
    inv = smith_invariants(rows)
    k = len(rows)
    assert minor_gcd(rows) == (math.prod(inv) if len(inv) == k else 0)
    assert (minor_gcd(rows) == 1) == (inv == (1,) * k)
