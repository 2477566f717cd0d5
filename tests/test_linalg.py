"""The packed-integer Bareiss determinant of integer ladders against a
Leibniz expansion of the same integer polynomials and against itself under
row and column permutations, the Z[r] kernel against elimination over
Q(r), the kernels' reduced echelon form, and the sparse-row operations
against plain dense loops."""

import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lkbmw.linalg import (EntryTable, bareiss_det_poly, dense, det,
                          identity, is_zero_vector, kernel_basis,
                          kernel_basis_zr, mat_add, mat_mul, mat_scale,
                          mat_sub, mat_vec, rank, rref, rref_zr, sparse)
from lkbmw.rings import (FE_ONE, FE_ZERO, FieldElement, Poly2, QuotientField,
                         Specialization, _ladder, cyclotomic)
from lkbmw.spectral import t_cleared

L, R, ONE = Poly2.var_l(), Poly2.var_r(), Poly2.one()
GEN = Specialization.generic().field()


def leibniz_det(M):
    """Sum over permutations of signed entry products, in Poly2 arithmetic."""
    n = len(M)
    total = Poly2.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = ONE
        for i, j in enumerate(perm):
            term = term * M[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def bareiss(M):
    """bareiss_det_poly of a matrix of Poly2 with integer coefficients,
    each entry passed as its integer ladder."""
    rows = []
    for row in M:
        ladders = [_ladder(e.terms) for e in row]
        assert all(den == 1 for _, den in ladders)
        rows.append([ladder for ladder, _ in ladders])
    return bareiss_det_poly(rows)


def random_poly(rng, density=0.7):
    """Up to four terms of l- and r-degree at most 3, with negative integer
    coefficients among them; zero with probability 1 - density."""
    if rng.random() > density:
        return Poly2.zero()
    return Poly2({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-40, 40)
                  for _ in range(rng.randint(1, 4))})


def random_matrix(rng, n, density=0.7):
    return [[random_poly(rng, density) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("seed", range(40))
def test_random_matrices_match_leibniz(seed):
    rng = random.Random(seed)
    n = 1 + seed % 5
    M = random_matrix(rng, n, density=0.4 + 0.6 * rng.random())
    assert bareiss(M) == leibniz_det(M)


def _perm_sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                       for j in range(i + 1, len(perm)))


def _permuted(M, rows, cols):
    """P M Q: row i of the result is row rows[i] of M, column j column
    cols[j]."""
    return [[M[i][j] for j in cols] for i in rows]


@pytest.mark.parametrize("seed", range(40))
def test_random_matrices_are_permutation_covariant(seed):
    """bareiss(P M Q) = sgn(P) sgn(Q) bareiss(M), for one fixed row
    permutation (a cyclic shift) and one fixed column permutation (a
    reversal), on the matrices of test_random_matrices_match_leibniz; the
    permuted matrix leads the complete pivot search to other positions."""
    rng = random.Random(seed)
    n = 1 + seed % 5
    M = random_matrix(rng, n, density=0.4 + 0.6 * rng.random())
    rows = [(i + 1) % n for i in range(n)]
    cols = list(reversed(range(n)))
    expected = bareiss(M).scale(_perm_sign(rows) * _perm_sign(cols))
    assert bareiss(_permuted(M, rows, cols)) == expected


def test_generic_t_rows_are_permutation_covariant():
    """The cleared rows of the generic T(5), with their rows reversed and
    with their columns reversed: N = 10, so each reversal has sign
    (-1)^(N(N-1)/2) = -1."""
    rows = t_cleared(5, Specialization.generic())[0]
    d = bareiss_det_poly(rows)
    assert bareiss_det_poly(rows[::-1]) == -d
    assert bareiss_det_poly([row[::-1] for row in rows]) == -d


def test_smallest_packed_entry_off_the_leading_row_and_column():
    """An entry free of l packs to fewer bits than any entry with l, and
    the smallest of them (-2 at (2, 1) in the 3x3, r - 4 at (3, 1) in the
    4x4) sits off row 0 and column 0, so the first step swaps both a row
    and a column."""
    z = Poly2.zero()
    M = [[L * R + ONE, L ** 2, L - R.scale(3)],
         [L.scale(-4) + R, L * R ** 2, L ** 2 * R + L],
         [L ** 3 + ONE, ONE.scale(-2), L * R.scale(5)]]
    assert bareiss(M) == leibniz_det(M)
    M = [[L ** 2 + R, L, L * R ** 2, L.scale(7)],
         [L * R, L ** 3 - R, z, L + ONE],
         [L - ONE, L * R.scale(2), L ** 2, R.scale(3)],
         [L ** 2 * R, R - ONE.scale(4), L * R ** 3, L ** 2]]
    assert bareiss(M) == leibniz_det(M)


@pytest.mark.parametrize("seed", range(12))
def test_singular_matrices(seed):
    """A row that is a Q[l, r]-combination of two others; a zero row."""
    rng = random.Random(1000 + seed)
    n = 2 + seed % 4
    M = random_matrix(rng, n)
    p, q = random_poly(rng, 1), random_poly(rng, 1)
    M[-1] = [p * a + q * b for a, b in zip(M[0], M[n - 2])]
    assert bareiss(M).is_zero()
    assert leibniz_det(M).is_zero()
    M = random_matrix(rng, n)
    M[seed % n] = [Poly2.zero()] * n
    assert bareiss(M).is_zero()


def test_zero_pivots_force_row_swaps():
    z = Poly2.zero()
    # a zero in the first diagonal entry
    M = [[z, L], [R, ONE]]
    assert bareiss(M) == -(L * R)
    # a pivot that becomes zero only after the first elimination step
    M = [[ONE, L, z], [ONE, L, R], [z, ONE, L + R]]
    assert bareiss(M) == leibniz_det(M) == -R
    for seed in range(8):
        rng = random.Random(2000 + seed)
        n = 3 + seed % 3
        M = random_matrix(rng, n)
        M[0][0] = z
        M[1] = [M[0][j] + (M[2][j] if j else z) for j in range(n)]
        assert bareiss(M) == leibniz_det(M)


def test_determinant_at_the_coefficient_bound():
    """Determinants that reach the row Hadamard bound H, so a digit width
    one bit short would misread them: det diag(-3, 5, 7) = -105 with
    H = sqrt(9 * 25 * 49) = 105; the Sylvester 4x4 +-1 matrix, det 16 with
    H = sqrt(4^4); and [[l, r], [-l, r]], det 2lr with H = sqrt(2 * 2) = 2.
    The last two are positive powers of two, the one sign at which a
    balanced digit of one bit less overflows."""
    consts = [Poly2.const(c) for c in (-3, 5, 7)]
    M = [[consts[i] if i == j else Poly2.zero() for j in range(3)]
         for i in range(3)]
    assert bareiss(M) == Poly2.const(-105)
    M = [[-(L * R ** 3) - R, Poly2.zero()], [Poly2.zero(), L + R.scale(2)]]
    assert bareiss(M) == leibniz_det(M)
    H2 = [[ONE, ONE], [ONE, -ONE]]
    H4 = [[H2[i % 2][j % 2] * (-ONE if i >= 2 and j >= 2 else ONE)
           for j in range(4)] for i in range(4)]
    assert bareiss(H4) == leibniz_det(H4) == Poly2.const(16)
    assert bareiss([[L, R], [-L, R]]) == (L * R).scale(2)
    assert bareiss([[L, R], [L, -R]]) == (L * R).scale(-2)
    # a third row of one monomial: its row factor is 1
    z = Poly2.zero()
    M = [[L, R, z], [-L, R, z], [z, z, R ** 2]]
    assert bareiss(M) == (L * R ** 3).scale(2)


def test_empty_and_scalar_matrices():
    assert bareiss([]) == ONE
    assert det([], GEN) == FE_ONE
    p = Poly2({(3, 2): -5, (1, 0): 3, (0, 1): 12})
    assert bareiss([[p]]) == p
    assert bareiss([[Poly2.zero()]]).is_zero()


def test_zero_rungs_and_zero_rows():
    """Ladders with empty rungs (no term of some l-degree below the top)
    and rows of zero ladders."""
    z = Poly2.zero()
    M = [[L ** 3 + R, R ** 2, z], [ONE, L ** 2 * R ** 4 + ONE, L],
         [z, L ** 3, R.scale(-6)]]
    assert _ladder((L ** 3 + R).terms)[0] == [[0, 1], [], [], [1]]
    assert bareiss(M) == leibniz_det(M)
    assert bareiss([[z, z], [ONE, L]]).is_zero()


# -- kernels over Z[r] --------------------------------------------------------

def _trim(v):
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


_coeff = st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)
_zr = st.lists(_coeff, max_size=4).map(_trim)


def _zr_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _zr_add(a, b):
    return _trim(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


@st.composite
def _zr_matrices(draw):
    """Matrices over Z[r] (dense int lists) with planted dependent rows
    (Z[r]-combinations of two earlier rows), zero rows and zero columns."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    M = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["random", "combination", "zero"]))
        if kind == "zero":
            row = [[] for _ in range(ncols)]
        elif kind == "combination" and i >= 2:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            u, w = draw(_zr), draw(_zr)
            row = [_zr_add(_zr_mul(u, x), _zr_mul(w, y))
                   for x, y in zip(M[a], M[b])]
        else:
            row = [draw(_zr) for _ in range(ncols)]
        M.append([[] if j in zero_cols else e for j, e in enumerate(row)])
    return M


def _fe(v):
    return FieldElement(Poly2({(0, i): Fraction(c) for i, c in enumerate(v)}))


_r = sympy.Symbol("r")


def _is_primitive(row):
    """Whether the entries of a nonzero row have gcd 1 in Z[r], by sympy."""
    g = sympy.Poly(0, _r)
    for e in row:
        g = g.gcd(sympy.Poly(list(reversed(e)) or [0], _r))
    return g.degree() == 0 and abs(g.LC()) == 1


@given(M=_zr_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_over_zr_matches_field_elimination(M):
    A = [[_fe(e) for e in row] for row in M]
    rows, pivots = rref_zr(M)
    expected_rows, expected_pivots = rref(A, GEN)
    assert pivots == expected_pivots
    for row, p, want in zip(rows, pivots, expected_rows):
        assert [_fe(e) / _fe(row[p]) for e in row] == want
        assert _is_primitive(row)
    assert kernel_basis_zr(M) == kernel_basis(A, GEN)


# -- sparse-row products and elementwise operations -------------------------

def _fe_add(a, b):
    return FieldElement(a.num * b.den + b.num * a.den, a.den * b.den)


def _fe_mul(a, b):
    return FieldElement(a.num * b.num, a.den * b.den)


def _fe_neg(a):
    return FieldElement(-a.num, a.den)


_PHI12 = QuotientField(cyclotomic(12))

# per element type: (zero, one, add, mul, neg), where add and mul of
# FieldElements take the general route (cross-multiply, then reduce) even
# when an operand is zero or one
_RINGS = {
    "fe": (FE_ZERO, FE_ONE, _fe_add, _fe_mul, _fe_neg),
    "cyc": (_PHI12.zero(), _PHI12.one(), operator.add, operator.mul,
            operator.neg),
}
_DENS = [ONE, R, L, R + ONE, L * R - ONE, R * R + L.scale(2)]
_small = st.integers(-4, 4)


@st.composite
def _entry(draw, ring):
    """Mostly zero, sometimes one, otherwise a small random element."""
    zero, one, _, _, neg = _RINGS[ring]
    kind = draw(st.sampled_from(["zero", "zero", "zero", "one", "random"]))
    if kind == "zero":
        return zero
    if kind == "one":
        return one if draw(st.booleans()) else neg(one)
    if ring == "cyc":
        coeffs = draw(st.lists(_small, min_size=1, max_size=4))
        return _PHI12.element([Fraction(c, draw(st.integers(1, 3)))
                               for c in coeffs])
    terms = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                    _small), max_size=3))
    num = Poly2({(a, b): Fraction(c) for a, b, c in terms if c})
    return FieldElement(num, draw(st.sampled_from(_DENS)))


@st.composite
def _matrix(draw, ring, nrows, ncols):
    if draw(st.integers(0, 4)) == 0:
        return [[_RINGS[ring][0]] * ncols for _ in range(nrows)]
    return [[draw(_entry(ring)) for _ in range(ncols)] for _ in range(nrows)]


def _plain_mul(A, B, ring):
    zero, _, add, mul, _ = _RINGS[ring]
    return [[functools.reduce(add, (mul(a, Bk[j]) for a, Bk in zip(Ai, B)),
                              zero) for j in range(len(B[0]))] for Ai in A]


def _assert_entrywise(got, want):
    assert len(got) == len(want)
    for rg, rw in zip(got, want):
        assert len(rg) == len(rw)
        for g, w in zip(rg, rw):
            assert g == w
            assert g.is_zero() == w.is_zero()


def _assert_sparse(got, want, ncols, ring):
    """got, in sparse rows, stores no zero and is the dense want exactly."""
    assert all(not e.is_zero() for row in got for e in row.values())
    assert got == sparse(want)
    _assert_entrywise(dense(got, ncols, _RINGS[ring][0]), want)


def _sparse_round_trip(M, ncols, ring, table=None):
    S = sparse(M, table)
    _assert_entrywise(dense(S, ncols, _RINGS[ring][0]), M)
    return S


@given(data=st.data(), ring=st.sampled_from(sorted(_RINGS)),
       n=st.integers(0, 4), inner=st.integers(1, 4), m=st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_mat_mul_matches_plain_triple_loop(data, ring, n, inner, m):
    _, _, add, mul, neg = _RINGS[ring]
    A = data.draw(_matrix(ring, n, inner))
    B = data.draw(_matrix(ring, inner, m))
    if n and inner >= 2 and data.draw(st.booleans()):
        # plant a cancellation: row i of A is a e_k1 - a e_k2 and rows k1
        # and k2 of B agree, so row i of A B is zero from nonzero products
        i = data.draw(st.integers(0, n - 1))
        k1, k2 = data.draw(st.permutations(range(inner)))[:2]
        a = data.draw(_entry(ring).filter(lambda e: not e.is_zero()))
        A[i] = [_RINGS[ring][0]] * inner
        A[i][k1], A[i][k2] = a, neg(a)
        B[k2] = list(B[k1])
    c = data.draw(_entry(ring))
    # one table for the whole sequence: the product, then products and sums
    # of the same entries again, so the table's hits are checked too
    table = EntryTable()
    SA = _sparse_round_trip(A, inner, ring, table)
    SB = _sparse_round_trip(B, m, ring, table)
    _assert_sparse(mat_mul(SA, SB, table), _plain_mul(A, B, ring), m, ring)
    _assert_sparse(mat_mul(mat_scale(SA, c, table), SB, table),
                   _plain_mul([[mul(c, a) for a in row] for row in A], B,
                              ring), m, ring)
    _assert_sparse(mat_mul(SA, mat_add(SB, SB, table), table),
                   _plain_mul(A, [[add(b, b) for b in row] for row in B],
                              ring), m, ring)
    _assert_sparse(mat_mul(SA, SB, table), _plain_mul(A, B, ring), m, ring)


@given(data=st.data(), ring=st.sampled_from(sorted(_RINGS)),
       n=st.integers(0, 4), m=st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_elementwise_operations_match_plain_loops(data, ring, n, m):
    _, _, add, mul, neg = _RINGS[ring]
    A = data.draw(_matrix(ring, n, m))
    B = data.draw(_matrix(ring, n, m))
    c = data.draw(_entry(ring))
    # plant cancellations: B_add = -A and B_sub = A at the chosen entries
    cells = data.draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                        st.integers(0, max(m - 1, 0)))))
    B_add, B_sub = [list(row) for row in B], [list(row) for row in B]
    for i, j in cells:
        if i < n and j < m:
            B_add[i][j], B_sub[i][j] = neg(A[i][j]), A[i][j]
    # one table for the whole sequence
    table = EntryTable()
    S = _sparse_round_trip(A, m, ring, table)
    _assert_sparse(mat_add(S, _sparse_round_trip(B_add, m, ring, table),
                           table),
                   [[add(a, b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(A, B_add)], m, ring)
    _assert_sparse(mat_sub(S, _sparse_round_trip(B_sub, m, ring, table),
                           table),
                   [[add(a, neg(b)) for a, b in zip(ra, rb)]
                    for ra, rb in zip(A, B_sub)], m, ring)
    _assert_sparse(mat_scale(S, c, table),
                   [[mul(c, a) for a in row] for row in A], m, ring)
    # the sums c + a of the very operand pairs that mat_scale multiplied: a
    # table that kept products and sums under one key would return c a
    C = _sparse_round_trip([[c] * m for _ in range(n)], m, ring, table)
    _assert_sparse(mat_add(C, S, table),
                   [[add(c, a) for a in row] for row in A], m, ring)
    _assert_sparse(mat_sub(C, S, table),
                   [[add(c, neg(a)) for a in row] for row in A], m, ring)


def test_mat_mul_of_empty_and_rectangular_shapes():
    one, zero = FE_ONE, FE_ZERO
    assert mat_mul([], sparse([[one, zero]])) == []
    got = mat_mul(sparse([[one], [zero]]), sparse([[one, one, zero]]))
    assert got == [{0: one, 1: one}, {}]
    assert dense(got, 3, zero) == [[one, one, zero], [zero, zero, zero]]
    assert mat_mul(sparse([[zero, zero]]), sparse([[one], [one]])) == [{}]
    assert dense([{}], 0, zero) == [[]]
    assert dense(identity(2, GEN), 2, zero) == [[one, zero], [zero, one]]


# -- kernels in reduced echelon form ------------------------------------------

@st.composite
def _cyc_matrices(draw):
    """Matrices over Q[r]/Phi_12 with planted dependent rows (combinations
    of two earlier rows), zero rows and zero columns."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    zero = _PHI12.zero()
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    M = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["random", "combination", "zero"]))
        if kind == "zero":
            row = [zero] * ncols
        elif kind == "combination" and i >= 2:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            u, w = draw(_entry("cyc")), draw(_entry("cyc"))
            row = [u * x + w * y for x, y in zip(M[a], M[b])]
        else:
            row = [draw(_entry("cyc")) for _ in range(ncols)]
        M.append([zero if j in zero_cols else e for j, e in enumerate(row)])
    return M


def _assert_echelon_kernel(M, basis, ctx):
    """basis is the reduced echelon form of the right kernel of M."""
    assert rref(basis, ctx)[0] == basis
    for i, v in enumerate(basis):
        lead = next(j for j, e in enumerate(v) if not e.is_zero())
        assert v[lead] == ctx.one()
        assert all(w[lead].is_zero() for k, w in enumerate(basis) if k != i)
        assert is_zero_vector(mat_vec(M, v))
    assert len(basis) == len(M[0]) - rank(M, ctx)


@given(M=_zr_matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_over_zr_is_in_reduced_echelon_form(M):
    _assert_echelon_kernel([[_fe(e) for e in row] for row in M],
                           kernel_basis_zr(M), GEN)


@given(M=_cyc_matrices())
@settings(max_examples=100, deadline=None)
def test_cyclotomic_kernel_is_in_reduced_echelon_form(M):
    _assert_echelon_kernel(M, kernel_basis(M, _PHI12), _PHI12)
