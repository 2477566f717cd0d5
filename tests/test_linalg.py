"""The packed-integer Bareiss determinant against a Leibniz expansion."""

import itertools
import random
from fractions import Fraction

import pytest

from lkbmw.linalg import bareiss_det_poly
from lkbmw.rings import Poly2

L, R, ONE = Poly2.var_l(), Poly2.var_r(), Poly2.one()


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


def random_poly(rng, density=0.7):
    """Up to four terms of l- and r-degree at most 3, with negative and
    non-integer rational coefficients; zero with probability 1 - density."""
    if rng.random() > density:
        return Poly2.zero()
    return Poly2({(rng.randint(0, 3), rng.randint(0, 3)):
                  Fraction(rng.randint(-7, 7), rng.randint(1, 6))
                  for _ in range(rng.randint(1, 4))})


def random_matrix(rng, n, density=0.7):
    return [[random_poly(rng, density) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("seed", range(40))
def test_random_matrices_match_leibniz(seed):
    rng = random.Random(seed)
    n = 1 + seed % 5
    M = random_matrix(rng, n, density=0.4 + 0.6 * rng.random())
    assert bareiss_det_poly(M) == leibniz_det(M)


@pytest.mark.parametrize("seed", range(12))
def test_singular_matrices(seed):
    """A row that is a Q[l, r]-combination of two others; a zero row."""
    rng = random.Random(1000 + seed)
    n = 2 + seed % 4
    M = random_matrix(rng, n)
    p, q = random_poly(rng, 1), random_poly(rng, 1)
    M[-1] = [p * a + q * b for a, b in zip(M[0], M[n - 2])]
    assert bareiss_det_poly(M).is_zero()
    assert leibniz_det(M).is_zero()
    M = random_matrix(rng, n)
    M[seed % n] = [Poly2.zero()] * n
    assert bareiss_det_poly(M).is_zero()


def test_zero_pivots_force_row_swaps():
    z = Poly2.zero()
    # a zero in the first diagonal entry
    M = [[z, L], [R, ONE]]
    assert bareiss_det_poly(M) == -(L * R)
    # a pivot that becomes zero only after the first elimination step
    M = [[ONE, L, z], [ONE, L, R], [z, ONE, L + R]]
    assert bareiss_det_poly(M) == leibniz_det(M) == -R
    for seed in range(8):
        rng = random.Random(2000 + seed)
        n = 3 + seed % 3
        M = random_matrix(rng, n)
        M[0][0] = z
        M[1] = [M[0][j] + (M[2][j] if j else z) for j in range(n)]
        assert bareiss_det_poly(M) == leibniz_det(M)


def test_determinant_at_the_coefficient_bound():
    """det diag(-3, 5, 7) = -105 reaches the bound H = 105 with a negative
    sign, so a digit width one bit short would misread it."""
    consts = [Poly2.const(c) for c in (-3, 5, 7)]
    M = [[consts[i] if i == j else Poly2.zero() for j in range(3)]
         for i in range(3)]
    assert bareiss_det_poly(M) == Poly2.const(-105)
    M = [[-(L * R ** 3) - R, Poly2.zero()], [Poly2.zero(), L + R.scale(2)]]
    assert bareiss_det_poly(M) == leibniz_det(M)


def test_empty_and_scalar_matrices():
    assert bareiss_det_poly([]) == ONE
    p = Poly2({(3, 2): Fraction(-5, 3), (0, 1): Fraction(1, 2)})
    assert bareiss_det_poly([[p]]) == p
