"""Conjugate operators: structure, direct dispatch, sum matrices."""

import dataclasses

import pytest

from test_rep import grid

from lkbmw import linalg
from lkbmw.rep import build_matrices
from lkbmw.rings import FieldElement, Specialization
from lkbmw.roots import RootIndex, all_roots, num_roots
from lkbmw.xij import (StructureError, sum_matrix, sum_matrix_direct,
                       xij_by_conjugation, xij_direct, xij_direct_coeff)

GEN = Specialization.generic().field()
L = FieldElement.l()
R = FieldElement.r()

S_3 = grid([
    ["x", 1, "l"],
    [1, "x", "1/l"],
    ["1/l", "l", "x"],
])

S_4 = grid([
    ["x", 1, "l", 0, "r", "l*r"],
    [1, "x", "1/l", 1, "l", 0],
    ["1/l", "l", "x", "r", "(1/r - r)*(r - l)", "l"],
    [0, 1, "1/r", "x", "1/l", "1/(l*r)"],
    ["1/r", "1/l", "(r - 1/r)*(1/r - 1/l)", "l", "x", "1/l"],
    ["1/(l*r)", 0, "1/l", "l*r", "l", "x"],
])

S_5 = grid([
    ["x", 1, "l", 0, "r", "l*r", 0, 0, "r**2", "l*r**2"],
    [1, "x", "1/l", 1, "l", 0, 0, "r", "l*r", 0],
    ["1/l", "l", "x", "r", "(r - 1/r)*(l - r)", "l",
     0, "r**2", "(r**2 - 1)*(l - r)", "l*r"],
    [0, 1, "1/r", "x", "1/l", "1/(l*r)", 1, "l", 0, 0],
    ["1/r", "1/l", "(1/r - r)*(1/l - 1/r)", "l", "x", "1/l",
     "r", "(r - 1/r)*(l - r)", "l", 0],
    ["1/(l*r)", 0, "1/l", "l*r", "l", "x",
     "r**2", "(r**2 - 1)*(l - r)", "(r - 1/r)*(l - r)", "l"],
    [0, 0, 0, 1, "1/r", "1/r**2", "x", "1/l", "1/(l*r)", "1/(l*r**2)"],
    [0, "1/r", "1/r**2", "1/l", "(1/r - r)*(1/l - 1/r)",
     "(1/r**2 - 1)*(1/l - 1/r)", "l", "x", "1/l", "1/(l*r)"],
    ["1/r**2", "1/(l*r)", "(1/r**2 - 1)*(1/l - 1/r)", 0, "1/l",
     "(1/r - r)*(1/l - 1/r)", "l*r", "l", "x", "1/l"],
    ["1/(l*r**2)", 0, "1/(l*r)", 0, 0, "1/l", "l*r**2", "l*r", "l", "x"],
])


def test_first_row_three_strands():
    mats = build_matrices(3)
    op = xij_by_conjugation(mats, 1, 2)
    assert op.row == {RootIndex(1, 2, 3): GEN.x(),
                      RootIndex(2, 3, 3): GEN.one(),
                      RootIndex(1, 3, 3): L}


@pytest.mark.parametrize("row", [0, -1])
def test_conjugation_rejects_a_second_nonzero_row(row):
    # nu(X_34) at n = 4 is E_3, nonzero only in the row of w_34 (index 3);
    # its first column is zero, and so is the last row's last entry
    mats = build_matrices(4)
    E3 = [list(r) for r in mats.E[2]]
    assert E3[row][row].is_zero()
    E3[row][row] = R
    with pytest.raises(StructureError):
        xij_by_conjugation(dataclasses.replace(mats, E=mats.E[:2] + [E3]),
                           3, 4)


@pytest.mark.parametrize("n,table", [(3, S_3), (4, S_4), (5, S_5)])
def test_sum_matrix_displays(n, table):
    mats = build_matrices(n)
    assert sum_matrix(mats).entries == table


def test_crossing_entry_four_strands():
    mats = build_matrices(4)
    op = xij_by_conjugation(mats, 2, 4)
    assert op.row[RootIndex(1, 3, 4)] == (R - 1 / R) * (1 / R - 1 / L)


def test_crossing_entry_five_strands():
    mats = build_matrices(5)
    op = xij_by_conjugation(mats, 1, 3)
    assert op.row[RootIndex(2, 5, 5)] == (R ** 2 - 1) * (L - R)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_direct_dispatch_equals_conjugation(n):
    mats = build_matrices(n)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            a = xij_by_conjugation(mats, i, j)
            b = xij_direct(n, i, j, GEN)
            assert a.row == b.row, (n, i, j)


def test_one_nonzero_row_structure():
    mats = build_matrices(5)
    size = num_roots(5)
    for i in range(1, 5):
        for j in range(i + 1, 6):
            op = xij_by_conjugation(mats, i, j)
            # compression succeeded, and the row is the expected one
            assert op.row_position() == RootIndex(i, j, 5).position()
            assert 0 < len(op.row) <= size


def test_direct_coeff_examples():
    # side extensions to the right: the exponent grows with both the step
    # and the width of the acting pair
    assert xij_direct_coeff(5, 3, 4, RootIndex(4, 5, 5), GEN) == GEN.one()
    assert xij_direct_coeff(6, 3, 4, RootIndex(4, 6, 6), GEN) == R
    assert xij_direct_coeff(5, 2, 4, RootIndex(4, 5, 5), GEN) == R
    # the diagonal carries the idempotent eigenvalue
    assert xij_direct_coeff(5, 3, 4, RootIndex(3, 4, 5), GEN) == GEN.x()
    # left crossing with both offsets one, specialized at l = -1/r
    spec = Specialization.l_to(-(1 / R))
    ctx = spec.field()
    got = xij_direct_coeff(5, 3, 5, RootIndex(2, 4, 5), ctx)
    assert got == (ctx.r_pow(-1) - ctx.r_pow(1)) * (-ctx.r_pow(1)
                                                    - ctx.r_pow(-1))
    # disjoint supports vanish
    assert xij_direct_coeff(5, 1, 3, RootIndex(4, 5, 5), GEN).is_zero()


def test_pairs_outside_the_range_are_refused():
    with pytest.raises(ValueError):
        xij_by_conjugation(build_matrices(3), 2, 1)
    with pytest.raises(ValueError):
        xij_direct_coeff(3, 2, 2, RootIndex(1, 2, 3), GEN)


def test_specialized_sum_matrix_diagonal():
    spec = Specialization.l_to(R)
    T = sum_matrix_direct(5, spec)
    two = spec.field().from_int(2)
    for a in range(T.size):
        assert T.entries[a][a] == two


def test_five_strand_rows_and_columns_are_dense_enough():
    # every row and column of T(5) has at least six nonzero off-diagonal
    # entries
    T = sum_matrix_direct(5)
    size = T.size
    for a in range(size):
        row = sum(1 for b in range(size)
                  if b != a and not T.entries[a][b].is_zero())
        col = sum(1 for b in range(size)
                  if b != a and not T.entries[b][a].is_zero())
        assert row >= 6 and col >= 6


@pytest.mark.parametrize("lval", ["r", "-r^3"])
def test_kernel_stays_invariant_under_the_generators(lval):
    # images of kernel vectors under every generator stay in the kernel
    from lkbmw.spectral import kernel
    n = 5
    spec = Specialization.l_to(lval)
    mats = build_matrices(n, spec)
    rep = kernel(n, spec)
    T = sum_matrix_direct(n, spec).entries
    for v in rep.basis:
        for g in mats.G:
            gv = linalg.mat_vec(g, v)
            assert linalg.is_zero_vector(linalg.mat_vec(T, gv))
