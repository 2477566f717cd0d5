"""Cross-validation of the deeper structural identities: eigenvector
relations, specialized single-coefficient tables, kernel towers."""

import pytest

from lkbmw import linalg
from lkbmw.rep import build_matrices
from lkbmw.rings import FieldElement, Specialization
from lkbmw.roots import RootIndex, num_roots
from lkbmw.spectral import (CASE_L_NEG_R3, CASE_L_R, CASE_NM1_MINUS,
                            CASE_NM1_PLUS, CASE_ONE_DIM, kernel,
                            named_vectors, check_membership, t_matrix)
from lkbmw.xij import xij_direct_coeff

R = FieldElement.r()


# -- eigenvector relations -----------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_geometric_vector_is_an_r_eigenvector_for_every_generator(n):
    spec = Specialization.l_to(R ** -(2 * n - 3))
    ctx = spec.field()
    v = next(v for v in named_vectors(n, CASE_ONE_DIM)
             if v.name == "geom(%d)" % n)
    vec = v.vector()
    r_vec = [ctx.r_pow(1) * e for e in vec]
    mats = build_matrices(n, spec)
    for g in mats.G:
        assert linalg.mat_vec(g, vec) == r_vec


def test_three_strand_lines_are_eigenvectors():
    # at l = 1/r^3 the line has eigenvalue r; at l = -r^3, -1/r
    for name, lval, eig_power, eig_sign in (
            ("geom(3)", R ** -3, 1, 1), ("geom-alt(3)", -(R ** 3), -1, -1)):
        spec = Specialization.l_to(lval)
        ctx = spec.field()
        v = next(v for v in named_vectors(3, CASE_ONE_DIM)
                 if v.name == name)
        vec = v.vector()
        eig = ctx.r_pow(eig_power)
        if eig_sign < 0:
            eig = -eig
        target = [eig * e for e in vec]
        mats = build_matrices(3, spec)
        for g in mats.G:
            assert linalg.mat_vec(g, vec) == target


# -- specialized single-coefficient tables ------------------------------------

@pytest.mark.parametrize("n", [6, 7, 8])
def test_last_rows_at_l_r(n):
    # at l = r the operator X_{jn} picks w_{kn} up with the coefficient
    # r^{k-j}, and the diagonal coefficient is 2
    spec = Specialization.l_to(R)
    ctx = spec.field()
    two = ctx.from_int(2)
    for j in range(1, n):
        for k in range(1, n):
            got = xij_direct_coeff(n, j, n, RootIndex(k, n, n), ctx)
            want = two if k == j else ctx.r_pow(k - j)
            assert got == want, (n, j, k)


@pytest.mark.parametrize("n", [6, 7])
def test_last_rows_at_l_neg_r3(n):
    # at l = -r^3 the same coefficients become -r^{k-j-2} (k < j),
    # -r^{k-j+2} (k > j) and -r^2 - 1/r^2 on the diagonal
    spec = Specialization.l_to(-(R ** 3))
    ctx = spec.field()
    diag = -(ctx.r_pow(2) + ctx.r_pow(-2))
    for j in range(1, n):
        for k in range(1, n):
            got = xij_direct_coeff(n, j, n, RootIndex(k, n, n), ctx)
            if k == j:
                want = diag
            elif k < j:
                want = -ctx.r_pow(k - j - 2)
            else:
                want = -ctx.r_pow(k - j + 2)
            assert got == want, (n, j, k)


# -- kernel towers -------------------------------------------------------------

def _embed(vec, n_small, n_big, ctx):
    out = [ctx.zero()] * num_roots(n_big)
    out[:num_roots(n_small)] = vec
    return out


@pytest.mark.parametrize("lval", ["r", "-r^3"])
def test_kernel_towers_grow(lval):
    # K(n-1), read inside the larger space, sits inside K(n)
    spec = Specialization.l_to(lval)
    ctx = spec.field()
    for n in (5, 6):
        small = kernel(n - 1, spec)
        big = kernel(n, spec)
        for v in small.basis:
            assert big.contains(_embed(v, n - 1, n, ctx))
        assert small.dim < big.dim


def test_root_of_unity_breaks_the_tower():
    # with r a primitive 12th root and l = -r^3, the 3-strand kernel does
    # not embed into the 4-strand kernel
    spec = Specialization.l_to_mod(-(R ** 3), 12)
    ctx = spec.field()
    small = kernel(3, spec)
    big = kernel(4, spec)
    embedded = [_embed(v, 3, 4, ctx) for v in small.basis]
    assert not all(big.contains(v) for v in embedded)


def test_kernel_invariance_in_the_quotient_field():
    spec = Specialization.l_to_mod(-(R ** 3), 16)
    n = 4
    rep = kernel(n, spec)
    mats = build_matrices(n, spec)
    T = t_matrix(n, spec).entries
    for v in rep.basis:
        for g in mats.G:
            assert linalg.is_zero_vector(
                linalg.mat_vec(T, linalg.mat_vec(g, v)))


def test_row_family_membership_at_eight_strands():
    for case in (CASE_NM1_PLUS, CASE_NM1_MINUS):
        for v in named_vectors(8, case):
            assert check_membership(v), v.name


# -- degenerate specializations ------------------------------------------------

def test_r_squared_one_is_rejected():
    with pytest.raises(ValueError, match="r\\^2 = 1"):
        build_matrices(3, Specialization.l_to_mod(-(R ** 3), 2))


def test_l_r_two_dimensional_plane_for_four_strands():
    # the l = r kernel of the 4-strand matrix is exactly the plane spanned
    # by the two tower vectors
    spec = Specialization.l_to(R)
    rep = kernel(4, spec)
    assert rep.dim == 2
    towers = [v.vector() for v in named_vectors(4, CASE_L_R)
              if v.name.startswith("tower")]
    assert len(towers) == 2
    ctx = spec.field()
    assert linalg.rank(towers, ctx) == 2
    for v in towers:
        assert rep.contains(v)
