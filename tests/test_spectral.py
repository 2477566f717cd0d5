"""Determinant locus, kernels, named vectors, submatrix search."""

import json

import pytest
import sympy
from click.testing import CliRunner
from sympy.polys.matrices import DomainMatrix

from lkbmw import linalg
from lkbmw.cli import main
from lkbmw.rings import FieldElement, Specialization
from lkbmw.roots import RootIndex
from lkbmw.spectral import (ALL_CASES, CASE_L_NEG_R3, CASE_L_R, CASE_NM1_MINUS,
                            CASE_NM1_PLUS, CASE_ONE_DIM, SizeGuardError,
                            check_membership, check_named, det_Sn_formula_check,
                            det_T, kernel, named_vectors, rank_witness,
                            reducibility_locus, submatrix_det, t_matrix)

R = FieldElement.r()
SPEC_R = Specialization.l_to(R)
SPEC_NEG_R3 = Specialization.l_to(-(R ** 3))


# -- determinant --------------------------------------------------------------

def test_det_vanishes_exactly_on_the_three_strand_roots():
    for lval, vanishes in [("-r^3", True), ("1", True), ("-1", True),
                           ("1/r^3", True), ("r^2", False), ("r", False)]:
        d = det_T(3, Specialization.l_to(lval))
        assert d.is_zero() == vanishes, lval


def test_det_four_strands_vanishes_at_l_r():
    assert det_T(4, SPEC_R).is_zero()


def test_det_five_strands_nonzero_off_the_locus():
    assert not det_T(5, Specialization.l_to(R ** 2)).is_zero()


def test_size_guard():
    with pytest.raises(SizeGuardError):
        det_T(7, Specialization.generic())
    # specialized determinants are not guarded
    assert det_T(7, SPEC_R).is_zero()


# -- locus --------------------------------------------------------------------

LOCI = {
    3: {(-1, 3): 1, (-1, 0): 2, (1, 0): 2, (1, -3): 1},
    4: {(1, 1): 2, (-1, 3): 3, (1, -1): 3, (-1, -1): 3, (1, -5): 1},
    5: {(1, 1): 5, (-1, 3): 6, (1, -2): 4, (-1, -2): 4, (1, -7): 1},
}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_locus_matches_the_solver_output(n):
    rep = reducibility_locus(n)
    got = {(f.eps, f.k): f.multiplicity for f in rep.factors}
    assert got == LOCI[n]
    assert rep.residual.num.degree_l() == 0
    assert rep.reconstructs()


def test_locus_scalar_is_r_only():
    rep = reducibility_locus(4)
    assert not rep.scalar.has_l()
    assert rep.l_denominator_power == 6


# -- kernels ------------------------------------------------------------------

def test_kernel_refuses_generic():
    with pytest.raises(ValueError):
        kernel(4, Specialization.generic())


KNOWN_DIMS = [
    (4, "1/r^5", 1), (5, "1/r^7", 1),
    (3, "1", 2), (3, "-1", 2),
    (4, "1/r", 3), (4, "-1/r", 3),
    (5, "1/r^2", 4), (5, "-1/r^2", 4),
    (4, "r", 2), (5, "r", 5), (6, "r", 9),
    (3, "-r^3", 1), (4, "-r^3", 3), (5, "-r^3", 6), (6, "-r^3", 10),
]


@pytest.mark.parametrize("n,lval,dim", KNOWN_DIMS)
def test_kernel_dimensions(n, lval, dim):
    rep = kernel(n, Specialization.l_to(lval))
    assert rep.dim == dim
    # each basis vector really lies in every operator kernel
    T = t_matrix(n, rep.spec).entries
    for v in rep.basis:
        assert linalg.is_zero_vector(linalg.mat_vec(T, v))


def test_kernel_rank_complement():
    for n, lval, dim in KNOWN_DIMS[:6]:
        spec = Specialization.l_to(lval)
        T = t_matrix(n, spec).entries
        rk = linalg.rank(T, spec.field())
        assert rk + kernel(n, spec).dim == n * (n - 1) // 2


def test_kernel_basis_is_reduced():
    rep = kernel(5, SPEC_R)
    one = rep.spec.field().one()
    pivots = []
    for v in rep.basis:
        lead = next(i for i, e in enumerate(v) if not e.is_zero())
        assert v[lead] == one
        pivots.append(lead)
        for w in rep.basis:
            if w is not v:
                assert w[lead].is_zero()
    assert pivots == sorted(pivots)


def test_kernel_contains_the_five_strand_vector():
    rep = kernel(5, SPEC_R)
    ctx = rep.spec.field()
    v = [ctx.zero()] * 10
    v[0] = ctx.r_pow(2)
    v[2] = -ctx.r_pow(1)
    v[3] = ctx.one()
    v[4] = -ctx.r_pow(1)
    assert rep.contains(v)


@pytest.mark.parametrize("n,mod,dim", [(3, 12, 2), (4, 16, 4)])
def test_root_of_unity_kernels_small(n, mod, dim):
    spec = Specialization.l_to_mod(-(R ** 3), mod)
    assert kernel(n, spec).dim == dim


def test_three_strand_root_of_unity_contains_both_lines():
    spec = Specialization.l_to_mod(-(R ** 3), 12)
    rep = kernel(3, spec)
    assert rep.dim == 2
    for v in named_vectors(3, "root-of-unity"):
        assert check_membership(v)


# -- named vectors ------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("case", list(ALL_CASES))
def test_named_vector_membership(n, case):
    for v in named_vectors(n, case):
        assert check_membership(v), (n, case, v.name)


def test_geometric_vector_is_an_r_eigenvector():
    # the one-dimensional space is spanned by an eigenvector with value r
    from lkbmw.rep import build_matrices
    n = 5
    spec = Specialization.l_to(R ** -7)
    v = next(v for v in named_vectors(n, CASE_ONE_DIM)
             if v.name == "geom(5)")
    vec = v.vector()
    mats = build_matrices(n, spec)
    rvec = [spec.field().r_pow(1) * e for e in vec]
    for g in mats.G:
        assert linalg.mat_vec(g, vec) == rvec


def test_tower_ranks():
    ctx = SPEC_R.field()
    for n, expect in ((5, 5), (6, 9)):
        rows = [v.vector() for v in named_vectors(n, CASE_L_R)
                if v.name.startswith("tower")]
        assert linalg.rank(rows, ctx) == expect


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        named_vectors(5, "no-such-case")


def test_t_matrix_cache_is_bounded():
    for k in range(20):
        spec = Specialization.l_to("r^%d" % (k + 2))
        assert t_matrix(3, spec) is t_matrix(3, spec)
    info = t_matrix.cache_info()
    assert info.currsize <= info.maxsize < 20


# -- submatrix fixtures --------------------------------------------------------

def test_five_strand_submatrix_determinant():
    d = submatrix_det(5, SPEC_R, [1, 2, 3, 4, 7], [1, 2, 3, 4, 7])
    assert d == (R ** 2 + 1) ** 2 / R ** 2


def test_six_strand_extension_column_is_dependent():
    d = submatrix_det(6, SPEC_R, [1, 2, 3, 4, 7], [1, 2, 3, 4, 12])
    assert d.is_zero()


def test_six_strand_negative_case_submatrix():
    d = submatrix_det(6, SPEC_NEG_R3, [1, 3, 4, 7], [1, 3, 4, 12])
    assert d == R ** 9


@pytest.mark.parametrize("n", [5, 6])
def test_nested_determinant_formula(n):
    assert det_Sn_formula_check(n)


def test_rank_witness_first_hit():
    hit = rank_witness(5, SPEC_R, 5)
    assert hit == ([1, 2, 3, 4, 7], [1, 2, 3, 4, 7])


def test_kernel_report_named_verdicts():
    rep = kernel(5, SPEC_R)
    verdicts = rep.named_verdicts()
    assert verdicts and all(verdicts.values())
    assert any(name.startswith("hk5") for name in verdicts)


# -- det T(n) against sympy ----------------------------------------------------

_SL, _SR = sympy.symbols("l r")


def _sympy_poly(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * _SL ** a * _SR ** b
                for (a, b), c in p.terms.items()), sympy.Integer(0))


def _sympy_det_T(n, spec):
    """det T(n) by sympy's own elimination over QQ(l, r)."""
    field = sympy.QQ.frac_field(_SL, _SR)
    rows = [[field.from_sympy(_sympy_poly(e.num) / _sympy_poly(e.den))
             for e in row] for row in t_matrix(n, spec).entries]
    dm = DomainMatrix(rows, (len(rows), len(rows)), field)
    return field.to_sympy(dm.det())


def _same(expr, fe):
    return sympy.cancel(expr - _sympy_poly(fe.num) / _sympy_poly(fe.den)) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_generic_det_and_locus_match_sympy(n):
    expected = _sympy_det_T(n, Specialization.generic())
    assert _same(expected, det_T(n))
    # every factor of the numerator with positive l-degree is l = eps r^k
    numer = sympy.fraction(sympy.cancel(expected))[0]
    sym_factors = {}
    for f, mult in sympy.factor_list(numer, _SL, _SR)[1]:
        if sympy.degree(f, _SL) > 0:
            sym_factors[sympy.expand(f)] = mult
    ours = {}
    for f in reducibility_locus(n).factors:
        p = sympy.expand(_sympy_poly(f.factor.num))
        key = p if p in sym_factors else sympy.expand(-p)
        ours[key] = f.multiplicity
    assert ours == sym_factors


@pytest.mark.parametrize("l_expr", ["1+r^2", "1/(r^2+1)", "3/(2*r+5)",
                                    "(r^2+r+1)/(r-2)"])
def test_lcm_fallback_matches_sympy(l_expr):
    """Each l puts a factor other than l, r and r +- 1 into the row
    denominators of T(4) over Q(r); the determinant of the rows cleared by
    their lcms, and its printed form, match sympy."""
    spec = Specialization.l_to(l_expr)
    expected = _sympy_det_T(4, spec)
    assert _same(expected, det_T(4, spec))
    result = CliRunner().invoke(main, ["det", "--n", "4", "--l", l_expr])
    assert result.exit_code == 0
    printed = json.loads(result.output)["det"].replace("^", "**")
    assert sympy.cancel(sympy.sympify(printed, locals={"r": _SR})
                        - expected) == 0
