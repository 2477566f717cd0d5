"""Determinant locus, kernels, named vectors, submatrix search."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from click.testing import CliRunner
from sympy.polys.matrices import DomainMatrix

from test_acceptance import LOCI as ACCEPTANCE_LOCI

from lkbmw import linalg, rings, spectral
from lkbmw.cli import MAX_N, main
from lkbmw.rings import FieldElement, Poly2, Specialization, _from_ll
from lkbmw.roots import RootIndex, all_roots
from lkbmw.spectral import (ALL_CASES, CASE_L_NEG_R3, CASE_L_R, CASE_NM1_MINUS,
                            CASE_NM1_PLUS, CASE_ONE_DIM, MAX_PINNED_N,
                            SizeGuardError, _annihilates, _clear_row, _spec,
                            _t_read, check_membership, check_named,
                            det_Sn_formula_check, det_T, kernel, locus_orders,
                            named_vectors, rank_witness, reducibility_locus,
                            submatrix_det, t_cleared, t_matrix)

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


def _closed_form_det(n):
    """The paper's locus as a closed form: with N = n(n-1)/2, det T(n) is
    (r - 1/r)^-N l^-N (l + r^3)^(N-n+1) (l - r)^(N-n) (l - r^(3-n))^(n-1)
    (l + r^(3-n))^(n-1) (l - r^(3-2n)), the exponents of locus_orders."""
    N = n * (n - 1) // 2
    l = FieldElement.l()
    out = (R - 1 / R) ** -N * l ** -N
    for (eps, k), e in locus_orders(n).items():
        root = FieldElement.r_pow(k)
        out = out * (l - root if eps > 0 else l + root) ** e
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generic_det_is_the_closed_form(n):
    """det T(n) over Q(l, r) equals the closed form, and l^N det T(n) is a
    polynomial in l over Q(r) of degree 2N whose top coefficient is
    (r - 1/r)^-N: the leading-coefficient argument for the locus."""
    N = n * (n - 1) // 2
    d = det_T(n, Specialization.generic())
    assert d == _closed_form_det(n)
    lifted = d * FieldElement.l() ** N
    assert lifted.den.degree_l() == 0
    assert lifted.num.degree_l() == 2 * N
    top = Poly2({(0, b): c for (a, b), c in lifted.num.terms.items()
                 if a == 2 * N})
    assert FieldElement(top, lifted.den) == (R - 1 / R) ** -N


def test_size_guard():
    with pytest.raises(SizeGuardError):
        det_T(7, Specialization.generic())
    # specialized determinants are not guarded
    assert det_T(7, SPEC_R).is_zero()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_quotient_det_is_the_closed_form(monkeypatch, n):
    """At a specialized l, modulo Phi_M and over Q(r), det_T is the closed
    form with no T(n) built, no rows cleared and no Bareiss run, and equals
    the elimination of T(n) (submatrix_det on every row and column): modulo
    Phi_4n at the kernel workloads' points, at l = 1 + r^2 modulo Phi_5 and
    at the high-degree l modulo Phi_61 for n = 4, 5; over Q(r) at the
    kernel workloads' points for n <= 7 (l = r at n = 3 has the exponent 0
    on l - r) and at r^2 for n = 8, at the four sympy-pinned l for n = 4,
    5, and for n = 5 at l whose numerator and denominator carry r and
    r +- 1 and at the 65-bit l = 2^64."""
    specs = [Specialization.l_to_mod(l, 4 * n) for l in _kernel_points(n)]
    specs.append(Specialization.l_to_mod("1+r^2", 5))
    if n in (4, 5):
        specs.append(Specialization.l_to_mod("(r^64+1)/(r^63-3)", 61))
    qr = _kernel_points(n) if n < 8 else ["r^2"]
    if n in (4, 5):
        qr += PINNED_L
    if n == 5:
        qr += ["2*(r-1)^2/(r+1)^3/r^2", "(r^2-1)/(3*r^4)", "2^64"]
    specs += [Specialization.l_to(l) for l in qr]
    every = range(1, n * (n - 1) // 2 + 1)
    want = [str(submatrix_det(n, spec, every, every)) for spec in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("T(n) built or eliminated")

    for module, name in ((spectral, "sum_matrix_direct"),
                         (spectral, "t_cleared"),
                         (linalg, "bareiss_det_poly")):
        monkeypatch.setattr(module, name, refuse)
    t_matrix.cache_clear()
    assert [str(det_T(n, spec)) for spec in specs] == want


def test_quotient_specs_past_the_certificate_are_refused(monkeypatch):
    """Past MAX_PINNED_N the closed form is not proved, so kernel and det_T
    refuse a specialized l, modulo Phi_M and over Q(r), before building
    T(n)."""
    def refuse(*args, **kwargs):
        raise AssertionError("T(n) built")

    monkeypatch.setattr(spectral, "sum_matrix_direct", refuse)
    n = MAX_PINNED_N + 1
    for l in ("r^2", "-r^3"):
        for spec in (Specialization.l_to_mod(l, 4 * n),
                     Specialization.l_to(l)):
            for fn in (kernel, det_T):
                with pytest.raises(ValueError):
                    fn(n, spec)


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
    assert got == {root: e for root, e in locus_orders(n).items() if e}
    assert rep.residual.num.degree_l() == 0
    assert rep.reconstructs()


def test_locus_refuses_a_denominator_not_l_power_times_r_part(monkeypatch):
    # l + r: the terms of the denominator have l-degrees 1 and 0
    bad = FieldElement(Poly2.one(), Poly2({(1, 0): 1, (0, 1): 1}))
    monkeypatch.setattr(spectral, "det_T", lambda n, spec, guard: bad)
    with pytest.raises(ArithmeticError, match="unexpected denominator"):
        reducibility_locus(3)


def test_locus_refuses_a_failed_reconstruction(monkeypatch):
    monkeypatch.setattr(spectral.LocusReport, "reconstructs",
                        lambda self: False)
    with pytest.raises(ArithmeticError, match="reconstruction identity"):
        reducibility_locus(3)


def test_locus_scalar_is_r_only():
    rep = reducibility_locus(4)
    assert not rep.scalar.has_l()
    assert rep.l_denominator_power == 6


def test_locus_orders_are_the_table_criterion_5_proves():
    """locus_orders is the table that criterion 5 checks against the solver
    for n <= 6; criterion 12 proves it up to MAX_PINNED_N."""
    for n, orders in ACCEPTANCE_LOCI.items():
        assert locus_orders(n) == orders
        assert sum(orders.values()) == n * (n - 1)


def _l_parts(e):
    """{a: c}: the entry e of T(n) over Q(l, r) as the sum of c l^a, each c
    in Q(r); every denominator is l^d times a polynomial in r."""
    d = e.den.degree_l()
    assert all(a == d for a, _ in e.den.terms)
    den_r = Poly2({(0, b): c for (_, b), c in e.den.terms.items()})
    parts = {}
    for (a, b), c in e.num.terms.items():
        parts.setdefault(a - d, {})[(0, b)] = c
    return {a: FieldElement(Poly2(t), den_r) for a, t in parts.items()}


@pytest.mark.parametrize("n", range(3, MAX_PINNED_N + 1))
def test_the_top_l_part_of_T_is_triangular(n):
    """T(n) = l^-1 T_- + T_0 + l T_+ over Q(r).  An off-diagonal entry of
    T_+ in row w_ij and column w_i'j' has i <= i' and j <= j', a partial
    order on the roots, and its diagonal is -1/m = 1/(r - 1/r).  So
    det T_+ = (r - 1/r)^-N, the top coefficient of the l-polynomial
    l^N det T(n), is not 0, and neither is det T(n)."""
    T = t_matrix(n, Specialization.generic()).entries
    roots = all_roots(n)
    for w, row in zip(roots, T):
        for v, e in zip(roots, row):
            parts = _l_parts(e) if e else {}
            assert set(parts) <= {-1, 0, 1}
            if v == w:
                assert parts[1] == 1 / (R - 1 / R)
            elif 1 in parts:
                assert w.i <= v.i and w.j <= v.j, (w, v)
    if n <= 5:
        top = [[_l_parts(e).get(1, FieldElement.from_int(0)) if e else e
                for e in row] for row in T]
        N = n * (n - 1) // 2
        assert (linalg.det(top, Specialization.generic().field())
                == (R - 1 / R) ** -N)


# -- kernels ------------------------------------------------------------------

def test_kernel_refuses_generic():
    with pytest.raises(ValueError):
        kernel(4, Specialization.generic())


@pytest.mark.parametrize("call", [
    lambda: det_T(2),
    lambda: rank_witness(4, SPEC_R, 2, [1], [1, 2]),
    lambda: det_Sn_formula_check(4),
])
def test_out_of_range_arguments_are_refused(call):
    with pytest.raises(ValueError):
        call()


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_submatrix_det_matches_field_elimination(monkeypatch, n):
    """Over Q(l, r) (n <= 5) and over Q(r) at the kernel workloads' points,
    (r^2+r+1)/(r-2) and 2*(r-1)^2/(r+1)^3/r^2 (n >= 4), submatrix_det of
    seeded random square submatrices equals linalg.det on the same entries
    of T(n), string for string, and never calls linalg.det."""
    specs = [Specialization.generic()] if n <= 5 else []
    if n >= 4:
        specs += [Specialization.l_to(l) for l in _kernel_points(n)
                  + ["(r^2+r+1)/(r-2)", "2*(r-1)^2/(r+1)^3/r^2"]]
    rng = random.Random(n)
    N = n * (n - 1) // 2
    picks = []
    for spec in specs:
        for _ in range(3):
            k = rng.randint(1, min(N, 6))
            picks.append((spec, sorted(rng.sample(range(1, N + 1), k)),
                          sorted(rng.sample(range(1, N + 1), k))))
    want = [str(linalg.det(linalg.submatrix(t_matrix(n, spec).entries,
                                            rows, cols), spec.field()))
            for spec, rows, cols in picks]

    def refuse(*args):
        raise AssertionError("eliminated in the field")

    monkeypatch.setattr(linalg, "det", refuse)
    assert [str(submatrix_det(n, spec, rows, cols))
            for spec, rows, cols in picks] == want


@pytest.mark.parametrize("n", [5, 6])
def test_nested_determinant_formula(n):
    assert det_Sn_formula_check(n)


def test_rank_witness_first_hit():
    hit = rank_witness(5, SPEC_R, 5)
    assert hit == ([1, 2, 3, 4, 7], [1, 2, 3, 4, 7])


def _scan_rank_witness(n, spec, size, row_pool, col_pool):
    """The first invertible minor by trying every one, columns outermost."""
    M = t_matrix(n, spec).entries
    for cols in itertools.combinations(sorted(col_pool), size):
        for rows in itertools.combinations(sorted(row_pool), size):
            minor = linalg.submatrix(M, rows, cols)
            if not linalg.det(minor, spec.field()).is_zero():
                return list(rows), list(cols)
    return None


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("modulus", [None, "4n"])
def test_rank_witness_matches_the_scan(n, modulus):
    rng = random.Random(n)
    N = n * (n - 1) // 2
    for l_text in _kernel_points(n):
        spec = (Specialization.l_to(l_text) if modulus is None
                else Specialization.l_to_mod(l_text, 4 * n))
        # the scan tries every minor when none is invertible, so its sizes
        # and pools are kept small
        for size in range(1, min(N, 5 if n < 5 else 3) + 1):
            pools = [(list(range(1, N + 1)), list(range(1, N + 1)))]
            for _ in range(2):
                # random pools, with repeated indices
                pools.append(tuple(
                    [rng.randint(1, N) for _ in range(rng.randint(size, 7))]
                    for _ in range(2)))
            for rows, cols in pools:
                assert (rank_witness(n, spec, size, rows, cols)
                        == _scan_rank_witness(n, spec, size, rows, cols)), (
                    l_text, size, rows, cols)


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


# -- kernels over Q(r) against the field-element oracle -----------------------

def _oracle_kernel(n, spec):
    """K(n) by two eliminations on field elements: rref of T(n), a vector
    per free column, then rref of those vectors."""
    ctx = spec.field()
    M = t_matrix(n, spec).entries
    rows, pivots = linalg.rref(M, ctx)
    basis = []
    for f in range(len(M[0])):
        if f in pivots:
            continue
        v = [ctx.zero()] * len(M[0])
        v[f] = ctx.one()
        for row, p in zip(rows, pivots):
            if not row[f].is_zero():
                v[p] = -row[f]
        basis.append(v)
    return linalg.rref(basis, ctx)[0] if basis else []


def _kernel_points(n):
    return ["r", "-r^3", "1/r^%d" % (n - 3), "-1/r^%d" % (n - 3),
            "1/r^%d" % (2 * n - 3), "r^2"]


@pytest.mark.parametrize(
    "n,l_expr",
    [(n, l) for n in (3, 4, 5, 6) for l in _kernel_points(n)]
    + [(n, l) for n in (4, 5)
       for l in ("1+r^2", "1/(r^2+1)", "3/(2*r+5)", "(r^2+r+1)/(r-2)")])
def test_kernel_over_qr_matches_the_field_oracle(n, l_expr):
    spec = Specialization.l_to(l_expr)
    assert kernel(n, spec).basis == _oracle_kernel(n, spec)


@pytest.mark.parametrize(
    "n,l_expr", [(n, l) for n in (4, 5, 6) for l in _kernel_points(n)])
def test_kernel_over_cyclotomic_fields_matches_the_field_oracle(n, l_expr):
    spec = Specialization.l_to_mod(l_expr, 4 * n)
    assert kernel(n, spec).basis == _oracle_kernel(n, spec)


PINNED_L = ["1+r^2", "1/(r^2+1)", "3/(2*r+5)", "(r^2+r+1)/(r-2)"]


def test_kernel_routes_over_qr_match_elimination(monkeypatch):
    """Over Q(r) for n = 3..8, and at n = 12 for l = 1/r^21: off the five
    roots (r^2, the pinned l, and l = r at n = 3, where its order is 0) the
    kernel is 0 and T(n) is neither built nor eliminated; at a root it is
    the rref of the verified catalogue, with the embedded ladders at -r^3,
    and T(n) is never eliminated.  Every basis equals the elimination
    oracle's, and the verdicts the ones check_membership gives."""
    oracle = linalg.kernel_basis_zr
    calls = dict.fromkeys(["kernel_basis_zr", "rref_zr", "sum_matrix_direct"],
                          0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("kernel_basis_zr", "rref_zr"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    monkeypatch.setattr(spectral, "sum_matrix_direct",
                        counted("sum_matrix_direct",
                                spectral.sum_matrix_direct))
    routes = {}
    points = [(n, spec) for n in range(3, 9)
              for spec in [_spec(eps, k) for eps, k in locus_orders(n)]
              + [Specialization.l_to(l) for l in ["r^2"] + PINNED_L]]
    for n, spec in points + [(12, _spec(1, -21))]:
        t_matrix.cache_clear()
        t_cleared.cache_clear()
        for name in calls:
            calls[name] = 0
        rep = kernel(n, spec)
        if calls["kernel_basis_zr"]:
            route = "elimination"
        elif calls["rref_zr"]:
            route = "catalogue"
            assert calls["rref_zr"] == 1
        else:
            route = "none"
            assert calls["sum_matrix_direct"] == 0
        routes.setdefault(route, []).append((n, str(spec)))
        assert rep.basis == oracle(_t_read(n, spec)), (n, spec)
        assert rep.named_verdicts() == {
            v.name: check_membership(v) for case in ALL_CASES
            for v in named_vectors(n, case, at=spec)}
    assert "elimination" not in routes
    # l = r at n = 3 has order 0, and n = 12 adds one root
    assert len(routes["catalogue"]) == 6 * 5
    assert len(routes["none"]) == 6 * 5 + 1


# points modulo Phi_M: the kernel workloads' six at M = 4n, and at n = 6, 7
# collisions of two roots (glued at M = 8, 3, 12, 14 and not at M = 16) and
# points off the locus
QUOTIENT_POINTS = (
    [(n, l, 4 * n) for n in range(3, 8) for l in _kernel_points(n)]
    + [(6, "-1/r^3", 8), (6, "r", 8), (6, "1/r^3", 12), (6, "1/r^5", 16),
       (7, "1/r^11", 3), (7, "1/r^4", 14), (7, "r^2", 5),
       (5, "(r^64+1)/(r^63-3)", 61)])


def test_kernel_routes_over_quotient_fields_match_elimination(monkeypatch):
    """Modulo Phi_M the kernel takes the route of Q(r): where l equals no
    root of the locus in the field the kernel is 0 and T(n) is not built;
    otherwise it is the rref of the verified vectors of the roots that l
    equals there, and T(n) is eliminated only when their rank falls short
    of the summed orders, which happens only where two roots collide.
    Every basis equals the elimination's, string for string, and the
    verdicts are the catalogue's at the spec."""
    oracle = linalg.kernel_basis
    calls = dict.fromkeys(["kernel_basis", "sum_matrix_direct"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "kernel_basis",
                        counted("kernel_basis", oracle))
    monkeypatch.setattr(spectral, "sum_matrix_direct",
                        counted("sum_matrix_direct",
                                spectral.sum_matrix_direct))
    routes = {}
    for n, l, m in QUOTIENT_POINTS:
        spec = Specialization.l_to_mod(l, m)
        ctx = spec.field()
        roots = spectral._roots_at(n, ctx)
        e = sum(roots.values())
        t_matrix.cache_clear()
        for name in calls:
            calls[name] = 0
        rep = kernel(n, spec)
        if not e:
            route = "none"
            assert calls["sum_matrix_direct"] == 0
        else:
            members = spectral._catalogue(n, spec)[1]
            short = linalg.rank(members, ctx) < e
            assert calls["kernel_basis"] == short, (n, l, m)
            assert len(roots) > 1 or not short
            route = "elimination" if short else "catalogue"
        routes.setdefault(route, []).append((n, l, m))
        T = _t_read(n, spec)
        assert ([[str(x) for x in v] for v in rep.basis]
                == [[str(x) for x in v] for v in oracle(T, ctx)]), (n, l, m)
        assert rep.dim == len(rep.basis)
        assert rep.named_verdicts() == spectral._catalogue(n, spec)[0] == {
            v.name: check_membership(v) for case in ALL_CASES
            for v in named_vectors(n, case, at=spec)}
    assert sorted(routes["elimination"]) == [
        (6, "-1/r^3", 8), (6, "1/r^3", 12), (6, "r", 8), (7, "1/r^11", 3),
        (7, "1/r^4", 14)]
    assert (6, "1/r^5", 16) in routes["catalogue"]
    # r^2 at every n, l = r at n = 3 (order 0), r^2 modulo Phi_5 and the
    # high-degree l modulo Phi_61
    assert len(routes["none"]) == 8


@pytest.mark.parametrize("n,l,m,dim", [(6, "-1/r^3", 8, 9),
                                       (7, "1/r^11", 3, 14),
                                       (5, "1/r^7", 5, 4)])
def test_glued_collisions_fall_back_to_elimination(monkeypatch, n, l, m,
                                                   dim):
    """Where two roots collide modulo Phi_M and their kernels are glued, so
    that det T(n) vanishes there to a higher order than the kernel's
    dimension, the verified vectors fall short of the summed orders, and
    the kernel is one elimination of T(n)."""
    calls = []
    oracle = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda *args: calls.append(1) or oracle(*args))
    spec = Specialization.l_to_mod(l, m)
    rep = kernel(n, spec)
    assert (rep.dim, len(calls)) == (dim, 1)
    assert rep.dim < sum(spectral._roots_at(n, spec.field()).values())


def test_named_vectors_in_a_field_are_the_images_there():
    """named_vectors with ctx, a field in which l has the value it has at
    `at`, builds the coordinates of the vectors over Q(r) in that field, as
    QuotientField.embed maps them."""
    for n, m in ((4, 16), (6, 24), (7, 3)):
        field = rings.QuotientField(rings.cyclotomic(m))
        for root in locus_orders(n):
            ctx = _spec(*root, m).field()
            for case in ALL_CASES:
                at = _spec(*root)
                built = named_vectors(n, case, at=at, ctx=ctx)
                assert [(v.name, v.coords) for v in built] == [
                    (v.name, {w: field.embed(c) for w, c in v.coords.items()})
                    for v in named_vectors(n, case, at=at)]


def test_the_kernel_over_qr_is_pinned_at_every_n_lk_accepts():
    assert MAX_PINNED_N >= MAX_N


def test_the_kernel_over_qr_refuses_n_past_the_certificate():
    with pytest.raises(ValueError):
        kernel(MAX_PINNED_N + 1, Specialization.l_to("r"))


@pytest.mark.parametrize("n,eps,k", [(6, 1, -3), (8, 1, -5), (8, -1, -5),
                                     (8, 1, -13)])
def test_a_catalogue_short_of_the_order_raises(monkeypatch, n, eps, k):
    """A spanning family short of the root's order breaks the proof that
    its rref is K(n); kernel raises rather than return a smaller basis.
    At these roots the family is exactly as large as the order."""
    catalogue = spectral._catalogue

    def drop_one(n, spec):
        verdicts, members = catalogue(n, spec)
        return verdicts, members[1:]

    monkeypatch.setattr(spectral, "_catalogue", drop_one)
    with pytest.raises(ArithmeticError):
        kernel(n, _spec(eps, k))


def test_kernel_matches_sympy_nullspace():
    spec = Specialization.l_to("1/r^5")
    field = sympy.QQ.frac_field(_SR)
    rows = [[field.from_sympy(_sympy_poly(e.num) / _sympy_poly(e.den))
             for e in row] for row in t_matrix(4, spec).entries]
    null = DomainMatrix(rows, (6, 6), field).nullspace()
    expected = null.rref()[0].to_Matrix()
    basis = kernel(4, spec).basis
    assert expected.shape == (len(basis), 6) == (1, 6)
    for i, v in enumerate(basis):
        for j, e in enumerate(v):
            assert _same(expected[i, j], e)


# -- one cleared T(n) over Z[r]: membership and its shortcuts -----------------

@pytest.mark.parametrize(
    "n,l_expr",
    [(n, l) for n in (4, 5, 6) for l in _kernel_points(n)]
    + [(n, l) for n in (4, 5) for l in PINNED_L]
    + [(4, "generic"), (5, "generic"), (8, "r^2")])
def test_det_from_the_cleared_rows_matches_field_elimination(n, l_expr):
    """det_T, Bareiss on the cleared rows over Q(l, r) and the closed form
    over Q(r), equals field elimination."""
    spec = (Specialization.generic() if l_expr == "generic"
            else Specialization.l_to(l_expr))
    assert det_T(n, spec) == linalg.det(t_matrix(n, spec).entries,
                                        spec.field())


def _oracle_annihilates(n, spec, v):
    """T(n) v = 0 by mat_vec over field elements."""
    return linalg.is_zero_vector(linalg.mat_vec(t_matrix(n, spec).entries, v))


def _agrees(n, spec, v):
    expected = _oracle_annihilates(n, spec, v)
    assert _annihilates(_t_read(n, spec), spec, v) == expected
    return expected


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_integer_membership_matches_the_field_oracle(n):
    one = FieldElement.from_int(1)
    scale = (R ** 2 + 1) / (2 * R - 3)
    rng = random.Random(n)
    for case in ALL_CASES:
        for named in named_vectors(n, case):
            if named.spec.is_quotient:
                continue
            spec, v = named.spec, named.vector()
            assert _agrees(n, spec, v), named.name
            # non-monomial denominators in every nonzero entry
            assert _agrees(n, spec, [e * scale for e in v]), named.name
            j = rng.choice([j for j, e in enumerate(v) if not e.is_zero()])
            for bent in (v[j] * R, v[j] + one):
                w = list(v)
                w[j] = bent
                _agrees(n, spec, w)


def _one_row_witness(n, spec, i):
    """A vector that T(n) without row i annihilates; at a point where T(n)
    is invertible, T(n) sends it to a multiple of the i-th unit vector."""
    rows = [row for k, row in enumerate(_t_read(n, spec)) if k != i]
    basis = linalg.kernel_basis_zr(rows)
    assert len(basis) == 1
    return basis[0]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("l_expr", PINNED_L + ["r^2"])
def test_integer_membership_reads_every_row(n, l_expr):
    spec = Specialization.l_to(l_expr)
    N = n * (n - 1) // 2
    for i in range(N):
        v = _one_row_witness(n, spec, i)
        assert not _agrees(n, spec, v), i


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("l_expr", PINNED_L)
def test_integer_membership_at_the_pinned_l(n, l_expr):
    """Random vectors; K(n) is 0 at these l, so no kernel vector exists."""
    spec = Specialization.l_to(l_expr)
    rng = random.Random(n)
    N = n * (n - 1) // 2
    assert kernel(n, spec).dim == 0
    for _ in range(10):
        v = [FieldElement.from_int(0)] * N
        for j in rng.sample(range(N), rng.randint(1, N)):
            v[j] = (R ** rng.randint(-3, 3) * rng.randint(-5, 5)
                    + FieldElement.from_int(rng.randint(-2, 2)) / (R + 2))
        _agrees(n, spec, v)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_integer_membership_on_kernel_combinations(n):
    """Kernel members at the locus roots with non-monomial coefficients."""
    rng = random.Random(n)
    for l_expr in _kernel_points(n):
        spec = Specialization.l_to(l_expr)
        basis = kernel(n, spec).basis
        if not basis:
            continue
        v = [FieldElement.from_int(0)] * len(basis[0])
        for b in basis:
            c = (R + rng.randint(1, 4)) / (R ** 2 + rng.randint(1, 4))
            v = [x + c * y for x, y in zip(v, b)]
        assert _agrees(n, spec, v), l_expr


def _fold_clear_row(row):
    """_clear_row as a fold over every entry, repeated denominators
    included."""
    lcm = Poly2.one()
    for e in row:
        lcm = lcm.divexact(lcm.gcd(e.den)) * e.den
    return [e.num * lcm.divexact(e.den) for e in row], lcm


def _clear_rows_under_test():
    rows = []
    for spec in [Specialization.generic()] + [Specialization.l_to(l)
                                              for l in PINNED_L]:
        rows += t_matrix(5, spec).entries
    a, b = R ** 2 + 1, R - 3
    rows += [[1 / a, R / a, R ** -2, 3 / R, 2 / b, R ** 3 / (a * b), 1 / a],
             [R ** -3, R ** -1, R ** -3, FieldElement.from_int(0)],
             [1 / (2 * R + 5), R / (2 * R + 5), 1 / (2 * R + 5)]]
    return rows


def test_clear_row_matches_the_per_entry_fold():
    """(ladders, scale): the row times scale as integer ladders, and scale
    the fold's lcm times one positive rational constant c.  The fold
    divides its lcm by the leading coefficient of the primitive form of a
    denominator each time that denominator repeats, so c is an integer, the
    lcm of the coefficient denominators of the fold's cleared row, whenever
    every denominator has integer coefficients."""
    for row in _clear_rows_under_test():
        ladders, scale = _clear_row(row)
        fold_cleared, fold_lcm = _fold_clear_row(row)
        c = Fraction(scale.leading_coeff(), fold_lcm.leading_coeff())
        assert c > 0 and scale == fold_lcm.scale(c)
        assert all(type(x) is int for e in ladders for v in e for x in v)
        cleared = [Poly2(_from_ll(e)) for e in ladders]
        assert cleared == [p.scale(c) for p in fold_cleared]
        if all(q.denominator == 1 for e in row for q in e.den.terms.values()):
            assert c == math.lcm(*(Fraction(q).denominator
                                   for p in fold_cleared
                                   for q in p.terms.values()))
        for e, p in zip(row, cleared):
            assert p * e.den == e.num * scale


@pytest.mark.parametrize("l_expr,monomial", [("1/r^7", True),
                                             ("(r^2+r+1)/(r-2)", False)])
def test_clear_row_reduces_through_field_elements(monkeypatch, l_expr,
                                                   monomial):
    """The lcm and the quotients of _clear_row are FieldElement
    reductions: no Poly2.gcd or Poly2.divexact, and where every
    denominator is a monomial only degree shifts, so no ladder gcd."""
    rows = t_matrix(5, Specialization.l_to(l_expr)).entries
    calls = {"gcd": 0, "divexact": 0, "_prs_gcd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gcd", "divexact"):
        monkeypatch.setattr(Poly2, name, counted(name, getattr(Poly2, name)))
    monkeypatch.setattr(rings, "_prs_gcd",
                        counted("_prs_gcd", rings._prs_gcd))
    for row in rows:
        _clear_row(row)
    assert calls["gcd"] == calls["divexact"] == 0
    if monomial:
        assert calls["_prs_gcd"] == 0


def _cyclotomic_points(n):
    return [Specialization.l_to_mod(l, 4 * n) for l in _kernel_points(n)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_named_vectors_at_a_specialization(n):
    specs = ([Specialization.l_to(l) for l in _kernel_points(n)]
             + _cyclotomic_points(n) + [Specialization.generic()])
    if n == 3:
        specs.append(Specialization.l_to_mod("-r^3", 12))
    for case in ALL_CASES:
        every = named_vectors(n, case)
        for spec in specs:
            got = named_vectors(n, case, at=spec)
            assert ([(v.name, v.coords) for v in got]
                    == [(v.name, v.coords) for v in every if v.spec == spec])


def test_every_catalogued_coordinate_is_pinned():
    """Names, order, specs and coordinates of the whole catalogue for
    n = 3..12, against the sha256 of its JSON form."""
    rows = [[n, case, v.name, str(v.spec), [str(e) for e in v.vector()]]
            for n in range(3, 13) for case in ALL_CASES
            for v in named_vectors(n, case)]
    blob = json.dumps(rows, sort_keys=True).encode("utf-8")
    assert len(rows) == 515
    assert hashlib.sha256(blob).hexdigest() == (
        "4af81adf639329af3acf365a404e0c8c7b12dce653a455f7869c01b0fca2f172")


def test_named_vectors_elsewhere_build_no_coordinates(monkeypatch):
    from lkbmw import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("built at another specialization")

    for name in ("_coords", "geometric_coords", "row_span_coords",
                 "tower_coords", "ladder_coords"):
        monkeypatch.setattr(spectral, name, refuse)
    monkeypatch.setattr(spectral.Specialization, "l_to_mod", refuse)
    at = Specialization.l_to("r^2")
    for n in (3, 4, 5, 8):
        for case in ALL_CASES:
            assert named_vectors(n, case, at=at) == []


def test_t_cleared_is_bounded_and_shared():
    """kernel, the membership check and rank_witness at one point clear
    T(n) once, and det_T there clears nothing."""
    assert t_cleared.cache_info().maxsize == 8
    spec = Specialization.l_to("-r^3")
    t_cleared.cache_clear()
    assert det_T(5, spec).is_zero()
    assert t_cleared.cache_info().misses == 0
    rep = kernel(5, spec)
    assert rep.named_verdicts() and all(rep.named_verdicts().values())
    rank_witness(5, spec, 4)
    info = t_cleared.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_reports_keep_their_matrix_past_the_caches(monkeypatch):
    # 48 reports, six times the caches' size, over Q(r) and modulo Phi_4n:
    # the later ones evict the earlier ones' T(n), and no report may build
    # it again
    from lkbmw import spectral

    reports = [kernel(n, Specialization.l_to(l))
               for n in (4, 5, 6, 7) for l in _kernel_points(n)]
    reports += [kernel(n, spec) for n in (4, 5, 6, 7)
                for spec in _cyclotomic_points(n)]
    before = [rep.named_verdicts() for rep in reports]
    t_matrix.cache_clear()
    t_cleared.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("T(n) rebuilt")

    monkeypatch.setattr(spectral, "sum_matrix_direct", refuse)
    assert [rep.named_verdicts() for rep in reports] == before
    # each locus root has catalogued vectors, all in its kernel; r^2 has
    # none, and modulo Phi_4n only -r^3 has the root-of-unity vectors
    assert [bool(v) for v in before] == (([True] * 5 + [False]) * 4
                                         + [False, True, *[False] * 4] * 4)
    assert all(all(v.values()) for v in before)
