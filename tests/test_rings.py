"""Exact arithmetic: canonical forms, specialization, cyclotomics."""

import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from lkbmw.rings import (FE_ONE, FE_ZERO, ExactDivisionError,
                         ExpressionError, FieldElement, NonInvertibleError,
                         PoleError, Poly2, QuotientField,
                         Specialization, cyclotomic, fe_m, fe_x_of,
                         is_semisimple_point, parse_r_expression, specialize)
from lkbmw.linalg import bareiss_det_poly
from lkbmw.spectral import det_T, t_matrix

R = FieldElement.r()
L = FieldElement.l()


def test_m_is_one_over_r_minus_r():
    assert fe_m() == R.inverse() - R
    assert str(fe_m()) == "(1 - r^2)/(r)"


def test_x_specializes_to_minus_r2_minus_inv_r2_at_l_neg_r3():
    x = fe_x_of(L, fe_m())
    s = Specialization.l_to(-(R ** 3))
    assert specialize(x, s) == -(R ** 4 + FE_ONE) / R ** 2


def test_x_specializes_to_two_at_l_r():
    x = fe_x_of(L, fe_m())
    assert specialize(x, Specialization.l_to(R)) == FieldElement.from_int(2)


def test_inverse_law():
    a = (L ** 2 - R) / (L * R ** 3)
    assert a * a.inverse() == FE_ONE
    assert a / a == FE_ONE


def test_identity_specialization():
    a = L * R
    assert specialize(a, Specialization.generic()) == a


def test_r8_reduces_to_minus_one_mod_phi16():
    s = Specialization.l_to_mod(-(R ** 3), 16)
    f = s.field()
    assert f.r_pow(8) == f.from_int(-1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FE_ONE / FE_ZERO
    with pytest.raises(ZeroDivisionError):
        FE_ZERO.inverse()


def test_pole_error_names_denominator():
    a = FE_ONE / (L - R)
    with pytest.raises(PoleError):
        specialize(a, Specialization.l_to(R))


def test_quotient_pole_raises_pole_error():
    for l_value, m in (("1/(r^2+1)", 4), ("1/(r-1)", 1)):
        with pytest.raises(PoleError, match="vanishes modulo"):
            Specialization.l_to_mod(l_value, m)
    with pytest.raises(PoleError, match="vanishes modulo"):
        specialize(FE_ONE / (R * R + 1), Specialization.l_to_mod(R, 4))


def test_non_invertible_in_reducible_quotient_names_gcd():
    # r^2 - 1 is reducible; r - 1 is a zero divisor there
    modulus = Poly2({(0, 2): 1, (0, 0): -1})
    fld = QuotientField(modulus)
    elem = fld.element([-1, 1])
    with pytest.raises(NonInvertibleError) as err:
        elem.inverse()
    assert err.value.gcd is not None


# -- canonical form ----------------------------------------------------------

def test_canonical_idempotence():
    elems = [fe_m(), fe_x_of(L, fe_m()), (L ** 2 - R) / (L * R ** 3),
             FieldElement.from_rational(-3, 7) * R - L]
    for a in elems:
        again = FieldElement(a.num, a.den)
        assert again.num == a.num and again.den == a.den


def test_denominator_is_monic_in_lex_order():
    a = FE_ONE / (FieldElement.from_int(2) * R - FieldElement.from_int(2))
    assert a.den.leading_coeff() == 1


def test_equality_agrees_with_cross_multiplication():
    a = (R ** 2 - FE_ONE) / (R + FE_ONE)
    b = R - FE_ONE
    assert a == b
    assert a.num * b.den == b.num * a.den


_coef = st.integers(min_value=-9, max_value=9)


def _small_poly(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), _coef),
        min_size=0, max_size=4))
    return Poly2({(a, b): c for a, b, c in terms if c})


def _element(np, dp, k):
    # dp + k is the zero polynomial when dp is the constant -k
    den = dp + Poly2.monomial(0, 0, k)
    assume(not den.is_zero())
    return FieldElement(np, den)


_elt = st.builds(
    _element, st.composite(_small_poly)(), st.composite(_small_poly)(),
    st.integers(1, 3))


@given(a=_elt, b=_elt)
@settings(max_examples=60, deadline=None)
def test_specialize_is_a_ring_homomorphism(a, b):
    s = Specialization.l_to(-(R ** 3))
    assert specialize(a + b, s) == specialize(a, s) + specialize(b, s)
    assert specialize(a * b, s) == specialize(a, s) * specialize(b, s)


@given(a=_elt)
@settings(max_examples=60, deadline=None)
def test_field_axioms_on_random_elements(a):
    assert a + FE_ZERO == a
    assert a * FE_ONE == a
    assert a - a == FE_ZERO
    if not a.is_zero():
        assert a * a.inverse() == FE_ONE


# -- gcd in Q[l, r] against sympy ---------------------------------------------

_PL, _PR, _P1 = Poly2.var_l(), Poly2.var_r(), Poly2.one()
_BIG = 3 ** 40 + 2  # above 2^53, where a float quotient loses digits


def test_gcd_with_coefficients_above_float_precision():
    f = _PL.scale(_BIG) + _P1
    r1 = _PR + _P1
    a = f * (_PL + Poly2.const(3)) * r1
    b = f * (_PL + Poly2.const(5)) * r1
    assert a.gcd(b) == f * r1
    e = FieldElement(a, b)
    assert (e.num, e.den) == (_PL + Poly2.const(3), _PL + Poly2.const(5))
    # the same in Z[r] alone
    g = _PR.scale(_BIG) - Poly2.const(_BIG - 1)
    a = g * (_PR + Poly2.const(3)) * (_PR - _P1.scale(2 ** 60))
    b = g * (_PR.scale(5) + _P1) * _PR
    assert a.gcd(b) == g


def test_divexact_of_int_coefficients_is_exact():
    """Int coefficients divide over Q, not as floats."""
    assert str(Poly2({(0, 1): 3}).divexact(Poly2({(0, 0): 2}))) == "3/2*r"
    q = Poly2({(0, 1): _BIG * _BIG}).divexact(Poly2({(0, 0): _BIG}))
    assert q == Poly2({(0, 1): _BIG})


_SL = sympy.Symbol("l")
_gcd_coef = st.one_of(
    st.integers(-9, 9), st.integers(2 ** 53, 2 ** 70),
    st.integers(-2 ** 70, -2 ** 53), st.fractions(-9, 9, max_denominator=7))


@st.composite
def _gcd_factor(draw, r_only):
    terms = draw(st.lists(
        st.tuples(st.integers(0, 0 if r_only else 2), st.integers(0, 3),
                  _gcd_coef),
        min_size=0, max_size=4))
    return Poly2({(a, b): Fraction(c) for a, b, c in terms})


@st.composite
def _gcd_pair(draw):
    """Two polynomials with a shared factor; zero and constant factors
    included, and r-only pairs among them.  In half the pairs one argument,
    first or second, is a monomial in the PRS's main variable: c l^k u(r),
    or c r^k when the pair is r-only."""
    r_only = draw(st.booleans())
    f, g, h = (draw(_gcd_factor(r_only)) for _ in range(3))
    if not draw(st.booleans()):
        return f * g, f * h
    k, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if r_only:
        mono, other = _PR ** k, _PR ** j * h
    else:
        u, w = draw(_gcd_factor(True)), draw(_gcd_factor(True))
        mono, other = _PL ** k * u * w, _PL ** j * u * h
    mono = mono.scale(draw(_gcd_coef))
    return (mono, other) if draw(st.booleans()) else (other, mono)


def _to_sympy(p):
    return sympy.Poly.from_dict(
        {k: sympy.Rational(c.numerator, c.denominator)
         for k, c in p.terms.items()}, _SL, _SR, domain=sympy.QQ)


@given(pair=_gcd_pair())
@settings(max_examples=160, deadline=None)
def test_gcd_matches_sympy(pair):
    a, b = pair
    g = a.gcd(b)
    sg, ref = _to_sympy(g), sympy.gcd(_to_sympy(a), _to_sympy(b))
    if ref.is_zero:
        assert g.is_zero()
        return
    # equal up to a rational unit
    assert sg * ref.LC() == ref * sg.LC()
    # primitive over Z with a positive lex-leading coefficient
    coeffs = list(g.terms.values())
    assert all(Fraction(c).denominator == 1 for c in coeffs)
    assert math.gcd(*(int(c) for c in coeffs)) == 1
    assert g.leading_coeff() > 0
    # both cofactors are exact
    for p in (a, b):
        assert p.divexact(g) * g == p


@st.composite
def _divexact_pair(draw):
    """A dividend and a nonzero divisor, both r-only or both bivariate.  The
    divisor is scaled by a drawn coefficient, so it is rarely primitive over
    Z; in half the pairs the dividend is a multiple of it plus a drawn
    remainder."""
    r_only = draw(st.booleans())
    a, b = draw(_gcd_factor(r_only)), draw(_gcd_factor(r_only))
    assume(not b.is_zero())
    b = b.scale(draw(_gcd_coef.filter(bool)))
    if draw(st.booleans()):
        a = a * b + draw(_gcd_factor(r_only))
    return a, b


@given(pair=_divexact_pair())
# l / (2l + r): only the leading coefficients show the division inexact
@example(pair=(_PL, _PL.scale(2) + _PR))
@settings(max_examples=160, deadline=None)
def test_divexact_matches_sympy(pair):
    a, b = pair
    assert (a * b).divexact(b) == a
    # one polynomial is a Groebner basis of its ideal, so sympy's remainder
    # is zero exactly when b divides a
    q, rem = sympy.div(_to_sympy(a), _to_sympy(b))
    if rem.is_zero:
        assert _to_sympy(a.divexact(b)) == q
    else:
        with pytest.raises(ExactDivisionError):
            a.divexact(b)


def _from_sympy(p):
    return Poly2({k: Fraction(int(c.p), int(c.q)) for k, c in p.terms()})


@pytest.mark.parametrize("n,expected", [(4, "1"), (5, "r^2")])
def test_gcd_of_cleared_det_numerator_matches_sympy(n, expected):
    """The one gcd that reduces det T(n): the numerator of the rows cleared
    by their lcms against the lcms' product, a power of l times a
    polynomial in r."""
    rows, den = [], _P1
    for row in t_matrix(n, Specialization.generic()).entries:
        lcm = _from_sympy(functools.reduce(
            sympy.lcm, (_to_sympy(e.den) for e in row)))
        rows.append([e.num * lcm.divexact(e.den) for e in row])
        den = den * lcm
    num = bareiss_det_poly(rows)
    g = num.gcd(den)
    sg, ref = _to_sympy(g), sympy.gcd(_to_sympy(num), _to_sympy(den))
    assert str(g) == expected
    assert sg * ref.LC() == ref * sg.LC()
    assert FieldElement(num, den) == det_T(n)


# -- cyclotomics --------------------------------------------------------------

def test_first_cyclotomics():
    r = Poly2.var_r()
    one = Poly2.one()
    assert cyclotomic(1) == r - one
    assert cyclotomic(12) == Poly2({(0, 4): 1, (0, 2): -1, (0, 0): 1})
    assert cyclotomic(16) == Poly2({(0, 8): 1, (0, 0): 1})


def _totient(m):
    count = 0
    for k in range(1, m + 1):
        a, b = k, m
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


@pytest.mark.parametrize("m", list(range(1, 65)))
def test_cyclotomic_divides_r_m_minus_one_and_degree(m):
    phi = cyclotomic(m)
    rm = Poly2({(0, m): 1, (0, 0): -1})
    q = rm.divexact(phi)
    assert q * phi == rm
    assert phi.degree_r() == _totient(m)


def test_modulus_with_non_integer_coefficients_is_refused():
    half = Poly2({(0, 2): 1, (0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        QuotientField(half)
    with pytest.raises(ValueError):
        Specialization.l_to_mod(R, half)


# -- CycElement against sympy's arithmetic in QQ[r]/(Phi_m) -------------------

_SR = sympy.Symbol("r")


def _sym_poly(coeffs):
    """A sympy polynomial over QQ from Fractions, constant term first."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)] or [0], _SR,
                      domain=sympy.QQ)


def _fractions(p):
    """The coefficients of a sympy polynomial, constant term first,
    trimmed."""
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return out


def _agrees(elem, p):
    """Assert that elem is canonical and has the coefficients of p."""
    num, den = elem.num, elem.den
    assert den > 0 and (not num or num[-1])
    assert math.gcd(den, *num) == 1
    assert len(num) <= elem.field.degree
    assert [Fraction(c, den) for c in num] == _fractions(p)
    text = str(Poly2({(0, i): c for i, c in enumerate(_fractions(p))}))
    assert str(elem) == text


@pytest.mark.parametrize("m", [4, 12, 16, 20, 24, 28])
def test_cyc_element_matches_sympy(m):
    rng = random.Random(m)
    fld = QuotientField(cyclotomic(m))
    phi = sympy.Poly(sympy.cyclotomic_poly(m, _SR), _SR, domain=sympy.QQ)

    def draw():
        # up to twice the degree, so that element() must reduce
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(rng.randint(0, 2 * fld.degree))]
        return fld.element(coeffs), _sym_poly(coeffs).rem(phi)

    for _ in range(12):
        (a, pa), (b, pb) = draw(), draw()
        _agrees(a, pa)
        _agrees(b, pb)
        _agrees(a + b, pa + pb)
        _agrees(a - b, pa - pb)
        _agrees(-a, -pa)
        _agrees(a * b, (pa * pb).rem(phi))
        _agrees(a ** 3, (pa ** 3).rem(phi))
        assert (a == b) == (pa == pb)
        assert a - a == fld.zero() and a + fld.zero() == a
        if not pb.is_zero:
            inv = sympy.invert(pb, phi)
            _agrees(b.inverse(), inv)
            _agrees(b ** -2, (inv ** 2).rem(phi))
            _agrees(a / b, (pa * inv).rem(phi))
            # a canonical form: a different route gives an equal element
            # with an equal hash
            back = (a * b) / b
            assert back == a and hash(back) == hash(a)


@pytest.mark.parametrize("m,l_text", [(16, "-r^3"), (28, "1/r^11"),
                                      (12, "(2*r + 3)/(r^2 - 5)")])
def test_quotient_context_constants_match_fresh_values(m, l_text):
    l_value = parse_r_expression(l_text)
    s = Specialization.l_to_mod(l_value, m)
    ctx = s.field()
    assert s.field() is ctx
    fld = QuotientField(cyclotomic(m))
    for k in range(-15, 16):
        assert ctx.r_pow(k) == fld.embed(FieldElement.r_pow(k)), k
    assert ctx.l() == fld.embed(l_value)
    assert ctx.l_inv() == fld.embed(l_value.inverse())
    assert ctx.m() == fld.embed(fe_m())
    assert ctx.x() == specialize(fe_x_of(L, fe_m()), s)


@pytest.mark.parametrize("m", [4, 7, 12, 16, 20])
def test_quotient_root_order(m):
    fld = QuotientField(cyclotomic(m))
    r = fld.element([0, 1])
    one = fld.one()
    p = one
    for d in range(1, m):
        p = p * r
        assert p != one, (m, d)
    assert p * r == one


# -- semisimple points --------------------------------------------------------

def test_semisimple_generic():
    assert is_semisimple_point(Specialization.generic(), 100) == (True, None)


def test_semisimple_phi16():
    s = Specialization.l_to_mod(-(R ** 3), 16)
    assert is_semisimple_point(s, 8) == (False, 8)
    assert is_semisimple_point(s, 7) == (True, None)


def test_semisimple_phi12():
    s = Specialization.l_to_mod(-(R ** 3), 12)
    assert is_semisimple_point(s, 5) == (True, None)
    assert is_semisimple_point(s, 6) == (False, 6)


# -- the expression parser ----------------------------------------------------

def test_parser_examples():
    assert parse_r_expression("1/r - r") == fe_m()
    assert parse_r_expression("-r^3") == -(R ** 3)
    assert parse_r_expression("(1 - r^2)/r") == fe_m()
    assert parse_r_expression("2") == FieldElement.from_int(2)


def test_parser_rejects_garbage():
    for bad in ("l", "r +", "(r", "r^x", "q"):
        with pytest.raises(ExpressionError):
            parse_r_expression(bad)


def test_parser_caps_exponents_and_degrees(monkeypatch):
    assert parse_r_expression("r^64") == R ** 64
    assert parse_r_expression("1/r^0064") == R ** -64
    assert parse_r_expression("(r^2)^32").num.degree_r() == 64

    power = FieldElement.__pow__

    def capped_power(base, k):
        degree = max(base.num.degree_r(), base.den.degree_r())
        assert abs(k) * degree <= 64, "a power above the cap was computed"
        return power(base, k)

    monkeypatch.setattr(FieldElement, "__pow__", capped_power)
    for bad in ("r^65", "r^999999", "1/r^65", "(r^2)^33", "(1 - r^3)^22",
                "r^" + "9" * 5000, "9" * 5000):
        with pytest.raises(ExpressionError):
            parse_r_expression(bad)
    monkeypatch.undo()
    for bad in ("r^64*r", "1/r^64/r", "r^40 + 1/r^40",
                "1/(r^40 + 1) + 1/(r^40 - 1)"):
        with pytest.raises(ExpressionError):
            parse_r_expression(bad)


def test_parser_caps_nesting():
    # nesting levels count parentheses and unary signs together
    assert parse_r_expression("(" * 64 + "r" + ")" * 64) == R
    assert parse_r_expression("-" * 64 + "r") == R
    assert parse_r_expression("-(" * 32 + "r" + ")" * 32) == R
    for bad in ("(" * 65 + "r" + ")" * 65, "-" * 65 + "r",
                "-(" * 32 + "-r" + ")" * 32, "+" * 65 + "r"):
        with pytest.raises(ExpressionError, match="nested deeper"):
            parse_r_expression(bad)
