"""Exact arithmetic: canonical forms, specialization, cyclotomics."""

import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from lkbmw import rings
from lkbmw.rings import (FE_ONE, FE_ZERO, ExactDivisionError,
                         ExpressionError, FieldElement, NonInvertibleError,
                         PoleError, Poly2, QuotientField,
                         Specialization, cyclotomic, fe_m, fe_x_of,
                         parse_r_expression, specialize)
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
    with pytest.raises(ZeroDivisionError):
        Poly2.var_r().divexact(Poly2.zero())
    with pytest.raises(ZeroDivisionError):
        FieldElement(Poly2.var_r(), Poly2.zero())
    with pytest.raises(ZeroDivisionError):
        QuotientField(cyclotomic(8)).zero().inverse()


def test_reprs_hash_and_int_operands():
    fld = QuotientField(cyclotomic(8))
    assert repr(Poly2.var_r()) == "Poly2(r)"
    assert repr(R / 2) == "FieldElement(1/2*r)"
    assert repr(1 - R) == "FieldElement(1 - r)"
    assert repr(fld) == "QuotientField(1 + r^4)"
    assert repr(fld.element([0, 1])) == "CycElement(r)"
    assert repr(Specialization.l_to("r")) == "Specialization(l=r)"
    assert hash(fld) == hash(QuotientField(cyclotomic(8)))


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
    """The gcd is primitive in Z[r] with a positive leading coefficient."""
    # r^2 - 1 is reducible; r - 1 is a zero divisor there
    r2_minus_1 = Poly2({(0, 2): 1, (0, 0): -1})
    for modulus, coeffs, gcd in [
            (r2_minus_1, [-1, 1], [-1, 1]),
            (r2_minus_1, [-3, 3], [-1, 1]),
            (cyclotomic(3) * cyclotomic(4), [2, 0, 2], [1, 0, 1])]:
        fld = QuotientField(modulus)
        with pytest.raises(NonInvertibleError) as err:
            fld.element(coeffs).inverse()
        assert err.value.gcd == Poly2({(0, i): c
                                       for i, c in enumerate(gcd) if c})


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


def _general_route(num, den):
    """The reduced element num/den, as arithmetic without fast paths
    builds it."""
    return FieldElement(num, den, reduce=True)


@given(x=_elt)
@settings(max_examples=80, deadline=None)
def test_zero_and_one_operands_match_the_general_route(x):
    z, o = FE_ZERO, FE_ONE
    cases = [
        (x + z, _general_route(x.num * z.den + z.num * x.den, x.den * z.den)),
        (z + x, _general_route(z.num * x.den + x.num * z.den, z.den * x.den)),
        (x - z, _general_route(x.num * z.den - z.num * x.den, x.den * z.den)),
        (z - x, _general_route(z.num * x.den - x.num * z.den, z.den * x.den)),
        (x * o, _general_route(x.num * o.num, x.den * o.den)),
        (o * x, _general_route(o.num * x.num, o.den * x.den)),
        (x * z, _general_route(x.num * z.num, x.den * z.den)),
        (z * x, _general_route(z.num * x.num, z.den * x.den)),
    ]
    for got, want in cases:
        assert got.num == want.num and got.den == want.den
        assert str(got) == str(want)
        assert hash(got) == hash(want)


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
    to integers, by their lcms and then by the lcms of the coefficient
    denominators left, against the product of these scales, a power of l
    times a polynomial in r."""
    rows, den = [], _P1
    for row in t_matrix(n, Specialization.generic()).entries:
        lcm = _from_sympy(functools.reduce(
            sympy.lcm, (_to_sympy(e.den) for e in row)))
        cleared = [e.num * lcm.divexact(e.den) for e in row]
        k = math.lcm(*(Fraction(c).denominator
                       for p in cleared for c in p.terms.values()))
        rows.append([rings._ladder(p.scale(k).terms)[0] for p in cleared])
        den = den * lcm.scale(k)
    num = bareiss_det_poly(rows)
    g = num.gcd(den)
    sg, ref = _to_sympy(g), sympy.gcd(_to_sympy(num), _to_sympy(den))
    assert str(g) == expected
    assert sg * ref.LC() == ref * sg.LC()
    assert FieldElement(num, den) == det_T(n)


# -- integer coefficients: an integral coefficient is always an int ----------

def _assert_int_or_q(p):
    """Every coefficient of p is exactly an int when it is integral and a
    _Q otherwise; never a float or a bool."""
    for c in p.terms.values():
        if type(c) is not int:
            assert type(c) is rings._Q and c.denominator != 1, repr(c)


def test_integral_coefficients_are_stored_as_ints():
    k = (1, 2)
    for two in (Fraction(2), 2, Fraction(4, 2)):
        p = Poly2({k: two})
        assert type(p.terms[k]) is int
        assert p == Poly2({k: 2}) and hash(p) == hash(Poly2({k: 2}))
        assert str(p) == "2*l*r^2"
    assert type(Poly2({k: True}).terms[k]) is int
    assert Poly2({k: Fraction(0)}).is_zero()
    half = Poly2({k: Fraction(1, 2)})
    assert type(half.terms[k]) is rings._Q and str(half) == "1/2*l*r^2"
    with pytest.raises(AttributeError):
        Poly2({k: 0.5})


_NONINTEGRAL_R = ["3/(2*r+5)", "(r^2+r+1)/(r-2)", "1/(r^2+1)", "r/2 - 1/3",
                  "(2*r + 3)/(r^2 - 5)", "-r^3", "1/r^7"]


@given(a=_gcd_factor(False), b=_gcd_factor(False),
       c=_gcd_coef.filter(bool), text=st.sampled_from(_NONINTEGRAL_R))
@settings(max_examples=80, deadline=None)
def test_every_result_keeps_ints_for_integral_coefficients(a, b, c, text):
    value = parse_r_expression(text)
    polys = [a + b, a - b, -a, a * b, a.scale(c), a.scale(Fraction(c)),
             a.gcd(b), value.num, value.den]
    if not b.is_zero():
        x, y = FieldElement(a, b), FieldElement(b + Poly2.const(c), b)
        elems = [x, y, x + y, x - y, x * y]
        if not y.is_zero():
            elems += [y.inverse(), x / y]
        try:
            elems.append(x.subs_l(value))
        except PoleError:
            pass
        polys += [(a * b).divexact(b)]
        polys += [p for e in elems for p in (e.num, e.den)]
    for p in polys:
        _assert_int_or_q(p)


def _reduce_by_gcd(num, den):
    """num / den in canonical form by the route _fe_reduce's gcd branch
    replaced: Poly2.gcd, then one Poly2.divexact per side."""
    g = num.gcd(den)
    num, den = num.divexact(g), den.divexact(g)
    inv = Fraction(1) / den.leading_coeff()
    return num.scale(inv), den.scale(inv)


@st.composite
def _reducible_pair(draw):
    """num = f g and den = f h, with g and h of two or more terms, so that
    neither side is a monomial and the reduction takes the gcd branch; in
    half the pairs every coefficient is an integer."""
    coef = _gcd_coef if draw(st.booleans()) else st.integers(-9, 9)
    key = st.tuples(st.integers(0, 2), st.integers(0, 3))

    def poly(min_size):
        terms = draw(st.dictionaries(key, coef.filter(bool),
                                     min_size=min_size, max_size=4))
        return Poly2({k: Fraction(c) for k, c in terms.items()})

    return poly(1) * poly(2), poly(1) * poly(2)


def _sympy_cancel(num, den):
    """sympy's reduced num/den with the denominator's lex-leading
    coefficient 1."""
    p, q = _to_sympy(num).cancel(_to_sympy(den), include=True)
    return p.quo_ground(q.LC()), q.quo_ground(q.LC())


@given(pair=_reducible_pair())
@settings(max_examples=120, deadline=None)
def test_fused_reduction_matches_gcd_divexact_and_sympy(pair):
    num, den = pair
    got = rings._fe_reduce(num, den)
    assert got == _reduce_by_gcd(num, den)
    want = _sympy_cancel(num, den)
    assert (_to_sympy(got[0]), _to_sympy(got[1])) == want
    for p in got:
        _assert_int_or_q(p)


def test_gcd_branch_ladders_each_side_once(monkeypatch):
    calls = []
    ladder = rings._ladder

    def counted(d):
        calls.append(d)
        return ladder(d)

    monkeypatch.setattr(rings, "_ladder", counted)
    f = Poly2({(1, 0): 1, (0, 1): 3})
    num = f * Poly2({(0, 2): 2, (1, 0): Fraction(1, 3)})
    den = f * Poly2({(1, 1): 1, (0, 0): 5})
    got = rings._fe_reduce(num, den)
    assert len(calls) == 2
    assert got == (Poly2({(0, 2): 2, (1, 0): Fraction(1, 3)}),
                   Poly2({(1, 1): 1, (0, 0): 5}))



def _random_r_poly(rng):
    """A random polynomial in r with small rational coefficients, times
    random powers of r, r - 1 and r + 1."""
    p = FieldElement(Poly2({(0, i): Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 4))
                            for i in range(rng.randint(0, 3))}))
    if p.is_zero():
        p = FE_ONE
    for lin in (R, R - 1, R + 1):
        p = p * lin ** rng.randint(0, 2)
    return p


def test_coprime_product_is_the_field_product_with_no_gcd(monkeypatch):
    """fe_coprime_product of det T(n)'s factors at l = a/b, l - eps r^k and
    l (r - 1/r), equals the product of field elements: r, r - 1 and r + 1
    cancel across the line, as do the copies of b on both sides."""
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        l = _random_r_poly(rng) / _random_r_poly(rng)
        factors = [(l - eps * FieldElement.r_pow(k), rng.randint(0, 3))
                   for eps in (1, -1) for k in (-2, 0, 1, 3)]
        factors.append((l * (R - 1 / R), -rng.randint(0, 6)))
        want = FE_ONE
        for f, e in factors:
            if e:
                want = want * f ** e
        cases.append((factors, want))

    def refuse(*args, **kwargs):
        raise AssertionError("gcd taken")

    monkeypatch.setattr(rings, "_prs_gcd", refuse)
    for factors, want in cases:
        assert rings.fe_coprime_product(factors) == want


def test_coprime_product_of_zero():
    assert rings.fe_coprime_product([(FE_ZERO, 0), (R, 1)]) == R
    assert rings.fe_coprime_product([(R, -1), (FE_ZERO, 2)]) == FE_ZERO
    with pytest.raises(ZeroDivisionError):
        rings.fe_coprime_product([(FE_ZERO, -1)])


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


@pytest.mark.parametrize("call", [
    lambda: Poly2.var_r() ** -1,
    lambda: cyclotomic(0),
    lambda: QuotientField(Poly2.var_l()),
    lambda: QuotientField(Poly2.const(3)),
    lambda: QuotientField(Poly2({(0, 1): 2, (0, 0): 1})),
    lambda: Specialization(modulus=cyclotomic(8)),
    lambda: Specialization(l_value=L),
])
def test_malformed_powers_moduli_and_specializations_are_refused(call):
    with pytest.raises(ValueError):
        call()


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


@pytest.mark.parametrize("m", [20, 24, 28])
def test_inverse_of_r_with_int_coefficients(m):
    """r and the modulus have int coefficients; the extended Euclid must
    still divide them exactly, not as floats."""
    fld = QuotientField(cyclotomic(m))
    r = fld.element([0, 1])
    assert r.inverse() * r == fld.one()
    assert fld.embed(R).inverse() == fld.embed(R ** -1)


def _q_divmod(a, b):
    """Division with remainder over Q; b must be nonzero."""
    a = list(a)
    db, lb = len(b) - 1, Fraction(b[-1])
    q = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if not c:
            continue
        c = c / lb
        q[k] = c
        for j in range(db + 1):
            if b[j]:
                a[k + j] = a[k + j] - c * b[j]
    return rings._u_trim(q), rings._u_trim(a[:db])


def _fraction_inverse(elem):
    """The coefficients of 1/elem by the extended Euclid over Q[r] on
    Fractions, which CycElement.inverse ran before it worked on integers;
    kept as an oracle."""
    r0 = [Fraction(c) for c in elem.field._dense]
    r1 = [Fraction(c, elem.den) for c in elem.num]
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, rem = _q_divmod(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, rings._u_sub(t0, rings._u_mul(q, t1))
    assert len(r0) == 1
    return [c / r0[0] for c in t0]


# the oracles' cost grows fast with the degree and the coefficient size, so
# the widest random numerators go with the smaller degrees
@pytest.mark.parametrize("m,bits", [(36, 40), (48, 40), (60, 40), (61, 4),
                                    (64, 16)])
def test_inverse_matches_sympy_and_the_fraction_euclid(m, bits):
    rng = random.Random(m)
    fld = QuotientField(cyclotomic(m))
    phi = sympy.Poly(sympy.cyclotomic_poly(m, _SR), _SR, domain=sympy.QQ)

    def full_degree(bits):
        den = rng.randint(1, 2 ** 20)
        coeffs = [Fraction(rng.randint(-2 ** bits, 2 ** bits), den)
                  for _ in range(fld.degree)]
        coeffs[-1] = coeffs[-1] or Fraction(1, den)
        elem = fld.element(coeffs)
        assert len(elem.num) == fld.degree
        return elem

    # modulo Phi_61 the embedded l has full degree and 95-bit coefficients
    high = fld.embed(parse_r_expression("(r^64+1)/(r^63-3)"))
    for a in (high, full_degree(bits), fld.element([0, 1]),
              fld.element([Fraction(-7, 3)])):
        inv = a.inverse()
        coeffs = [Fraction(c, a.den) for c in a.num]
        _agrees(inv, sympy.invert(_sym_poly(coeffs), phi))
        assert inv == fld.element(_fraction_inverse(a))
        assert inv * a == fld.one() and inv.inverse() == a
    a = full_degree(40)
    assert a.inverse() * a == fld.one()


def test_zero_and_one_operands_skip_the_product(monkeypatch):
    fld = QuotientField(cyclotomic(20))
    a = fld.element([Fraction(3, 2), 0, -5, Fraction(1, 7)])
    zero, one = fld.zero(), fld.one()
    calls = []
    monkeypatch.setattr(rings, "_cyc",
                        lambda *args: calls.append("_cyc"))
    monkeypatch.setattr(QuotientField, "_reduce",
                        lambda *args: calls.append("_reduce"))
    results = [(a * zero, zero), (zero * a, zero), (a * one, a),
               (one * a, a), (a + zero, a), (zero + a, a), (a - zero, a),
               (zero - a, -a)]
    assert calls == []
    for got, want in results:
        assert got == want and got.field is fld
        assert got.num == want.num and got.den == want.den


def test_embed_of_an_integral_fraction():
    fld = QuotientField(cyclotomic(20))
    e = fld.embed(parse_r_expression("1/(r^2+1)"))
    assert e * fld.embed(R ** 2 + FE_ONE) == fld.one()
    assert str(e) == "4/5 - 3/5*r^2 + 2/5*r^4 - 1/5*r^6"


# the generic field (m = l_text = None), Q(r) (m = None) and quotient fields
@pytest.mark.parametrize("m,l_text", [(16, "-r^3"), (28, "1/r^11"),
                                      (12, "(2*r + 3)/(r^2 - 5)"),
                                      (None, None), (None, "r^2"),
                                      (None, "(2*r + 3)/(r^2 - 5)")])
def test_quotient_context_constants_match_fresh_values(m, l_text):
    if l_text is None:
        s, l_value = Specialization.generic(), L
        assert Specialization.generic() is s
    elif m is None:
        l_value = parse_r_expression(l_text)
        s = Specialization.l_to(l_value)
    else:
        l_value = parse_r_expression(l_text)
        s = Specialization.l_to_mod(l_value, m)
    ctx = s.field()
    assert s.field() is ctx
    for k in range(-15, 16):
        assert ctx.r_pow(k) == specialize(FieldElement.r_pow(k), s), k
    assert ctx.l() == specialize(l_value, s)
    assert ctx.l_inv() == specialize(l_value.inverse(), s)
    assert ctx.m() == specialize(fe_m(), s)
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


# -- the expression parser ----------------------------------------------------

def test_parser_examples():
    assert parse_r_expression("1/r - r") == fe_m()
    assert parse_r_expression("-r^3") == -(R ** 3)
    assert parse_r_expression("(1 - r^2)/r") == fe_m()
    assert parse_r_expression("2") == FieldElement.from_int(2)


def test_parser_rejects_garbage():
    for bad in ("l", "r +", "(r", "r^x", "q", "1/0", "r^r", "(r r", ")",
                "r r"):
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


def test_parser_caps_coefficient_bits():
    cap = rings.MAX_COEFF_BITS
    big = 2 ** (cap - 1)
    assert parse_r_expression(str(big)) == FieldElement.from_int(big)
    assert parse_r_expression("1/%d" % big) == 1 / FieldElement.from_int(big)
    assert parse_r_expression("(2 + r)^64").num.degree_r() == 64
    for bad in (str(2 ** cap), "1/%d" % 2 ** cap, "r/%d + 1" % 2 ** cap,
                "(2^64)^64", "(2^64)^64/(2^64)^64", "(((2^64)^64)^64)"):
        with pytest.raises(ExpressionError, match="more than %d bits" % cap):
            parse_r_expression(bad)


def test_parser_rejects_negative_powers_of_zero():
    assert parse_r_expression("0^0") == FE_ONE
    assert parse_r_expression("0^-0") == FE_ONE
    for bad in ("0^-1", "(1-1)^-2", "(r-r)^-64"):
        with pytest.raises(ExpressionError, match="division by zero"):
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
