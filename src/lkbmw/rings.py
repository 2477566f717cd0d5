"""Exact arithmetic over Q, Q[l, r], the fraction field Q(l, r), and
cyclotomic quotient fields Q[r]/(Phi_m).

Polynomials in the two variables l and r are stored as sparse maps from
exponent pairs (deg_l, deg_r) to rational coefficients.  Field elements are
reduced fractions of such polynomials; the denominator is normalised to have
leading coefficient 1 in the lexicographic order on (deg_l, deg_r), so that
equality is plain structural equality.  Laurent expressions such as 1/r^k are
always represented as fractions, never as negative exponents.

Everything here is immutable after construction and safe to share freely.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

_ZERO = _Q(0)
_ONE = _Q(1)


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact is not."""


class PoleError(ArithmeticError):
    """Raised when a specialization sends a denominator to zero."""


class NonInvertibleError(ArithmeticError):
    """Raised when inversion fails in a quotient ring; carries the gcd found."""

    def __init__(self, msg, gcd=None):
        super().__init__(msg)
        self.gcd = gcd


# ---------------------------------------------------------------------------
# raw term-dict helpers (keys are (deg_l, deg_r) pairs, values nonzero mpq)
# ---------------------------------------------------------------------------

def _d_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            w = w + v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def _d_neg(a):
    return {k: -v for k, v in a.items()}


def _d_sub(a, b):
    if not b:
        return dict(a)
    return _d_add(a, _d_neg(b))


def _d_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (da, ra), ca in a.items():
        for (db, rb), cb in b.items():
            k = (da + db, ra + rb)
            v = out.get(k)
            if v is None:
                out[k] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out


def _d_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def _d_degl(a):
    return max(k[0] for k in a) if a else -1


# dense univariate helpers: a list v with v[i] the coefficient of r^i --------
# (ints on the integer ladders below, rationals in CycElement.inverse)

def _u_trim(v):
    while v and not v[-1]:
        v.pop()
    return v


def _u_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return _u_trim(out)


def _u_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return _u_trim(out)


def _u_divmod(a, b):
    """Division with remainder over Q; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lb = len(b) - 1, _Q(b[-1])
    q = [_ZERO] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if not c:
            continue
        c = c / lb
        q[k] = c
        for j in range(db + 1):
            if b[j]:
                a[k + j] = a[k + j] - c * b[j]
    return _u_trim(q), _u_trim(a[:db])


# gcd and exact division over two integer rings ----------------------------
#
# A polynomial is a trimmed list of coefficients, lowest degree first.  The
# coefficient ring is passed as the tuple (mul, sub, divexact, content) of
# its operations, content(v) being the gcd of the entries of v up to a unit.
# Over Z the coefficients are ints, so a polynomial is an element of Z[r];
# over Z[r] they are such lists, so a polynomial is a ladder in Z[r][l].

def _prem(a, b, mul, sub):
    """Pseudo-remainder of a by b, with deg b >= 1."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la = a.pop()
        s = len(a) - db
        a = [mul(c, lb) for c in a]
        for j in range(db):
            a[s + j] = sub(a[s + j], mul(la, b[j]))
        _u_trim(a)
    return a


def _divexact(a, b, ring):
    """The quotient a / b of polynomials over the ring; raises
    ExactDivisionError when b does not divide a."""
    mul, sub, divexact, _ = ring
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = []
    while len(a) > db:
        c = divexact(a.pop(), lb)
        q.append(c)
        if c:
            s = len(a) - db
            for j in range(db):
                a[s + j] = sub(a[s + j], mul(c, b[j]))
    if any(a):
        raise ExactDivisionError("inexact polynomial division")
    q.reverse()
    return q


def _prs_gcd(a, b, ring):
    """gcd of the polynomials a and b up to a unit: the gcd of their contents
    times the last nonzero primitive remainder of their primitive parts."""
    if not a:
        return b
    if not b:
        return a
    mul, sub, divexact, content = ring
    if not any(b[:-1]):
        a, b = b, a
    if not any(a[:-1]):
        # a = c t^k: the gcd is content([c, *b]) t^min(k, ord_t b), and the
        # small c first keeps every gcd inside content small
        z = next(i for i, c in enumerate(b) if c)
        return b[:min(len(a) - 1, z)] + [content([a[-1], *b])]
    ca, cb = content(a), content(b)
    a = [divexact(c, ca) for c in a]
    b = [divexact(c, cb) for c in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _prem(a, b, mul, sub)
        if not rem:
            break
        cr = content(rem)
        a, b = b, [divexact(c, cr) for c in rem]
    g = content([ca, cb])
    return [mul(g, c) for c in b]


def _z_content(v):
    """gcd of the ints in v.  Here and in _ladder a loop of two-argument
    calls, not math.gcd(*v): the argument tuples that unpacking builds pile
    up in the interpreter's tuple free lists and raise the peak memory."""
    g = 0
    for c in v:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _zr_content(v):
    """gcd in Z[r] of the entries of v, up to sign."""
    g = []
    for c in v:
        g = _prs_gcd(g, c, _Z)
        if len(g) == 1 and abs(g[0]) == 1:
            break
    return g


def _int_divexact(a, b):
    q, rem = divmod(a, b)
    if rem:
        raise ExactDivisionError("inexact integer division")
    return q


_Z = (operator.mul, operator.sub, _int_divexact, _z_content)
_ZR = (_u_mul, _u_sub, functools.partial(_divexact, ring=_Z), _zr_content)


# Q[l, r] on integer ladders: the ladder of a dict d is the list over deg_l
# of the dense integer r-coefficient lists of den * d, for an integer den > 0

def _ladder(d):
    """(L, den): den the lcm of the coefficient denominators of d, and L the
    ladder of den * d."""
    den = 1
    for c in d.values():
        den = math.lcm(den, int(c.denominator))
    out = [[] for _ in range(_d_degl(d) + 1)]
    for (a, b), c in d.items():
        row = out[a]
        if len(row) <= b:
            row.extend([0] * (b + 1 - len(row)))
        row[b] = int(c.numerator) * (den // int(c.denominator))
    return out, den


def _from_ll(ll):
    out = {}
    for a, row in enumerate(ll):
        for b, c in enumerate(row):
            if c:
                out[(a, b)] = c
    return out


def _d_divexact(a, b):
    """Exact division in Q[l, r]; raises ExactDivisionError otherwise.

    The division runs on integer ladders: A = da * a, and B = db * b / cb
    with cb the integer content of db * b, so that B is primitive.  By
    Gauss's lemma an integer polynomial that a primitive one divides over Q
    has an integer quotient, so B divides A in Z[r][l] exactly when b divides
    a in Q[l, r], and a / b = (A / B) * db / (da * cb)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    A, da = _ladder(a)
    B, db = _ladder(b)
    cb = _z_content(c for row in B for c in row)
    if cb != 1:
        B = [[c // cb for c in row] for row in B]
    q, den = _from_ll(_divexact(A, B, _ZR)), da * cb
    return {k: _Q(c * db, den) for k, c in q.items()}


def _d_gcd(a, b):
    """gcd in Q[l, r], returned primitive over Z with positive lex-leading
    coefficient."""
    g = _from_ll(_prs_gcd(_ladder(a)[0], _ladder(b)[0], _ZR))
    c = _z_content(g.values())
    if g and g[max(g)] < 0:
        c = -c
    return {k: _Q(v // c) for k, v in g.items()}


# ---------------------------------------------------------------------------
# Poly2
# ---------------------------------------------------------------------------

class Poly2:
    """A polynomial in Q[l, r], stored sparsely without zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero():
        return Poly2()

    @staticmethod
    def one():
        return Poly2({(0, 0): _ONE})

    @staticmethod
    def const(c):
        return Poly2({(0, 0): _Q(c)})

    @staticmethod
    def var_l():
        return Poly2({(1, 0): _ONE})

    @staticmethod
    def var_r():
        return Poly2({(0, 1): _ONE})

    @staticmethod
    def monomial(deg_l, deg_r, c=1):
        return Poly2({(deg_l, deg_r): _Q(c)})

    # -- queries -------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0, 0): _ONE}

    def degree_l(self):
        return _d_degl(self.terms)

    def degree_r(self):
        return max(k[1] for k in self.terms) if self.terms else -1

    def leading_key(self):
        return max(self.terms) if self.terms else None

    def leading_coeff(self):
        return self.terms[max(self.terms)] if self.terms else _ZERO

    def __len__(self):
        return len(self.terms)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        return Poly2(_d_add(self.terms, other.terms))

    def __sub__(self, other):
        return Poly2(_d_sub(self.terms, other.terms))

    def __neg__(self):
        return Poly2(_d_neg(self.terms))

    def __mul__(self, other):
        return Poly2(_d_mul(self.terms, other.terms))

    def scale(self, c):
        return Poly2(_d_scale(self.terms, _Q(c)))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly2.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divexact(self, other):
        return Poly2(_d_divexact(self.terms, other.terms))

    def gcd(self, other):
        return Poly2(_d_gcd(self.terms, other.terms))

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- printing ------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (dl, dr) in sorted(self.terms):
            c = self.terms[(dl, dr)]
            neg = c < 0
            c = -c if neg else c
            factors = []
            if c != 1 or (dl == 0 and dr == 0):
                factors.append(str(c))
            if dl == 1:
                factors.append("l")
            elif dl > 1:
                factors.append("l^%d" % dl)
            if dr == 1:
                factors.append("r")
            elif dr > 1:
                factors.append("r^%d" % dr)
            mono = "*".join(factors)
            if not parts:
                parts.append("-" + mono if neg else mono)
            else:
                parts.append(("- " if neg else "+ ") + mono)
        return " ".join(parts)

    def __repr__(self):
        return "Poly2(%s)" % self


_P_ONE = Poly2.one()


# ---------------------------------------------------------------------------
# FieldElement
# ---------------------------------------------------------------------------

class FieldElement:
    """A reduced fraction of two polynomials in Q[l, r].

    Invariants: gcd(num, den) = 1, den != 0, and den has leading coefficient
    1 in the lex order on (deg_l, deg_r); the zero element is 0/1.  With this
    normalisation, equality is structural and agrees with cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = _P_ONE
        if den.is_zero():
            raise ZeroDivisionError("field element with zero denominator")
        if reduce:
            num, den = _fe_reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_int(k):
        return FieldElement(Poly2.const(k), _P_ONE, reduce=False)

    @staticmethod
    def from_rational(p, q=1):
        c = _Q(p) / _Q(q)
        return FieldElement(Poly2.const(c), _P_ONE, reduce=False)

    @staticmethod
    def l():
        return FieldElement(Poly2.var_l(), _P_ONE, reduce=False)

    @staticmethod
    def r():
        return FieldElement(Poly2.var_r(), _P_ONE, reduce=False)

    @staticmethod
    def r_pow(k):
        if k >= 0:
            return FieldElement(Poly2.monomial(0, k), _P_ONE, reduce=False)
        return FieldElement(_P_ONE, Poly2.monomial(0, -k), reduce=False)

    @staticmethod
    def l_pow(k):
        if k >= 0:
            return FieldElement(Poly2.monomial(k, 0), _P_ONE, reduce=False)
        return FieldElement(_P_ONE, Poly2.monomial(-k, 0), reduce=False)

    # -- queries -------------------------------------------------------------
    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return not self.num.is_zero()

    def has_l(self):
        return self.num.degree_l() > 0 or self.den.degree_l() > 0

    def complexity(self):
        return len(self.num) + len(self.den)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            other = FieldElement.from_int(other)
        if self.den == other.den:
            return FieldElement(self.num + other.num, self.den)
        return FieldElement(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = FieldElement.from_int(other)
        if self.den == other.den:
            return FieldElement(self.num - other.num, self.den)
        return FieldElement(self.num * other.den - other.num * self.den,
                            self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        out = FieldElement.__new__(FieldElement)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            other = FieldElement.from_int(other)
        return FieldElement(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = FieldElement.from_int(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero field element")
        return FieldElement(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero field element")
        return FieldElement(self.den, self.num)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = FE_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- substitution --------------------------------------------------------
    def subs_l(self, value):
        """Substitute l -> value (a FieldElement); result stays exact."""
        num = _poly_subs_l(self.num, value)
        den = _poly_subs_l(self.den, value)
        if den.is_zero():
            raise PoleError(
                "denominator (%s) vanishes under the substitution l = %s"
                % (self.den, value))
        return num / den

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "FieldElement(%s)" % self


def _monomial_shift(p, a, b):
    return Poly2({(dl - a, dr - b): c for (dl, dr), c in p.terms.items()})


def _fe_reduce(num, den):
    if num.is_zero():
        return Poly2.zero(), _P_ONE
    if den.is_one():
        return num, den
    if len(num) == 1 or len(den) == 1:
        # the gcd with a monomial is the monomial l^va r^vb of the least
        # degrees over both sides, so the reduction is a pure degree shift
        keys = [*num.terms, *den.terms]
        va = min(dl for dl, _ in keys)
        vb = min(dr for _, dr in keys)
        if va or vb:
            num = _monomial_shift(num, va, vb)
            den = _monomial_shift(den, va, vb)
    else:
        g = num.gcd(den)
        if not (len(g) == 1 and g.leading_key() == (0, 0)):
            num = num.divexact(g)
            den = den.divexact(g)
    lc = den.leading_coeff()
    if lc != 1:
        inv = _ONE / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _poly_subs_l(p, value):
    """Evaluate a Poly2 at l = value (FieldElement); returns a FieldElement."""
    if p.is_zero():
        return FE_ZERO
    buckets = {}
    for (dl, dr), c in p.terms.items():
        buckets.setdefault(dl, {})[(0, dr)] = c
    out = FE_ZERO
    power = FE_ONE
    cur = 0
    for dl in sorted(buckets):
        while cur < dl:
            power = power * value
            cur += 1
        coeff = FieldElement(Poly2(buckets[dl]), _P_ONE, reduce=False)
        out = out + (coeff * power if dl else coeff)
    return out


FE_ZERO = FieldElement(Poly2.zero(), _P_ONE, reduce=False)
FE_ONE = FieldElement(_P_ONE, _P_ONE, reduce=False)


def fe_m():
    """m = 1/r - r, the quadratic parameter."""
    return FieldElement(Poly2({(0, 0): _ONE, (0, 2): -_ONE}),
                        Poly2.var_r(), reduce=False)


def fe_x_of(l_elem, m_elem):
    """x = 1 - (l - 1/l)/m, the idempotent eigenvalue, in terms of l and m."""
    return FE_ONE - (l_elem - l_elem.inverse()) / m_elem


# ---------------------------------------------------------------------------
# cyclotomic polynomials and quotient fields
# ---------------------------------------------------------------------------

_CYCLO_CACHE = {}


def cyclotomic(m):
    """The m-th cyclotomic polynomial Phi_m as a Poly2 in r, computed by
    exact division of r^m - 1 by the product of the Phi_d for proper d | m."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    if m in _CYCLO_CACHE:
        return _CYCLO_CACHE[m]
    num = Poly2({(0, m): _ONE, (0, 0): -_ONE})
    den = Poly2.one()
    for d in range(1, m):
        if m % d == 0:
            den = den * cyclotomic(d)
    phi = num.divexact(den)
    _CYCLO_CACHE[m] = phi
    return phi


def _poly_to_dense_r(p):
    if p.degree_l() > 0:
        raise ValueError("expected a polynomial in r only")
    out = [_ZERO] * (p.degree_r() + 1) if not p.is_zero() else []
    for (_, dr), c in p.terms.items():
        out[dr] = c
    return out


class QuotientField:
    """The field Q[r]/(modulus) for a monic irreducible modulus with integer
    coefficients.

    Irreducibility is asserted by the caller, not proven here; with a
    reducible modulus inversion becomes partial and raises
    NonInvertibleError when it meets a zero divisor.
    """

    def __init__(self, modulus):
        dense = _u_trim(_poly_to_dense_r(modulus))
        if len(dense) < 2:
            raise ValueError("modulus must have degree >= 1")
        if dense[-1] != 1:
            raise ValueError("modulus must be monic")
        if any(c.denominator != 1 for c in dense):
            raise ValueError("modulus must have integer coefficients")
        self.modulus = modulus
        self._dense = dense
        self.degree = len(dense) - 1
        # r^degree = -sum_j a_j r^j, kept as the pairs (j, a_j) with a_j != 0
        self._low = tuple((j, int(c)) for j, c in enumerate(dense[:-1]) if c)

    def _reduce(self, v):
        """Reduce an integer coefficient list modulo the modulus, in place."""
        d, low = self.degree, self._low
        for k in range(len(v) - 1, d - 1, -1):
            c = v[k]
            if c:
                base = k - d
                for j, a in low:
                    v[base + j] -= c * a
        del v[d:]
        return v

    def element(self, dense):
        """The class of a polynomial given by its coefficients (integers or
        rationals, constant term first)."""
        den = math.lcm(1, *(int(c.denominator) for c in dense))
        num = [int(c.numerator) * (den // int(c.denominator)) for c in dense]
        return _cyc(self, self._reduce(num), den)

    def zero(self):
        return CycElement(self, (), 1)

    def one(self):
        return CycElement(self, (1,), 1)

    def from_int(self, k):
        return CycElement(self, (k,) if k else (), 1)

    def embed(self, fe):
        """Map a FieldElement in r only into the quotient field; PoleError
        when its denominator vanishes modulo the modulus."""
        num = self.element(_poly_to_dense_r(fe.num))
        den = self.element(_poly_to_dense_r(fe.den))
        if den.is_zero():
            raise PoleError("denominator %s vanishes modulo %s"
                            % (fe.den, self.modulus))
        return num / den

    def __eq__(self, other):
        return isinstance(other, QuotientField) and self._dense == other._dense

    def __hash__(self):
        return hash(tuple(self._dense))

    def __repr__(self):
        return "QuotientField(%s)" % self.modulus


def _cyc(field, num, den):
    """The canonical CycElement num/den: trailing zeros trimmed, den > 0 and
    gcd(content(num), den) = 1, so that equality is structural."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CycElement(field, tuple(num), den)


class CycElement:
    """An element num/den of Q[r]/(Phi): num is a tuple of integers (the
    coefficient of r^i at index i, of length at most the degree of the
    modulus) and den a positive integer, in the canonical form of _cyc."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == (1,) and self.den == 1

    def __bool__(self):
        return bool(self.num)

    def complexity(self):
        return len(self.num) - self.num.count(0)

    def _combine(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            g = math.gcd(den, other.den)
            ma, mb = other.den // g, den // g
            a = [c * ma for c in a]
            b = [c * mb for c in b]
            den *= ma
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sign * c
        return _cyc(self.field, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return CycElement(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        a, b = self.num, other.num
        out = [0] * (len(a) + len(b) - 1)
        b = [(j, c) for j, c in enumerate(b) if c]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in b:
                    out[i + j] += ca * cb
        return _cyc(self.field, self.field._reduce(out), self.den * other.den)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero in the quotient field")
        # extended Euclid over Q[r]
        fld = self.field
        r0, r1 = list(fld._dense), [_Q(c, self.den) for c in self.num]
        t0, t1 = [], [_ONE]
        while r1:
            q, rem = _u_divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _u_sub(t0, _u_mul(q, t1))
        if len(r0) != 1:
            g = Poly2({(0, i): c for i, c in enumerate(r0) if c})
            raise NonInvertibleError(
                "element shares the factor (%s) with the modulus" % g, gcd=g)
        return fld.element([c / r0[0] for c in t0])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, CycElement)
                and self.num == other.num and self.den == other.den
                and self.field == other.field)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        den = self.den
        return str(Poly2({(0, i): _Q(c, den)
                          for i, c in enumerate(self.num) if c}))

    def __repr__(self):
        return "CycElement(%s)" % self


# ---------------------------------------------------------------------------
# specializations and the coefficient-field contract
# ---------------------------------------------------------------------------

class Specialization:
    """A choice of target field: generic Q(l, r), or l -> f(r) in Q(r),
    optionally followed by reduction modulo a cyclotomic polynomial."""

    __slots__ = ("l_value", "modulus", "_field", "_ctx")

    def __init__(self, l_value=None, modulus=None):
        if modulus is not None and l_value is None:
            raise ValueError("a quotient specialization must also fix l")
        self.l_value = l_value
        self.modulus = modulus
        self._ctx = None
        if modulus is None:
            self._field = None
        else:
            self._field = QuotientField(modulus)
            # the denominator of l_value must stay invertible in the quotient
            self._field.embed(l_value)

    @staticmethod
    def generic():
        return Specialization()

    @staticmethod
    def l_to(f):
        if isinstance(f, str):
            f = parse_r_expression(f)
        if f.has_l():
            raise ValueError("the value of l must be an expression in r only")
        if f.is_zero():
            raise ValueError("l must specialize to a nonzero value")
        return Specialization(l_value=f)

    @staticmethod
    def l_to_mod(f, modulus):
        if isinstance(f, str):
            f = parse_r_expression(f)
        if isinstance(modulus, int):
            modulus = cyclotomic(modulus)
        if f.has_l():
            raise ValueError("the value of l must be an expression in r only")
        return Specialization(l_value=f, modulus=modulus)

    @property
    def is_generic(self):
        return self.l_value is None

    @property
    def is_quotient(self):
        return self.modulus is not None

    def field(self):
        """The element factory of the target field, built once."""
        if self._ctx is None:
            if self.is_quotient:
                self._ctx = SpecializedQuotientContext(self)
            elif self.is_generic:
                self._ctx = GenericContext()
            else:
                self._ctx = RationalFunctionContext(self.l_value)
        return self._ctx

    def __eq__(self, other):
        return (isinstance(other, Specialization)
                and self.l_value == other.l_value
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.l_value, self.modulus))

    def __str__(self):
        if self.is_generic:
            return "generic"
        if self.is_quotient:
            return "l=%s mod %s" % (self.l_value, self.modulus)
        return "l=%s" % self.l_value

    def __repr__(self):
        return "Specialization(%s)" % self


def specialize(a, s):
    """Apply a specialization entry-wise to a FieldElement over Q(l, r)."""
    if s.is_generic:
        return a
    b = a.subs_l(s.l_value)
    if not s.is_quotient:
        return b
    return s._field.embed(b)


class GenericContext:
    """Element factory for the generic field Q(l, r)."""

    is_quotient = False

    def zero(self):
        return FE_ZERO

    def one(self):
        return FE_ONE

    def from_int(self, k):
        return FieldElement.from_int(k)

    def r_pow(self, k):
        return FieldElement.r_pow(k)

    def l(self):
        return FieldElement.l()

    def l_inv(self):
        return FieldElement.l_pow(-1)

    def m(self):
        return fe_m()

    def x(self):
        return fe_x_of(self.l(), self.m())

    def __eq__(self, other):
        return isinstance(other, GenericContext)

    def __hash__(self):
        return hash("generic-ctx")


class RationalFunctionContext(GenericContext):
    """Element factory for Q(r) with l fixed to a rational function of r."""

    def __init__(self, l_value):
        self._l = l_value

    def l(self):
        return self._l

    def l_inv(self):
        return self._l.inverse()

    def __eq__(self, other):
        return isinstance(other, RationalFunctionContext) and self._l == other._l

    def __hash__(self):
        return hash(("rfunc-ctx", self._l))


class SpecializedQuotientContext:
    """Element factory for Q[r]/(Phi) with l fixed.  The powers of r, l^-1
    and x are computed on first use and kept, so building T(n) inverts in
    the quotient field a handful of times rather than once per entry."""

    is_quotient = True

    def __init__(self, spec):
        self._spec = spec
        self._fld = spec._field
        self._l = self._fld.embed(spec.l_value)
        r = self._fld.element([0, 1])
        r_inv = r.inverse()
        self._r_pows = {0: self._fld.one(), 1: r, -1: r_inv}
        self._m = r_inv - r
        self._l_inv = None
        self._x = None

    def zero(self):
        return self._fld.zero()

    def one(self):
        return self._fld.one()

    def from_int(self, k):
        return self._fld.from_int(k)

    def r_pow(self, k):
        p = self._r_pows.get(k)
        if p is None:
            p = self._r_pows[1 if k > 0 else -1] ** abs(k)
            self._r_pows[k] = p
        return p

    def l(self):
        return self._l

    def l_inv(self):
        if self._l_inv is None:
            self._l_inv = self._l.inverse()
        return self._l_inv

    def m(self):
        return self._m

    def x(self):
        if self._x is None:
            self._x = self.one() - (self._l - self.l_inv()) / self._m
        return self._x

    def __eq__(self, other):
        return (isinstance(other, SpecializedQuotientContext)
                and self._spec == other._spec)

    def __hash__(self):
        return hash(("quot-ctx", self._spec))


def is_semisimple_point(s, n):
    """Whether (r^2)^k != 1 for all 1 <= k <= n in the target field of s.

    Returns (True, None) or (False, k) with k the least violating power.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not s.is_quotient:
        return True, None  # r is transcendental
    fld = s._field
    r2 = fld.element([0, 0, 1])
    one = fld.one()
    p = fld.one()
    for k in range(1, n + 1):
        p = p * r2
        if p == one:
            return False, k
    return True, None


# ---------------------------------------------------------------------------
# parsing of l-expressions in r
# ---------------------------------------------------------------------------

class ExpressionError(ValueError):
    """Raised on malformed textual field expressions."""


# the largest exponent, and the largest r-degree of a numerator or
# denominator, that parse_r_expression accepts; far larger values only make
# the kernels run for hours
MAX_R_DEGREE = 64

# the deepest nesting of parentheses and unary signs that parse_r_expression
# accepts; it bounds the parser's recursion well inside Python's stack limit
MAX_NESTING = 64


def _r_degree(fe):
    return max(fe.num.degree_r(), fe.den.degree_r())


def _capped(node):
    if _r_degree(node) > MAX_R_DEGREE:
        raise ExpressionError("expression has r-degree above %d"
                              % MAX_R_DEGREE)
    return node


def parse_r_expression(text):
    """Parse a rational expression in r (integers, + - * / ^, parentheses)
    into a FieldElement.  The keyword 'generic' is handled by the caller.
    Exponents and the r-degree of every intermediate result are capped at
    MAX_R_DEGREE, and the nesting of parentheses and unary signs at
    MAX_NESTING."""
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def nest(step):
        nonlocal depth
        depth += step
        if depth > MAX_NESTING:
            raise ExpressionError("parentheses and signs nested deeper than %d"
                                  % MAX_NESTING)

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = _capped(node + rhs if op == "+" else node - rhs)
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            if op == "*":
                node = _capped(node * rhs)
            else:
                if rhs.is_zero():
                    raise ExpressionError("division by zero in expression")
                node = _capped(node / rhs)
        return node

    def parse_factor():
        tok = peek()
        if tok not in ("-", "+"):
            return parse_power()
        take()
        nest(1)
        node = parse_factor()
        nest(-1)
        return -node if tok == "-" else node

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            tok = take()
            if tok is None or not tok.isdigit():
                raise ExpressionError("expected integer exponent")
            # compare digits first: int() refuses very long digit strings
            if len(tok.lstrip("0")) > 2 or int(tok) > MAX_R_DEGREE:
                raise ExpressionError("exponent above %d" % MAX_R_DEGREE)
            exp = int(tok)
            if exp * _r_degree(base) > MAX_R_DEGREE:
                raise ExpressionError("power has r-degree above %d"
                                      % MAX_R_DEGREE)
            return base ** (sign * exp)
        return base

    def parse_atom():
        tok = take()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if tok == "(":
            nest(1)
            node = parse_expr()
            if take() != ")":
                raise ExpressionError("unbalanced parentheses")
            nest(-1)
            return node
        if tok == "r":
            return FieldElement.r()
        if tok.isdigit():
            try:
                return FieldElement.from_int(int(tok))
            except ValueError as exc:  # too many digits for int()
                raise ExpressionError(str(exc)) from None
        raise ExpressionError("unexpected token %r" % tok)

    node = parse_expr()
    if pos != len(tokens):
        raise ExpressionError("trailing input after expression")
    return node


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()r":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExpressionError("illegal character %r" % ch)
    return tokens
