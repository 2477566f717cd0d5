"""Determinant and kernel analysis of the summed conjugate operators.

T(n) is the matrix of the sum of all nu(X_ij); its determinant as a function
of l cuts out the reducibility locus, and its kernel K(n) at a specialized l
is the intersection of the kernels of all the X_ij operators.  This module
computes the determinant exactly over Q(l, r) (fraction-free, on the rows
cleared to integers), extracts the locus by dividing out each candidate
l = +-r^k at which the numerator vanishes, computes each kernel in reduced
echelon form, and carries a catalogue of the explicit spanning vectors with
a membership checker.  For n <= MAX_PINNED_N det T(n) is the closed form of
locus_orders, so at every specialized l the determinant is that form with
no T(n), and in every specialized field the kernel is 0 where l equals none
of the five roots and otherwise the span of the verified catalogue vectors
of the roots it equals (at l = -r^3 with the ladders of the smaller sizes
embedded in the n-strand space), once their rank is the order of det T(n)
at l; where two roots collide modulo Phi_M and their vectors fall short of
it, T(n) is eliminated in the field.  Over Q(l, r) and Q(r) the
determinants of T(n) and of its submatrices, the membership check and
rank_witness read one cached T(n) whose rows _clear_row cleared to
integers, t_cleared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, prod

from . import linalg
from .rings import (FieldElement, Poly2, Specialization, _den_lcm, _ladder,
                    fe_coprime_product)
from .roots import RootIndex, num_roots
from .xij import sum_matrix_direct


class SizeGuardError(RuntimeError):
    """Raised when a symbolic determinant exceeds the feasibility guard."""


# a command reads T(n) at one or two specializations; the last few are kept
@functools.lru_cache(maxsize=8)
def t_matrix(n, spec):
    """T(n) over the field of the specialization (cached)."""
    return sum_matrix_direct(n, spec)


@functools.lru_cache(maxsize=8)
def t_cleared(n, spec):
    """(rows, scales) for T(n) over Q(l, r) or Q(r) (cached): row i of T(n)
    times scales[i] is rows[i], a row of integer ladders, by _clear_row."""
    return tuple(zip(*map(_clear_row, t_matrix(n, spec).entries)))


def _clear_row(row):
    """(ladders, scale): the row of FieldElements times scale as integer
    ladders (rings._ladder's format), where scale is the lcm of the row's
    distinct entry denominators times the lcm of the coefficient
    denominators that this product leaves.  The lcm grows by the reduced
    d / lcm and each quotient is the reduced lcm / d, so both steps are
    FieldElement reductions: degree shifts where d is a monomial."""
    dens = dict.fromkeys(e.den for e in row)
    lcm = Poly2.one()
    for d in dens:
        lcm = lcm * FieldElement(d, lcm).num
    for d in dens:
        dens[d] = FieldElement(lcm, d).num
    cleared = [e.num * dens[e.den] for e in row]
    k = _den_lcm(c for p in cleared for c in p.terms.values())
    return [_ladder(p.scale(k).terms)[0] for p in cleared], lcm.scale(k)


def _over_qr(spec):
    """Whether T(n) at spec is read as rows over Z[r], as _t_read gives."""
    return not (spec.is_generic or spec.is_quotient)


def _t_read(n, spec):
    """T(n) as kernel, _annihilates and rank_witness read it: over Q(r) the
    rows of t_cleared, each ladder as its one rung in Z[r]; over the other
    fields its entries."""
    if not _over_qr(spec):
        return t_matrix(n, spec).entries
    return [[e[0] if e else e for e in row] for row in t_cleared(n, spec)[0]]


# ---------------------------------------------------------------------------
# determinant and reducibility locus
# ---------------------------------------------------------------------------

def det_T(n, spec=None, guard=6):
    """Exact determinant of T(n) over the target field.

    Over Q(l, r) it is submatrix_det on every row and column, Bareiss on
    the rows of t_cleared over the product of their scales; the guard
    refuses it beyond n = guard (override by passing a larger guard, or the
    LK_SIZE_GUARD environment variable on the command line).  At a
    specialized l, n <= MAX_PINNED_N, det T(n) is the closed form of
    locus_orders, with no T(n): the entries of T(n) lie in
    Z[l, 1/l, r, 1/r, 1/m], whose map onto the field commutes with det.
    Its factors multiply in the field modulo Phi_M, and over Q(r) with no
    gcd in rings.fe_coprime_product, whose precondition holds: write
    l = a/b in lowest terms and s = max(0, -k); up to powers of r,
    l - eps r^k is P_k / b with P_k = r^s a - eps r^max(0, k) b, and
    l (r - 1/r) is a (r^2 - 1) / b.  Above the line stand the P_k and, for
    the exponent -N, b; below it a, and b from each l - eps r^k.  A common
    factor of P_k and a divides r^max(0, k) b, and one of P_k and b
    divides r^s a, so with gcd(a, b) = 1 both are powers of r.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if spec is None:
        spec = Specialization.generic()
    if spec.is_generic:
        if n > guard:
            raise SizeGuardError(
                "symbolic determinant for n=%d exceeds the guard (%d); "
                "raise LK_SIZE_GUARD to override" % (n, guard))
        every = range(1, num_roots(n) + 1)
        return submatrix_det(n, spec, every, every)
    if n > MAX_PINNED_N:
        raise ValueError("det T(n) at a specialized l is known for n <= %d "
                         "only" % MAX_PINNED_N)
    ctx = spec.field()
    factors = [(ctx.l() - ctx.from_int(eps) * ctx.r_pow(k), e)
               for (eps, k), e in locus_orders(n).items()]
    factors.append((-(ctx.l() * ctx.m()), -(n * (n - 1) // 2)))
    if spec.is_quotient:
        return prod((f ** e for f, e in factors), start=ctx.one())
    return fe_coprime_product(factors)


@dataclass
class LocusFactor:
    eps: int          # the root is l = eps * r^k
    k: int
    multiplicity: int
    factor: FieldElement  # l - eps r^k

    def label(self):
        if self.k == 0:
            mono = "1"
        elif self.k == 1:
            mono = "r"
        elif self.k == -1:
            mono = "1/r"
        elif self.k > 0:
            mono = "r^%d" % self.k
        else:
            mono = "1/r^%d" % -self.k
        return "l %s %s" % ("-" if self.eps > 0 else "+", mono)


@dataclass
class LocusReport:
    n: int
    factors: list            # LocusFactor entries with multiplicity > 0
    residual: FieldElement   # leftover of the l-numerator
    l_denominator_power: int
    scalar: FieldElement     # r-only
    det: FieldElement

    def reconstructs(self):
        """The defining identity: product of factors times residual times
        scalar over l^power equals det T(n) exactly.  Checked by
        cross-multiplication, so no gcd of large polynomials is taken."""
        num = self.residual.num * self.scalar.num
        den = self.residual.den * self.scalar.den
        for f in self.factors:
            num = num * f.factor.num ** f.multiplicity
            den = den * f.factor.den ** f.multiplicity
        den = den * Poly2.monomial(self.l_denominator_power, 0)
        return num * self.det.den == self.det.num * den


def _vanishes_at(p, eps, k):
    """Whether p(l = eps r^k, r) = 0, that is, whether the primitive form
    of l - eps r^k divides p."""
    slots = {}
    for (a, b), c in p.terms.items():
        s = b + k * a
        slots[s] = slots.get(s, 0) + (-c if eps < 0 and a % 2 else c)
    return not any(slots.values())


def reducibility_locus(n, guard=6):
    """Factor the l-numerator of det T(n) against the candidates l = +-r^k,
    |k| <= 2n-3, greedily to maximal multiplicity."""
    det = det_T(n, Specialization.generic(), guard=guard)
    den = det.den
    p = den.degree_l()
    if any(dl != p for (dl, _) in den.terms):
        raise ArithmeticError(
            "unexpected denominator shape for det T(%d): %s" % (n, den))
    d_r = Poly2({(0, dr): c for (_, dr), c in den.terms.items()})
    num = det.num
    factors = []
    r_shift = 0
    for k in range(2 * n - 3, -(2 * n - 3) - 1, -1):
        for eps in (1, -1):
            prim = Poly2({(1, max(0, -k)): 1, (0, max(0, k)): -eps})
            mult = 0
            while _vanishes_at(num, eps, k):
                num = num.divexact(prim)
                mult += 1
            if mult:
                fe = FieldElement(prim, Poly2.monomial(0, max(0, -k)))
                factors.append(LocusFactor(eps=eps, k=k,
                                           multiplicity=mult, factor=fe))
                r_shift += mult * max(0, -k)
    residual = FieldElement(num)
    scalar = FieldElement(Poly2.monomial(0, r_shift)) / FieldElement(d_r)
    report = LocusReport(n=n, factors=factors, residual=residual,
                         l_denominator_power=p, scalar=scalar, det=det)
    if not report.reconstructs():
        raise ArithmeticError("locus reconstruction identity failed")
    return report


# the largest n at which det T(n) is known to be the closed form of
# locus_orders, cli.MAX_N: criterion 12 proves it (the spanning families'
# ranks at the five roots sum to 2N, the l-degree of l^N det T(n))
MAX_PINNED_N = 12


def locus_orders(n):
    """{(eps, k): e}: the exponents of the closed form, N = n(n-1)/2,

      det T(n) = (r - 1/r)^-N l^-N  prod (l - eps r^k)^e

    over the five roots l = eps r^k (e is 0 for l = r at n = 3).  The
    orders sum to 2N, the l-degree of l^N det T(n)."""
    N = n * (n - 1) // 2
    return {(-1, 3): N - n + 1, (1, 1): N - n, (1, 3 - n): n - 1,
            (-1, 3 - n): n - 1, (1, 3 - 2 * n): 1}


def _roots_at(n, ctx):
    """{(eps, k): e}: the roots of locus_orders(n) that l equals in the
    field ctx, where two of them can collide modulo Phi_M."""
    return {(eps, k): e for (eps, k), e in locus_orders(n).items()
            if ctx.l() == ctx.from_int(eps) * ctx.r_pow(k)}


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass
class KernelReport:
    n: int
    spec: Specialization
    basis: list   # list of coordinate vectors (position order)
    dim: int
    verdicts: dict  # named_verdicts

    def contains(self, vector):
        """Exact membership: T(n) v = 0 characterises K(n)."""
        return _annihilates(_t_read(self.n, self.spec), self.spec, vector)

    def named_verdicts(self):
        """The catalogue's membership verdicts at this specialization."""
        return self.verdicts


def _catalogue(n, spec):
    """(verdicts, members): the membership verdict of every catalogued
    vector at spec, by name, and the vectors that pass among those, the
    vectors of other names at the roots that l equals in the field of spec
    (built in that field), and where l = -r^3 there the ladders of every
    smaller size 3 <= t < n, ladder_coords(n, ctx, k, t), not named."""
    T, ctx = _t_read(n, spec), spec.field()
    verdicts, members = {}, []
    for case in ALL_CASES:
        for v in named_vectors(n, case, at=spec):
            vector = v.vector()
            verdicts[v.name] = _annihilates(T, spec, vector)
            if verdicts[v.name]:
                members.append(vector)
    roots = _roots_at(n, ctx)
    others = [v.coords for root in roots if _spec(*root) != spec
              for case in ALL_CASES
              for v in named_vectors(n, case, at=_spec(*root), ctx=ctx)
              if v.name not in verdicts]
    if (-1, 3) in roots:
        others += [ladder_coords(n, ctx, k, t)
                   for t in range(3, n) for k in range(1, t - 1)]
    members += [v for v in (_dense(n, ctx, c) for c in others)
                if _annihilates(T, spec, v)]
    return verdicts, members


def _rref_qr(vectors):
    """rref_zr of vectors over Q(r), each cleared to Z[r] by _clear_row."""
    return linalg.rref_zr(
        [[x[0] if x else x for x in _clear_row(v)[0]] for v in vectors])


def _annihilates(T, spec, vector):
    """Whether T v = 0, for T = _t_read(n, spec).  Over Q(r) the nonzero
    entries of v are cleared to Z[r] like the rows, and T v = 0 exactly
    when every cleared row's sum of products with them is 0, since the row
    and vector scales are nonzero; over the other fields by mat_vec."""
    if not _over_qr(spec):
        return linalg.is_zero_vector(linalg.mat_vec(T, vector))
    nz = [j for j, e in enumerate(vector) if not e.is_zero()]
    xs = [x[0] for x in _clear_row([vector[j] for j in nz])[0]]
    for row in T:
        acc = {}
        for j, x in zip(nz, xs):
            for a, c in enumerate(row[j]):
                if c:
                    for b, d in enumerate(x, a):
                        if d:
                            acc[b] = acc.get(b, 0) + c * d
        if any(acc.values()):
            return False
    return True


def kernel(n, spec):
    """Basis of K(n) = Ker T(n), in reduced echelon form.

    For n <= MAX_PINNED_N det T(n) is the closed form of locus_orders, so
    in the field of spec dim K(n) is at most the order e of det T(n) at l
    (a nullity never exceeds the order of vanishing of the determinant),
    the sum of the orders of the roots that l equals there.  With none e
    is 0 (l and m are never 0), so K(n) = 0 and T(n) is not built.  Else
    the vectors of _catalogue span K(n) once their rank is e, and their
    rref is its one reduced echelon basis.  Over Q(r) criterion 12 proves
    that rank, and any other raises ArithmeticError; modulo Phi_M, where
    two colliding roots' vectors fall short of e, T(n) is eliminated."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if spec is None or spec.is_generic:
        raise ValueError(
            "kernel over the generic bivariate field is not supported; "
            "specialize l first")
    if n > MAX_PINNED_N:
        raise ValueError("the kernel is known for n <= %d only"
                         % MAX_PINNED_N)
    e = sum(_roots_at(n, spec.field()).values())
    if not e:
        return KernelReport(n=n, spec=spec, basis=[], dim=0, verdicts={})
    verdicts, members = _catalogue(n, spec)
    if spec.is_quotient:
        basis = linalg.rref(members, spec.field())[0]
        if len(basis) < e:
            basis = linalg.kernel_basis(_t_read(n, spec), spec.field())
    else:
        R, pivots = _rref_qr(members)
        if len(pivots) != e:
            raise ArithmeticError(
                "the kernel vectors at %s have rank %d, not the order %d "
                "of det T(%d) there" % (spec, len(pivots), e, n))
        basis = linalg.unit_pivot_rows_zr(R, pivots)
    return KernelReport(n=n, spec=spec, basis=basis, dim=len(basis),
                        verdicts=verdicts)


# ---------------------------------------------------------------------------
# the catalogue of explicit spanning vectors
# ---------------------------------------------------------------------------

@dataclass
class NamedVector:
    name: str
    n: int
    case: str
    spec: Specialization
    coords: dict  # RootIndex -> coefficient in the field of spec

    def vector(self):
        return _dense(self.n, self.spec.field(), self.coords)


def _dense(n, ctx, coords):
    """The coordinate vector, in position order, of {RootIndex: entry}."""
    v = [ctx.zero()] * num_roots(n)
    for root, c in coords.items():
        v[root.position() - 1] = c
    return v


def check_membership(v):
    """Whether T(n) annihilates the vector at its own specialization."""
    return _annihilates(_t_read(v.n, v.spec), v.spec, v.vector())


_R = FieldElement.r()

CASE_ONE_DIM = "one-dim"
CASE_NM1_PLUS = "n-minus-1+"
CASE_NM1_MINUS = "n-minus-1-"
CASE_L_R = "l=r"
CASE_L_NEG_R3 = "l=-r3"
CASE_ROOT_OF_UNITY = "root-of-unity"

ALL_CASES = (CASE_ONE_DIM, CASE_NM1_PLUS, CASE_NM1_MINUS,
             CASE_L_R, CASE_L_NEG_R3, CASE_ROOT_OF_UNITY)


def _w(i, j, n):
    return RootIndex(i, j, n)


def _coords(n, ctx, pairs):
    """A vector of _TABLE: w_ij has the sum of c r^k, c = +-1, over the
    Laurent map {k: c} of pairs[(i, j)]."""
    out = {}
    for (i, j), terms in pairs.items():
        parts = [ctx.r_pow(k) if c > 0 else -ctx.r_pow(k)
                 for k, c in terms.items()]
        out[_w(i, j, n)] = sum(parts[1:], parts[0])
    return out


def geometric_coords(n, ctx, lam_power=1):
    """sum over s < t of lam^{s+t} w_st with lam = r (lam_power=1) or
    lam = -1/r (lam_power=-1), normalised so the w_12 coefficient is 1."""
    out = {}
    for t in range(2, n + 1):
        for s in range(1, t):
            e = s + t - 3
            c = ctx.r_pow(e * lam_power)
            if lam_power < 0 and e % 2:
                c = -c
            out[_w(s, t, n)] = c
    return out


def row_span_coords(n, ctx, i, eps):
    """The i-th spanning vector of the (n-1)-dimensional invariant subspace
    at l = eps/r^{n-3}."""
    rinv = ctx.r_pow(-1)
    out = {_w(i, i + 1, n): rinv - ctx.l_inv()}
    for k in range(i + 2, n + 1):
        c = ctx.r_pow(k - i - 2)
        out[_w(i, k, n)] = c
        out[_w(i + 1, k, n)] = -(c * rinv)
    for s in range(1, i):
        c = ctx.r_pow(n - i - 2 + s)
        if eps < 0:
            c = -c
        out[_w(s, i, n)] = c
        out[_w(s, i + 1, n)] = -(c * rinv)
    return out


def tower_coords(n, ctx, t, k):
    """The k-th new spanning vector of K(t) at l = r, read inside the
    n-strand space (4 <= t <= n, 1 <= k <= t-2)."""
    rinv = ctx.r_pow(-1)
    r = ctx.r_pow(1)
    scale = ctx.r_pow(t - 4)
    if k == 1:
        out = {_w(1, t, n): ctx.one(), _w(2, t, n): -rinv,
               _w(2, 3, n): scale, _w(1, 3, n): -(scale * r)}
    else:
        out = {_w(k, t, n): ctx.one(), _w(k + 1, t, n): -rinv,
               _w(1, k + 1, n): scale, _w(1, k, n): -(scale * r)}
    return out


def ladder_coords(n, ctx, k, t):
    """w_{k+1,t} - r w_{k,t} + r^{t-k} w_{k,k+1}, in the kernel at l=-r^3
    (3 <= t <= n, 1 <= k <= t-2): the ladder of K(t) read inside the
    n-strand space."""
    return {_w(k + 1, t, n): ctx.one(),
            _w(k, t, n): -ctx.r_pow(1),
            _w(k, k + 1, n): ctx.r_pow(t - k)}


# the vectors of a single size, (case, n) -> [(name, {(i, j): {k: c}})],
# where the coordinate of w_ij is the sum of c r^k; the key (case, None)
# holds the vectors of every n >= 5, each named name(n)
_KV3_UNIT = [("kv3-unit", {(1, 2): {0: 1}, (2, 3): {0: -1}})]
_SHORT_R = {(1, 2): {2: 1}, (1, 3): {1: -1}, (3, 4): {0: 1}, (2, 4): {1: -1}}
_SHORT_NEGR3 = [("short-negr3",
                 {(2, 3): {1: -1}, (3, 4): {-1: -1}, (2, 4): {0: 1}})]
_TABLE = {
    (CASE_ONE_DIM, 3): [
        ("kv3-invr3", {(1, 2): {-1: 1}, (2, 3): {1: 1}, (1, 3): {0: 1}})],
    (CASE_ONE_DIM, 4): [
        ("kv4-invr5", {(1, 2): {-2: 1}, (2, 3): {0: 1}, (1, 3): {-1: 1},
                       (3, 4): {2: 1}, (2, 4): {1: 1}, (1, 4): {0: 1}})],
    (CASE_ONE_DIM, 5): [
        ("kv5-invr7", {(1, 2): {-3: 1}, (2, 3): {-1: 1}, (1, 3): {-2: 1},
                       (3, 4): {1: 1}, (2, 4): {0: 1}, (1, 4): {-1: 1},
                       (4, 5): {3: 1}, (3, 5): {2: 1}, (2, 5): {1: 1},
                       (1, 5): {0: 1}})],
    # l = +-1: the difference of the two shortest tangles
    (CASE_NM1_PLUS, 3): _KV3_UNIT,
    (CASE_NM1_MINUS, 3): _KV3_UNIT,
    (CASE_NM1_PLUS, 4): [("kv4-invr", {(2, 3): {0: -1}, (1, 4): {0: 1}})],
    (CASE_NM1_MINUS, 4): [
        ("kv4-neginvr", {(1, 2): {0: 1}, (2, 3): {0: -1}, (3, 4): {0: 1},
                         (1, 4): {0: 1}})],
    (CASE_NM1_PLUS, 5): [
        ("kv5-invr2", {(1, 2): {2: 1}, (2, 3): {2: -1, -1: 1},
                       (1, 3): {1: -1}, (3, 4): {-1: -1}, (2, 4): {0: 1},
                       (3, 5): {0: -1}, (2, 5): {1: 1}})],
    (CASE_NM1_MINUS, 5): [
        ("kv5-neginvr2", {(1, 2): {2: -1}, (2, 3): {2: 1, -1: 1},
                          (1, 3): {1: 1}, (3, 4): {-1: -1}, (2, 4): {0: 1},
                          (3, 5): {0: -1}, (2, 5): {1: 1}})],
    (CASE_L_R, None): [("short-r", _SHORT_R)],
    (CASE_L_R, 4): [
        ("kv4-r", {(2, 3): {1: -1}, (1, 3): {2: 1}, (2, 4): {0: 1},
                   (1, 4): {1: -1}})],
    # kv5-r is short-r(5) again; hk5-*: the irreducible 5-dimensional
    # invariant subspace at l = r
    (CASE_L_R, 5): [
        ("kv5-r", _SHORT_R),
        ("hk5-1", {(3, 4): {-1: -1}, (2, 4): {0: 1}, (1, 2): {1: -1},
                   (1, 3): {0: 1}}),
        ("hk5-2", {(3, 5): {-1: -1}, (2, 5): {0: 1}, (1, 2): {2: -1},
                   (1, 3): {1: 1}}),
        ("hk5-3", {(1, 3): {2: -1}, (1, 4): {1: 1}, (4, 5): {-1: -1},
                   (3, 5): {0: 1}}),
        ("hk5-4", {(2, 3): {0: 1}, (2, 4): {-1: -1}, (1, 4): {0: 1},
                   (1, 3): {1: -1}}),
        ("hk5-5", {(2, 3): {1: 1}, (1, 3): {2: -1}, (2, 5): {-1: -1},
                   (1, 5): {0: 1}})],
    (CASE_L_NEG_R3, None): _SHORT_NEGR3,
    (CASE_ROOT_OF_UNITY, None): _SHORT_NEGR3,
    (CASE_L_NEG_R3, 3): [
        ("kv3-negr3", {(1, 2): {1: -1}, (2, 3): {-1: -1}, (1, 3): {0: 1}})],
    # triple*: the irreducible 3-dimensional invariant subspace at l = -r^3
    (CASE_L_NEG_R3, 4): [
        ("kv4-negr3", {(1, 2): {2: -1}, (2, 3): {0: -1}, (3, 4): {-2: -1},
                       (1, 4): {0: 1}}),
        ("triple1(4)", {(2, 3): {1: 1}, (1, 3): {0: 1},
                        (3, 4): {-1: 1, -3: 1}, (2, 4): {0: -1},
                        (1, 4): {-1: -1}}),
        ("triple2(4)", {(1, 2): {1: -1}, (1, 3): {2: -1}, (3, 4): {-1: -1},
                        (2, 4): {-2: -1}, (1, 4): {1: 1, -1: 1}}),
        ("triple3(4)", {(1, 2): {1: 1, 3: 1}, (2, 3): {-1: 1},
                        (1, 3): {0: -1}, (2, 4): {0: 1}, (1, 4): {1: -1}})],
}


@functools.lru_cache(maxsize=64)
def _spec(eps, k, modulus=None):
    """l = eps r^k, over Q(r) or modulo Phi_modulus (cached)."""
    l = _R ** k if eps > 0 else -(_R ** k)
    if modulus is None:
        return Specialization.l_to(l)
    return Specialization.l_to_mod(l, modulus)


def named_vectors(n, case, at=None, ctx=None):
    """The explicit kernel vectors known for the given case and size; with
    `at`, only those at that specialization, in the same order, and no
    other vector's coordinates are built; with `ctx`, the coordinates are
    built in that field, their images there."""
    if case not in ALL_CASES:
        raise ValueError("unknown case %r; one of %s" % (case, ALL_CASES))
    if n < 3:
        raise ValueError("n must be at least 3")
    out = []

    def emit(name, spec, builder, *args):
        if at is None or at == spec:
            out.append(NamedVector(name=name, n=n, case=case, spec=spec,
                                   coords=builder(n, ctx or spec.field(),
                                                  *args)))

    # the quotient field is built only when `at` can be one
    if case == CASE_ROOT_OF_UNITY and at is not None and not at.is_quotient:
        return out
    eps, k = {CASE_ONE_DIM: (1, 3 - 2 * n), CASE_NM1_PLUS: (1, 3 - n),
              CASE_NM1_MINUS: (-1, 3 - n), CASE_L_R: (1, 1)
              }.get(case, (-1, 3))
    # root-of-unity: r a primitive 4n-th root of unity (so l = -r^3 also
    # equals 1/r^{2n-3}); for n = 3 the 12th roots
    spec = _spec(eps, k, (12 if n == 3 else 4 * n)
                 if case == CASE_ROOT_OF_UNITY else None)
    if case in (CASE_ONE_DIM, CASE_ROOT_OF_UNITY):
        emit("geom(%d)" % n, spec, geometric_coords, 1)
        if n == 3:
            alt = spec if case == CASE_ROOT_OF_UNITY else _spec(-1, 3)
            emit("geom-alt(3)", alt, geometric_coords, -1)
    if case in (CASE_NM1_PLUS, CASE_NM1_MINUS):
        for i in range(1, n):
            emit("vrow%d(%d)" % (i, n), spec, row_span_coords, i, eps)
    for name, pairs in _TABLE.get((case, None), []) if n >= 5 else []:
        emit("%s(%d)" % (name, n), spec, _coords, pairs)
    for name, pairs in _TABLE.get((case, n), []):
        emit(name, spec, _coords, pairs)
    if case == CASE_L_R:
        for t in range(4, n + 1):
            for k in range(1, t - 1):
                emit("tower%d.%d(%d)" % (t, k, n), spec, tower_coords, t, k)
    if case in (CASE_L_NEG_R3, CASE_ROOT_OF_UNITY) and n > 3:
        for k in range(1, n - 1):
            emit("ladder%d(%d)" % (k, n), spec, ladder_coords, k, n)
    return out


def check_named(n, case):
    """Membership verdicts for every vector of a case; ValueError when the
    catalogue has no vectors for the case at this n."""
    vectors = named_vectors(n, case)
    if not vectors:
        raise ValueError("no catalogued vectors for case %s at n=%d"
                         % (case, n))
    return {v.name: check_membership(v) for v in vectors}


# ---------------------------------------------------------------------------
# submatrix search and the nested determinant identity
# ---------------------------------------------------------------------------

def submatrix_det(n, spec, rows, cols):
    """Exact determinant of the submatrix of T(n) given by 1-based row and
    column index lists.  Modulo Phi_M it is eliminated in the field; over
    Q(l, r) and Q(r) it is Bareiss on those entries of the rows of
    t_cleared, divided by the product of the chosen rows' scales (a row of
    T(n) times its scale is its cleared row, and columns are not scaled)."""
    if spec.is_quotient:
        M = t_matrix(n, spec).entries
        return linalg.det(linalg.submatrix(M, rows, cols), spec.field())
    cleared, scales = t_cleared(n, spec)
    return FieldElement(
        linalg.bareiss_det_poly(linalg.submatrix(cleared, rows, cols)),
        prod((scales[i - 1] for i in rows), start=Poly2.one()))


def rank_witness(n, spec, size, row_pool=None, col_pool=None):
    """First (in lexicographic order, columns outermost) invertible size x
    size submatrix of T(n), or None if the pools hold none.

    The pivot columns of an elimination, in order, are the lexicographically
    first maximal independent set of columns (a greedy basis of a matroid,
    Gale), so the first `size` pivot columns of T(n) on the pools are the
    first column set, and the pivot rows on those columns the row set."""
    if n < 3:
        raise ValueError("n must be at least 3")
    N = num_roots(n)
    if row_pool is None:
        row_pool = list(range(1, N + 1))
    if col_pool is None:
        col_pool = list(range(1, N + 1))
    if any(not 1 <= i <= N for i in list(row_pool) + list(col_pool)):
        raise ValueError("row and column indices must lie in 1..%d" % N)
    if size < 1:
        raise ValueError("size must be at least 1")
    if size > len(row_pool) or size > len(col_pool):
        raise ValueError("size exceeds the index pools")
    M = _t_read(n, spec)
    rows, cols = sorted(row_pool), sorted(col_pool)
    pivots = _pivot_columns(spec, linalg.submatrix(M, rows, cols))
    if len(pivots) < size:
        return None
    cols = [cols[p] for p in pivots[:size]]
    pivots = _pivot_columns(spec, list(zip(*linalg.submatrix(M, rows, cols))))
    return [rows[p] for p in pivots], cols


def _pivot_columns(spec, M):
    """The pivot columns of M over the field of spec, in increasing order;
    over Q(r) M is a slice of _t_read, whose rows are T(n)'s scaled by
    nonzero constants, which moves no pivot row or column."""
    if _over_qr(spec):
        return linalg.rref_zr(M)[1]
    return linalg.rref(M, spec.field())[1]


def _nested_indices(n):
    """The row/column patterns of the nested submatrix family at l = -r^3:
    seed [1,3,4,7], then append the row below the (k-1)-strand block and the
    column of w_{4,k} at each step."""
    rows = [1, 3, 4, 7]
    cols = [1, 3, 4, 7]
    for t in range(6, n + 1):
        rows = rows + [comb(t - 1, 2) + 1]
        cols = cols + [comb(t - 1, 2) + (t - 4)]
    return rows, cols


def det_Sn_formula_check(n):
    """Check the closed form for the nested submatrix determinant at
    l = -r^3: det S(n) = (-1)^{n+1} (1 + r^4 + ... + r^{4(n-1)}) /
    r^{8 + n(n-5)/2}."""
    if not 5 <= n:
        raise ValueError("the nested family starts at n = 5")
    rows, cols = _nested_indices(n)
    got = submatrix_det(n, _spec(-1, 3), rows, cols)
    num = Poly2({(0, 4 * j): 1 for j in range(n)})
    expected = FieldElement(num, Poly2.monomial(0, 8 + n * (n - 5) // 2))
    if (n + 1) % 2:
        expected = -expected
    return got == expected
