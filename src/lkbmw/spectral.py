"""Determinant and kernel analysis of the summed conjugate operators.

T(n) is the matrix of the sum of all nu(X_ij); its determinant as a function
of l cuts out the reducibility locus, and its kernel K(n) at a specialized l
is the intersection of the kernels of all the X_ij operators.  This module
computes the determinant exactly (over Q(l, r) and Q(r) fraction-free, after
clearing each row by the lcm of its denominators; over a cyclotomic quotient
field by elimination in the field), extracts the locus by dividing out each
candidate l = +-r^k at which the numerator vanishes, computes kernels over
Q(r) and over cyclotomic quotient fields, and carries a catalogue of the
explicit spanning vectors with a membership checker.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from . import linalg
from .rings import FieldElement, Poly2, Specialization
from .roots import RootIndex, num_roots
from .xij import sum_matrix_direct


class SizeGuardError(RuntimeError):
    """Raised when a symbolic determinant exceeds the feasibility guard."""


# a command reads T(n) at one or two specializations; the last few are kept
@functools.lru_cache(maxsize=8)
def t_matrix(n, spec):
    """T(n) over the field of the specialization (cached)."""
    return sum_matrix_direct(n, spec)


# ---------------------------------------------------------------------------
# determinant and reducibility locus
# ---------------------------------------------------------------------------

def det_T(n, spec=None, guard=6):
    """Exact determinant of T(n) over the target field.

    Over Q(l, r) and Q(r) each row is cleared by the lcm of its entry
    denominators, a fraction-free elimination runs on the polynomial matrix,
    and the result is reduced once against the product of the row lcms; over
    a cyclotomic quotient field the elimination runs in the field.  The
    guard refuses symbolic runs beyond n = guard (override by passing a
    larger guard, or the LK_SIZE_GUARD environment variable on the command
    line).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if spec is None:
        spec = Specialization.generic()
    if spec.is_generic and n > guard:
        raise SizeGuardError(
            "symbolic determinant for n=%d exceeds the guard (%d); "
            "raise LK_SIZE_GUARD to override" % (n, guard))
    M = t_matrix(n, spec).entries
    if spec.is_quotient:
        return linalg.det(M, spec.field())
    return _det_cleared(M)


def _det_cleared(M):
    """Exact determinant over Q(l, r) or Q(r): clear each row by the lcm of
    its entry denominators, run the fraction-free elimination on the cleared
    rows, and reduce the result once against the product of the row lcms."""
    cleared = []
    den = Poly2.one()
    for row in M:
        lcm = Poly2.one()
        for e in row:
            lcm = lcm.divexact(lcm.gcd(e.den)) * e.den
        cleared.append([e.num * lcm.divexact(e.den) for e in row])
        den = den * lcm
    return FieldElement(linalg.bareiss_det_poly(cleared), den)


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

    def multiplicity_of(self, eps, k):
        for f in self.factors:
            if f.eps == eps and f.k == k:
                return f.multiplicity
        return 0

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


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass
class KernelReport:
    n: int
    spec: Specialization
    basis: list   # list of coordinate vectors (position order)
    dim: int
    verdicts: dict = None  # name -> bool, filled by check_named

    def contains(self, vector):
        """Exact membership: T(n) v = 0 characterises K(n)."""
        T = t_matrix(self.n, self.spec).entries
        return linalg.is_zero_vector(linalg.mat_vec(T, vector))

    def named_verdicts(self):
        """Membership verdicts for every catalogued vector that lives at
        this report's specialization."""
        out = {}
        for case in ALL_CASES:
            try:
                vectors = named_vectors(self.n, case)
            except ValueError:
                continue
            for v in vectors:
                if v.spec == self.spec:
                    out[v.name] = self.contains(v.vector())
        return out


def kernel(n, spec):
    """Basis of K(n) = Ker T(n), in reduced echelon form."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if spec is None or spec.is_generic:
        raise ValueError(
            "kernel over the generic bivariate field is not supported; "
            "specialize l first")
    ctx = spec.field()
    M = t_matrix(n, spec).entries
    basis = linalg.kernel_basis(M, ctx)
    if basis:
        basis, _ = linalg.rref(basis, ctx)
    return KernelReport(n=n, spec=spec, basis=basis, dim=len(basis))


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
        ctx = self.spec.field()
        v = [ctx.zero()] * num_roots(self.n)
        for root, c in self.coords.items():
            v[root.position() - 1] = c
        return v


def check_membership(v):
    """Whether T(n) annihilates the vector at its own specialization."""
    T = t_matrix(v.n, v.spec).entries
    return linalg.is_zero_vector(linalg.mat_vec(T, v.vector()))


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
    return {_w(i, j, n): c for (i, j), c in pairs.items()}


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


def row_span_coords(n, i, ctx, eps):
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


def tower_coords(n, t, k, ctx):
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


def ladder_coords(n, k, ctx):
    """w_{k+1,n} - r w_{k,n} + r^{n-k} w_{k,k+1}, in the kernel at l=-r^3."""
    return {_w(k + 1, n, n): ctx.one(),
            _w(k, n, n): -ctx.r_pow(1),
            _w(k, k + 1, n): ctx.r_pow(n - k)}


def _spec_one_dim(n):
    return Specialization.l_to(_R ** -(2 * n - 3))


def _spec_nm1(n, eps):
    val = _R ** -(n - 3)
    return Specialization.l_to(val if eps > 0 else -val)


_SPEC_L_R = Specialization.l_to(_R)
_SPEC_L_NEG_R3 = Specialization.l_to(-(_R ** 3))


def named_vectors(n, case):
    """The explicit kernel vectors known for the given case and size."""
    if case not in ALL_CASES:
        raise ValueError("unknown case %r; one of %s" % (case, ALL_CASES))
    if n < 3:
        raise ValueError("n must be at least 3")
    out = []

    def emit(name, spec, coords):
        out.append(NamedVector(name=name, n=n, case=case,
                               spec=spec, coords=coords))

    if case == CASE_ONE_DIM:
        if n == 3:
            s_pos = Specialization.l_to(_R ** -3)
            ctx = s_pos.field()
            emit("geom(3)", s_pos, geometric_coords(3, ctx, 1))
            s_neg = Specialization.l_to(-(_R ** 3))
            ctx = s_neg.field()
            emit("geom-alt(3)", s_neg, geometric_coords(3, ctx, -1))
            ctx = s_pos.field()
            emit("kv3-invr3", s_pos, _coords(3, ctx, {
                (1, 2): ctx.r_pow(-1), (2, 3): ctx.r_pow(1),
                (1, 3): ctx.one()}))
        elif n >= 4:
            spec = _spec_one_dim(n)
            ctx = spec.field()
            emit("geom(%d)" % n, spec, geometric_coords(n, ctx, 1))
            if n == 4:
                emit("kv4-invr5", spec, _coords(4, ctx, {
                    (1, 2): ctx.r_pow(-2), (2, 3): ctx.one(),
                    (1, 3): ctx.r_pow(-1), (3, 4): ctx.r_pow(2),
                    (2, 4): ctx.r_pow(1), (1, 4): ctx.one()}))
            if n == 5:
                emit("kv5-invr7", spec, _coords(5, ctx, {
                    (1, 2): ctx.r_pow(-3), (2, 3): ctx.r_pow(-1),
                    (1, 3): ctx.r_pow(-2), (3, 4): ctx.r_pow(1),
                    (2, 4): ctx.one(), (1, 4): ctx.r_pow(-1),
                    (4, 5): ctx.r_pow(3), (3, 5): ctx.r_pow(2),
                    (2, 5): ctx.r_pow(1), (1, 5): ctx.one()}))
        return out

    if case in (CASE_NM1_PLUS, CASE_NM1_MINUS):
        eps = 1 if case == CASE_NM1_PLUS else -1
        spec = _spec_nm1(n, eps)
        ctx = spec.field()
        for i in range(1, n):
            emit("vrow%d(%d)" % (i, n), spec, row_span_coords(n, i, ctx, eps))
        if n == 3:
            # l = +-1: the difference of the two shortest tangles
            emit("kv3-unit", spec, _coords(3, ctx, {
                (1, 2): ctx.one(), (2, 3): -ctx.one()}))
        if n == 4:
            if eps < 0:
                emit("kv4-neginvr", spec, _coords(4, ctx, {
                    (1, 2): ctx.one(), (2, 3): -ctx.one(),
                    (3, 4): ctx.one(), (1, 4): ctx.one()}))
            else:
                emit("kv4-invr", spec, _coords(4, ctx, {
                    (2, 3): -ctx.one(), (1, 4): ctx.one()}))
        if n == 5:
            if eps < 0:
                emit("kv5-neginvr2", spec, _coords(5, ctx, {
                    (1, 2): -ctx.r_pow(2),
                    (2, 3): ctx.r_pow(2) + ctx.r_pow(-1),
                    (1, 3): ctx.r_pow(1), (3, 4): -ctx.r_pow(-1),
                    (2, 4): ctx.one(), (3, 5): -ctx.one(),
                    (2, 5): ctx.r_pow(1)}))
            else:
                emit("kv5-invr2", spec, _coords(5, ctx, {
                    (1, 2): ctx.r_pow(2),
                    (2, 3): -ctx.r_pow(2) + ctx.r_pow(-1),
                    (1, 3): -ctx.r_pow(1), (3, 4): -ctx.r_pow(-1),
                    (2, 4): ctx.one(), (3, 5): -ctx.one(),
                    (2, 5): ctx.r_pow(1)}))
        return out

    if case == CASE_L_R:
        spec = _SPEC_L_R
        ctx = spec.field()
        if n >= 5:
            emit("short-r(%d)" % n, spec, _coords(n, ctx, {
                (1, 2): ctx.r_pow(2), (1, 3): -ctx.r_pow(1),
                (3, 4): ctx.one(), (2, 4): -ctx.r_pow(1)}))
        if n == 4:
            emit("kv4-r", spec, _coords(4, ctx, {
                (2, 3): -ctx.r_pow(1), (1, 3): ctx.r_pow(2),
                (2, 4): ctx.one(), (1, 4): -ctx.r_pow(1)}))
        if n == 5:
            emit("kv5-r", spec, _coords(5, ctx, {
                (1, 2): ctx.r_pow(2), (1, 3): -ctx.r_pow(1),
                (3, 4): ctx.one(), (2, 4): -ctx.r_pow(1)}))
            for idx, pairs in enumerate(_hecke_basis_5(ctx), start=1):
                emit("hk5-%d" % idx, spec, _coords(5, ctx, pairs))
        if n >= 4:
            for t in range(4, n + 1):
                for k in range(1, t - 1):
                    emit("tower%d.%d(%d)" % (t, k, n), spec,
                         tower_coords(n, t, k, ctx))
        return out

    if case == CASE_L_NEG_R3:
        spec = _SPEC_L_NEG_R3
        ctx = spec.field()
        if n == 3:
            emit("kv3-negr3", spec, _coords(3, ctx, {
                (1, 2): -ctx.r_pow(1), (2, 3): -ctx.r_pow(-1),
                (1, 3): ctx.one()}))
        if n == 4:
            emit("kv4-negr3", spec, _coords(4, ctx, {
                (1, 2): -ctx.r_pow(2), (2, 3): -ctx.one(),
                (3, 4): -ctx.r_pow(-2), (1, 4): ctx.one()}))
            for idx, pairs in enumerate(_triple_4(ctx), start=1):
                emit("triple%d(4)" % idx, spec, _coords(4, ctx, pairs))
        if n >= 5:
            emit("short-negr3(%d)" % n, spec, _coords(n, ctx, {
                (2, 3): -ctx.r_pow(1), (3, 4): -ctx.r_pow(-1),
                (2, 4): ctx.one()}))
        if n >= 4:
            for k in range(1, n - 1):
                emit("ladder%d(%d)" % (k, n), spec, ladder_coords(n, k, ctx))
        return out

    # root-of-unity variants: l = -r^3 with r a primitive 4n-th root of
    # unity (so l also equals 1/r^{2n-3}); for n = 3 the 12th roots.
    if n == 3:
        spec = Specialization.l_to_mod(-(_R ** 3), 12)
        ctx = spec.field()
        emit("geom(3)", spec, geometric_coords(3, ctx, 1))
        emit("geom-alt(3)", spec, geometric_coords(3, ctx, -1))
        return out
    spec = Specialization.l_to_mod(-(_R ** 3), 4 * n)
    ctx = spec.field()
    emit("geom(%d)" % n, spec, geometric_coords(n, ctx, 1))
    if n >= 5:
        emit("short-negr3(%d)" % n, spec, _coords(n, ctx, {
            (2, 3): -ctx.r_pow(1), (3, 4): -ctx.r_pow(-1),
            (2, 4): ctx.one()}))
    for k in range(1, n - 1):
        emit("ladder%d(%d)" % (k, n), spec, ladder_coords(n, k, ctx))
    return out


def _hecke_basis_5(ctx):
    """The five vectors spanning the irreducible 5-dimensional invariant
    subspace at l = r (n = 5)."""
    one = ctx.one()
    r = ctx.r_pow(1)
    rinv = ctx.r_pow(-1)
    r2 = ctx.r_pow(2)
    return [
        {(3, 4): -rinv, (2, 4): one, (1, 2): -r, (1, 3): one},
        {(3, 5): -rinv, (2, 5): one, (1, 2): -r2, (1, 3): r},
        {(1, 3): -r2, (1, 4): r, (4, 5): -rinv, (3, 5): one},
        {(2, 3): one, (2, 4): -rinv, (1, 4): one, (1, 3): -r},
        {(2, 3): r, (1, 3): -r2, (2, 5): -rinv, (1, 5): one},
    ]


def _triple_4(ctx):
    """The three vectors spanning the irreducible 3-dimensional invariant
    subspace at l = -r^3 (n = 4)."""
    one = ctx.one()
    r = ctx.r_pow(1)
    rinv = ctx.r_pow(-1)
    return [
        {(2, 3): r, (1, 3): one, (3, 4): rinv + ctx.r_pow(-3),
         (2, 4): -one, (1, 4): -rinv},
        {(1, 2): -r, (1, 3): -ctx.r_pow(2), (3, 4): -rinv,
         (2, 4): -ctx.r_pow(-2), (1, 4): r + rinv},
        {(1, 2): r + ctx.r_pow(3), (2, 3): rinv, (1, 3): -one,
         (2, 4): one, (1, 4): -r},
    ]


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
    column index lists."""
    M = t_matrix(n, spec).entries
    return linalg.det(linalg.submatrix(M, rows, cols), spec.field())


def rank_witness(n, spec, size, row_pool=None, col_pool=None):
    """First (in lexicographic order, columns outermost) invertible size x
    size submatrix of T(n), or None if the pools hold none."""
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
    M = t_matrix(n, spec).entries
    ctx = spec.field()
    for cols in itertools.combinations(sorted(col_pool), size):
        for rows in itertools.combinations(sorted(row_pool), size):
            d = linalg.det(linalg.submatrix(M, rows, cols), ctx)
            if not d.is_zero():
                return list(rows), list(cols)
    return None


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
    got = submatrix_det(n, _SPEC_L_NEG_R3, rows, cols)
    num = Poly2({(0, 4 * j): 1 for j in range(n)})
    expected = FieldElement(num, Poly2.monomial(0, 8 + n * (n - 5) // 2))
    if (n + 1) % 2:
        expected = -expected
    return got == expected
