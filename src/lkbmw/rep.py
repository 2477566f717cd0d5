"""The Lawrence-Krammer representation of the BMW algebra B(A_{n-1}).

Matrices act on column vectors indexed by the positive roots in position
order: column position(beta) of G_i holds the coordinates of the image of
x_beta under the i-th generator.  Two independent constructions are provided:
the closed-form case analysis on inner products, and the recursive block
scheme that extends the size-(n-1) matrices by n-1 rows and columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

from . import linalg
from .rings import Specialization
from .roots import all_roots, inner2, num_roots, shift, simple_root


def nu_images(i, beta, ctx):
    """Images of x_beta under nu(g_i), nu(e_i) and nu(g_i^{-1}), as three
    sparse maps RootIndex -> coefficient.

    With a = alpha_i, h = ht(beta) and s = beta -+ a the one shifted root,
    the six cases split on 2(beta|a) and on where s or beta sits against a.
    Every e_i image is c x_a.  In each +-1 case one of g_i, g_i^{-1} is the
    bare shift x_s and the other adds -+D, with D = m (c x_a - x_beta):

          2(beta|a)  where       c             g_i          g_i^{-1}
      (a)  0                     0             r x_beta     r^-1 x_beta
      (b)  2                     x             l^-1 x_beta  l x_beta
      (c)  1         beta-a > a  l r^{h-2}     x_s          x_s - D
      (d)  1         beta-a < a  l^-1 r^{2-h}  x_s + D      x_s
      (e) -1         beta > a    r^{h-1}       x_s + D      x_s
      (f) -1         beta < a    r^{1-h}       x_s          x_s - D
    """
    ip = inner2(beta, i)
    alpha = simple_root(i, beta.n)
    if ip == 0:
        return {beta: ctx.r_pow(1)}, {}, {beta: ctx.r_pow(-1)}
    if ip == 2:
        return {beta: ctx.l_inv()}, {alpha: ctx.x()}, {beta: ctx.l()}
    s = shift(beta, i)
    if ip == 1:
        k = beta.height - 2
        on_g = s.precedes(alpha)
        c = ctx.l_inv() * ctx.r_pow(-k) if on_g else ctx.l() * ctx.r_pow(k)
    else:
        k = beta.height - 1
        on_g = alpha.precedes(beta)
        c = ctx.r_pow(k if on_g else -k)
    m, one = ctx.m(), ctx.one()
    if on_g:
        return {s: one, alpha: m * c, beta: -m}, {alpha: c}, {s: one}
    return {s: one}, {alpha: c}, {s: one, alpha: -(m * c), beta: m}


@dataclass
class LKMatrices:
    """The family {G_i, E_i, G_i^{-1}} over one field: n(n-1)/2 wide when
    built from the case formulas, n-1 generators of any size in general."""

    n: int
    spec: Specialization
    G: list
    E: list
    Ginv: list

    @property
    def size(self):
        return len(self.G[0])


def build_matrices(n, spec=None):
    """Assemble G_i, E_i and G_i^{-1} column-by-column from the case
    formulas, over the target field of the specialization: one pass over
    the roots per i fills the sparse rows of all three."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if spec is None:
        spec = Specialization.generic()
    ctx = spec.field()
    roots = all_roots(n)
    G, E, Ginv = [], [], []
    for i in range(1, n):
        rows = [[{} for _ in roots] for _ in range(3)]
        for beta in roots:
            col = beta.position() - 1
            for image, sparse in zip(nu_images(i, beta, ctx), rows):
                for root, coeff in image.items():
                    sparse[root.position() - 1][col] = coeff
        for F, sparse in zip((G, E, Ginv), rows):
            F.append(linalg.dense(sparse, len(roots), ctx.zero()))
    return LKMatrices(n=n, spec=spec, G=G, E=E, Ginv=Ginv)


# -- recursive block construction -------------------------------------------

def _g_base3(k, ctx):
    """G_1(3) and G_2(3); the seed of the recursion."""
    zero, one = ctx.zero(), ctx.one()
    m = ctx.m()
    linv = ctx.l_inv()
    if k == 1:
        return [[linv, m, zero],
                [zero, -m, one],
                [zero, one, zero]]
    return [[zero, zero, one],
            [zero, linv, m * linv],
            [one, zero, -m]]


def _g_recursive(k, n, ctx):
    if n == 3:
        return _g_base3(k, ctx)
    size = num_roots(n)
    zero, one = ctx.zero(), ctx.one()
    m = ctx.m()
    prev = comb(n - 1, 2)
    M = [[zero] * size for _ in range(size)]
    if k <= n - 2:
        # matrix of the first kind: the (n-1)-strand matrix in the leading
        # block, r's along the trailing diagonal, one 2x2 swap block and a
        # single m r^{n-k-2} entry in the row of alpha_k
        inner = _g_recursive(k, n - 1, ctx)
        for a in range(prev):
            row = inner[a]
            Ma = M[a]
            for b in range(prev):
                Ma[b] = row[b]
        lo = prev + (n - k - 1)       # position of w_{k+1,n}
        hi = prev + (n - k)           # position of w_{k,n}
        r = ctx.r_pow(1)
        for p in range(prev + 1, size + 1):
            if p not in (lo, hi):
                M[p - 1][p - 1] = r
        M[comb(k, 2)][lo - 1] = m * ctx.r_pow(n - k - 2)
        M[lo - 1][lo - 1] = -m
        M[lo - 1][hi - 1] = one
        M[hi - 1][lo - 1] = one
        return M
    # matrix of the second kind: r-scalar block, shifts w_{s,n-1} -> w_{s,n},
    # the row (l^{-1}, m l^{-1}, m l^{-1}/r, ...) and a -m diagonal
    small = comb(n - 2, 2)
    r = ctx.r_pow(1)
    for p in range(1, small + 1):
        M[p - 1][p - 1] = r
    for p in range(small + 1, prev + 1):
        M[p + n - 2][p - 1] = one       # column w_{s,n-1} maps onto w_{s,n}
        M[p - 1][p + n - 2] = one       # and w_{s,n} falls back onto w_{s,n-1}
    top = prev + 1                       # position of w_{n-1,n}
    M[top - 1][top - 1] = ctx.l_inv()
    for p in range(prev + 2, size + 1):
        M[top - 1][p - 1] = m * ctx.l_inv() * ctx.r_pow(-(p - prev - 2))
        M[p - 1][p - 1] = -m
    return M


def _sparse_ops(table):
    """linalg.mat_mul, mat_add, mat_sub and mat_scale, all on one table."""
    return (functools.partial(f, table=table) for f in (
        linalg.mat_mul, linalg.mat_add, linalg.mat_sub, linalg.mat_scale))


def build_matrices_recursive(n, spec=None):
    """The same family, built by the block recursion instead of the case
    formulas; E_i and G_i^{-1} come from the defining matrix relations."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if spec is None:
        spec = Specialization.generic()
    ctx = spec.field()
    size = num_roots(n)
    zero = ctx.zero()
    m = ctx.m()
    l_over_m = ctx.l() / m
    table = linalg.EntryTable()
    mul, add, sub, scale = _sparse_ops(table)
    ident = linalg.identity(size, ctx, table)
    m_ident = scale(ident, m)
    G, E, Ginv = [], [], []
    for k in range(1, n):
        g = _g_recursive(k, n, ctx)
        s = linalg.sparse(g, table)
        e = scale(sub(add(mul(s, s), scale(s, m)), ident), l_over_m)
        ginv = sub(add(s, m_ident), scale(e, m))
        G.append(g)
        E.append(linalg.dense(e, size, zero))
        Ginv.append(linalg.dense(ginv, size, zero))
    return LKMatrices(n=n, spec=spec, G=G, E=E, Ginv=Ginv)


# -- relation verification ---------------------------------------------------

@dataclass
class RelationReport:
    n: int
    spec: Specialization
    checks: list  # (name, bool)

    @property
    def all_pass(self):
        return all(ok for _, ok in self.checks)

    @property
    def failures(self):
        return [name for name, ok in self.checks if not ok]


def verify_relations(mats):
    """Check the defining relations of B(A_{n-1}) on the matrices, with exact
    equality: the braid relations (1)-(2), the polynomial definition of the
    e_i (3), the quadratic relation (8), the inverse law (9), the other
    mixed relations (4)-(13), the idempotent relation e_i^2 = x e_i (14) and
    the vanishing of e_a e_b for distant nodes (15).  The matrices are taken
    to sparse rows once, where equality is == (linalg), and every operation
    shares one linalg.EntryTable, so each distinct entry product and sum is
    computed once in the whole check.  Every relation at node a is decided
    in one pass over a, so each matrix product is computed once and only a
    few matrices are alive at any moment; each check is recorded under
    (relation, a, b) and reported in the order of that key.

    With every E_i = 0 and G_i^{-1} = G_i + m, the relations say exactly
    that the G_i satisfy the braid relations and G^2 + mG = 1: the
    relations of a Hecke algebra module (specht.verify_seed_matrices)."""
    n = mats.n
    ctx = mats.spec.field()
    table = linalg.EntryTable()
    G, E, Ginv = ([linalg.sparse(M, table) for M in F]
                  for F in (mats.G, mats.E, mats.Ginv))
    ident = linalg.identity(mats.size, ctx, table)
    m = ctx.m()
    l = ctx.l()
    linv = ctx.l_inv()
    x = ctx.x()
    mul, add, sub, scale = _sparse_ops(table)
    l_over_m = l / m
    m_linv = m * linv
    m_ident = scale(ident, m)
    checks = {}
    for a in range(n - 1):
        i = a + 1
        for b in range(a + 2, n - 1):
            checks[1, a, b] = ("(1) g%dg%d=g%dg%d" % (i, b + 1, b + 1, i),
                               mul(G[a], G[b]) == mul(G[b], G[a]))
            checks[15, a, b] = ("e%de%d=0" % (i, b + 1),
                                not any(mul(E[a], E[b])))
        if a + 1 < n - 1:
            # g_a g_{a+1} g_a = g_{a+1} g_a g_{a+1}, both around g_a g_{a+1}
            p = mul(G[a], G[a + 1])
            checks[2, a, a + 1] = ("(2) braid g%d,g%d" % (i, i + 1),
                                   mul(p, G[a]) == mul(G[a + 1], p))
        g2 = mul(G[a], G[a])
        mg = scale(G[a], m)
        e_linv = scale(E[a], linv)
        checks[3, a, a] = ("(3) e%d polynomial in g%d" % (i, i),
                           E[a] == scale(sub(add(g2, mg), ident), l_over_m))
        checks[4, a, a] = ("(4) g%de%d=l^-1 e%d" % (i, i, i),
                           mul(G[a], E[a]) == e_linv)
        checks[7, a, a] = ("(7) e%dg%d=l^-1 e%d" % (i, i, i),
                           mul(E[a], G[a]) == e_linv)
        checks[8, a, a] = ("(8) g%d^2=1-mg+ml^-1 e" % i,
                           g2 == add(sub(ident, mg), scale(E[a], m_linv)))
        checks[9, a, a] = ("(9) inverse law g%d" % i,
                           mul(G[a], Ginv[a]) == ident
                           and Ginv[a] == sub(add(G[a], m_ident),
                                              scale(E[a], m)))
        checks[14, a, a] = ("idempotent e%d^2=x e%d" % (i, i),
                            mul(E[a], E[a]) == scale(E[a], x))
        # (5), (10), (12) at b = a + 1 and (6), (11), (13) at b = a - 1
        for b, k in ((a + 1, 5), (a - 1, 6)):
            if 0 <= b < n - 1:
                j = b + 1
                ge, ee = mul(G[b], E[a]), mul(E[b], E[a])
                checks[k, a, b] = ("(%d) e%dg%de%d=l e%d" % (k, i, j, i, i),
                                   mul(E[a], ge) == scale(E[a], l))
                checks[k + 5, a, b] = (
                    "(%d) g%dg%de%d=e%de%d" % (k + 5, i, j, i, j, i),
                    mul(G[a], ge) == ee)
                checks[k + 7, a, b] = (
                    "(%d) mixed g%de%de%d" % (k + 7, i, j, i),
                    mul(G[a], ee) == add(ge, scale(sub(E[a], ee), m)))
    return RelationReport(n=n, spec=mats.spec,
                          checks=[checks[key] for key in sorted(checks)])
