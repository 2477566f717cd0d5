"""The conjugate operators X_ij = g_{j-1}...g_{i+1} e_i g_{i+1}^{-1}...g_{j-1}^{-1}.

Each operator acts on the Lawrence-Krammer space with a matrix whose only
nonzero row sits at position(w_ij); the row is computed two independent ways,
by actual matrix conjugation and by the direct single-coefficient dispatch,
and the two are cross-checked in the test suite.  The sum of all the
operators is the square matrix T(n) whose kernel detects invariant subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .rings import Specialization
from .roots import RootIndex, all_roots, num_roots, root_at


class StructureError(AssertionError):
    """Raised when a conjugated operator is not a one-nonzero-row matrix."""


@dataclass
class XOperator:
    """nu(X_ij) compressed to its unique nonzero row."""

    i: int
    j: int
    n: int
    row: dict  # RootIndex -> coefficient

    def row_position(self):
        return RootIndex(self.i, self.j, self.n).position()


def xij_by_conjugation(mats, i, j):
    """nu(X_ij) by conjugating E_i, checking the one-row structure."""
    n = mats.n
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    table = linalg.EntryTable()
    X = linalg.sparse(mats.E[i - 1], table)
    for t in range(i + 2, j + 1):
        G, Ginv = (linalg.sparse(F[t - 2], table)
                   for F in (mats.G, mats.Ginv))
        X = linalg.mat_mul(G, linalg.mat_mul(X, Ginv, table), table)
    target = RootIndex(i, j, n).position()
    if any(Xa for a, Xa in enumerate(X) if a != target - 1):
        raise StructureError("nu(X_%d%d) has a nonzero entry outside row %d"
                             % (i, j, target))
    row = {root_at(b + 1, n): coeff
           for b, coeff in sorted(X[target - 1].items())}
    return XOperator(i=i, j=j, n=n, row=row)


def xij_direct_coeff(n, i, j, sigma, ctx):
    """Coefficient of w_ij in nu(X_ij)(x_sigma), by pure case dispatch.

    The cases, for sigma = w_{s,t} against the pair (i, j):
      diagonal        s=i, t=j            -> x
      (ML)_k          s=i, t=j-k          -> 1/(l r^{k-1})
      (TR)_k          s=i, t=j+k          -> l r^{k-1}
      (MR)_k          s=i+k, t=j          -> l r^{k-1}
      (TL)_k          s=i-k, t=j          -> 1/(l r^{k-1})
      (SR)_k          s=j,   t=j+k        -> r^{(k-1)+(j-i-1)}
      (SL)_k          s=i-k, t=i          -> 1/r^{(k-1)+(j-i-1)}
      (CR)_(a,b)      s=i+a, t=j+b        -> (r^{a+b-1} - r^{a+b-3})(l - r)
      (CL)_(a,b)      s=i-a, t=j-b        -> (1/r^{a+b-1} - 1/r^{a+b-3})(1/l - 1/r)
      otherwise                            -> 0
    with a, b at least 1 in the crossing rules, so the exact-match rules
    above always win on the boundary.
    """
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    s, t = sigma.i, sigma.j
    if (s, t) == (i, j):
        return ctx.x()
    if s == i:
        k = t - j
        if k > 0:
            return ctx.l() * ctx.r_pow(k - 1)          # (TR)_k
        return ctx.l_inv() * ctx.r_pow(-(-k - 1))      # (ML)_{j-t}
    if t == j:
        k = s - i
        if k > 0:
            return ctx.l() * ctx.r_pow(k - 1)          # (MR)_k
        return ctx.l_inv() * ctx.r_pow(-(-k - 1))      # (TL)_{i-s}
    if s == j:
        k = t - j
        return ctx.r_pow((k - 1) + (j - i - 1))        # (SR)_k
    if t == i:
        k = i - s
        return ctx.r_pow(-((k - 1) + (j - i - 1)))     # (SL)_k
    if i < s < j and t > j:
        a, b = s - i, t - j
        return (ctx.r_pow(a + b - 1) - ctx.r_pow(a + b - 3)) \
            * (ctx.l() - ctx.r_pow(1))                 # (CR)_(a,b)
    if s < i and i < t < j:
        a, b = i - s, j - t
        return (ctx.r_pow(-(a + b - 1)) - ctx.r_pow(-(a + b - 3))) \
            * (ctx.l_inv() - ctx.r_pow(-1))            # (CL)_(a,b)
    return ctx.zero()


def xij_direct(n, i, j, ctx):
    """nu(X_ij) as an XOperator from the direct dispatch."""
    row = {}
    for sigma in all_roots(n):
        c = xij_direct_coeff(n, i, j, sigma, ctx)
        if not c.is_zero():
            row[sigma] = c
    return XOperator(i=i, j=j, n=n, row=row)


@dataclass
class SumMatrix:
    """T(n), the matrix of the sum of all the nu(X_ij)."""

    n: int
    spec: Specialization
    entries: list  # dense square matrix

    @property
    def size(self):
        return num_roots(self.n)


def _stack(n, spec, operators):
    size = num_roots(n)
    zero = spec.field().zero()
    M = [[zero] * size for _ in range(size)]
    for op in operators:
        a = op.row_position() - 1
        for root, coeff in op.row.items():
            M[a][root.position() - 1] = coeff
    return SumMatrix(n=n, spec=spec, entries=M)


def sum_matrix(mats):
    """T(n) assembled from the conjugated operators."""
    ops = [xij_by_conjugation(mats, i, j)
           for i in range(1, mats.n) for j in range(i + 1, mats.n + 1)]
    return _stack(mats.n, mats.spec, ops)


def sum_matrix_direct(n, spec=None):
    """T(n) assembled from the direct dispatch; cheap at any size."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if spec is None:
        spec = Specialization.generic()
    ctx = spec.field()
    ops = [xij_direct(n, i, j, ctx)
           for i in range(1, n) for j in range(i + 1, n + 1)]
    return _stack(n, spec, ops)
