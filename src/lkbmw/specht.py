"""Hook-length dimension arithmetic for partitions, the dimension-gap checks
used to classify small irreducible modules of the symmetric group, and the
explicit small Hecke matrix families, checked as modules of the BMW algebra
on which every e_i acts as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .rep import LKMatrices, verify_relations
from .rings import FieldElement, Specialization


@dataclass(frozen=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("partition must be nonempty")
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def n(self):
        return sum(self.parts)

    def conjugate(self):
        parts = []
        for i in range(self.parts[0]):
            parts.append(sum(1 for p in self.parts if p > i))
        return Partition(tuple(parts))

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def hook_dim(lam):
    """Number of standard Young tableaux of the shape: n! over the product
    of the hook lengths."""
    if isinstance(lam, tuple):
        lam = Partition(lam)
    parts = lam.parts
    prod = 1
    for i, row_len in enumerate(parts):
        for j in range(row_len):
            arm = row_len - j - 1
            leg = sum(1 for p in parts[i + 1:] if p > j)
            prod *= arm + leg + 1
    return factorial(lam.n) // prod


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n in reverse lexicographic order."""
    if n == 0:
        return ((),)
    out = []
    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])
    rec(n, n, [])
    return tuple(out)


def sym_dims(n):
    """(Partition, dimension) for every irreducible of Sym(n)."""
    return [(Partition(p), hook_dim(Partition(p))) for p in partitions(n)]


def _allowed_dims(n):
    return {1, n - 1, n * (n - 3) // 2, (n - 1) * (n - 2) // 2}


def gap_violations(n):
    """Partitions whose dimension falls strictly between the allowed small
    values and (n-1)(n-2)/2 without being one of them."""
    allowed = _allowed_dims(n)
    top = (n - 1) * (n - 2) // 2
    out = []
    for lam, d in sym_dims(n):
        if d not in allowed and d <= top:
            out.append((lam, d))
    return out


def dim_gap_check(n):
    """Whether every irreducible dimension is 1, n-1, n(n-3)/2,
    (n-1)(n-2)/2 or exceeds (n-1)(n-2)/2."""
    return not gap_violations(n)


# ---------------------------------------------------------------------------
# explicit small Hecke matrix families
# ---------------------------------------------------------------------------

def _mk(size, entries, ctx):
    M = [[ctx.zero()] * size for _ in range(size)]
    for (i, j), c in entries.items():
        M[i - 1][j - 1] = c
    return M


def seed_matrices(family, n):
    """The generator matrices of the named family over Q(r), and the field.

    'M' is the (n-1)-dimensional family (r-diagonal with one perturbed row)
    and 'P' the 5-dimensional family for five strands.  'N' and 'Q' are
    their conjugates: the same entries under the mirror r -> -1/r, which
    fixes m = 1/r - r.
    """
    ctx = Specialization.l_to(FieldElement.r()).field()
    r, rinv, one = ctx.r_pow(1), ctx.r_pow(-1), ctx.one()
    if family in ("N", "Q"):
        r, rinv = -rinv, -r
    if family in ("M", "N"):
        if n < 3:
            raise ValueError("the diagonal families need n >= 3")
        size = n - 1
        out = []
        for i in range(1, n):
            entries = {(a, a): r for a in range(1, size + 1)}
            entries[(i, i)] = -rinv
            if i > 1:
                entries[(i, i - 1)] = r
            if i < size:
                entries[(i, i + 1)] = rinv
            out.append(_mk(size, entries, ctx))
        return out, ctx
    if family not in ("P", "Q") or n != 5:
        raise ValueError("family must be M/N (n >= 3) or P/Q with n = 5")
    r2 = r * r
    data = [
        {(1, 1): r, (2, 2): r, (3, 3): r,
         (4, 1): one, (4, 3): -r2, (4, 4): -rinv,
         (5, 2): one, (5, 5): -rinv},
        {(1, 1): -rinv, (1, 4): one,
         (2, 2): -rinv, (2, 3): one, (2, 5): one,
         (3, 3): r, (4, 4): r, (5, 5): r},
        {(1, 1): r, (2, 2): r,
         (3, 2): one, (3, 3): -rinv,
         (4, 1): one, (4, 4): -rinv, (4, 5): -r2,
         (5, 5): r},
        {(1, 2): one, (1, 3): -r,
         (2, 1): one, (2, 2): r - rinv, (2, 3): one,
         (3, 3): r,
         (4, 3): -r2, (4, 5): one,
         (5, 3): r, (5, 4): one, (5, 5): r - rinv},
    ]
    return [_mk(5, entries, ctx) for entries in data], ctx


def verify_seed_matrices(family, n):
    """The relations of B(A_{n-1}) on the family read as a module on which
    every e_i acts as 0 (rep.verify_relations): the braid relations and the
    quadratic H^2 + mH = 1."""
    gens, ctx = seed_matrices(family, n)
    m, zero = ctx.m(), ctx.zero()
    size = len(gens[0])
    ginv = [[[h + m if a == b else h for b, h in enumerate(row)]
             for a, row in enumerate(H)] for H in gens]
    return verify_relations(LKMatrices(
        n=n, spec=Specialization.l_to(FieldElement.r()), G=gens,
        E=[[[zero] * size for _ in range(size)]] * len(gens), Ginv=ginv))
