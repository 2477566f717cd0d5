"""Positive roots of the type A_{n-1} root system, as node pairs.

The root alpha_i + ... + alpha_{j-1} is stored as the pair (i, j) with
1 <= i < j <= n; its tangle joins nodes i and j.  Roots are listed in the
order alpha_1, alpha_2, alpha_2+alpha_1, alpha_3, ... : position
binom(j-1, 2) + (j - i) realises this order as a bijection onto
{1, ..., n(n-1)/2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


class IllegalShiftError(ValueError):
    """Raised when beta +- alpha_i is not a positive root."""


@dataclass(frozen=True, order=False)
class RootIndex:
    """A positive root w_{ij} of A_{n-1}, with 1 <= i < j <= n."""

    i: int
    j: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i < self.j <= self.n):
            raise ValueError("invalid root pair (%d, %d) for n=%d"
                             % (self.i, self.j, self.n))

    @property
    def height(self):
        return self.j - self.i

    def position(self):
        """1-based index in the root order."""
        return comb(self.j - 1, 2) + (self.j - self.i)

    def precedes(self, other):
        return self.position() < other.position()

    def __str__(self):
        return "w_{%d,%d}" % (self.i, self.j)


def num_roots(n):
    return n * (n - 1) // 2


def all_roots(n):
    """All positive roots of A_{n-1}, listed in position order."""
    out = []
    for j in range(2, n + 1):
        for i in range(j - 1, 0, -1):
            out.append(RootIndex(i, j, n))
    return out


def root_at(pos, n):
    """Inverse of RootIndex.position."""
    if not (1 <= pos <= num_roots(n)):
        raise ValueError("position %d out of range for n=%d" % (pos, n))
    j = 2
    while comb(j, 2) < pos:
        j += 1
    i = j - (pos - comb(j - 1, 2))
    return RootIndex(i, j, n)


def simple_root(i, n):
    """alpha_i as a RootIndex."""
    return RootIndex(i, i + 1, n)


def inner2(beta, i):
    """Twice the inner product (beta | alpha_i), an integer in {-1, 0, 1, 2}."""
    if not (1 <= i <= beta.n - 1):
        raise ValueError("node %d out of range for n=%d" % (i, beta.n))
    s, t = beta.i, beta.j
    if (s, t) == (i, i + 1):
        return 2
    if s == i or t - 1 == i:
        return 1
    if s - 1 == i or t == i:
        return -1
    return 0


def shift(beta, i):
    """The one positive root beta - alpha_i or beta + alpha_i: beta - alpha_i
    where inner2(beta, i) is 1, beta + alpha_i where it is -1.  For any
    other inner product neither is a positive root."""
    ip = inner2(beta, i)
    s, t, n = beta.i, beta.j, beta.n
    if ip == 1:
        return RootIndex(s + 1, t, n) if s == i else RootIndex(s, t - 1, n)
    if ip == -1:
        return RootIndex(s - 1, t, n) if s - 1 == i else RootIndex(s, t + 1, n)
    raise IllegalShiftError(
        "cannot shift %s by alpha_%d: 2(beta|alpha_i) = %d" % (beta, i, ip))
