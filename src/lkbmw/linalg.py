"""Exact linear algebra over the coefficient fields.

Entries are field elements (FieldElement or CycElement); every routine works
for any element type supporting +, -, *, /, is_zero() and complexity().
Products and sums of matrices (identity, mat_mul, mat_add, mat_sub,
mat_scale) work on sparse rows: a matrix is a list of rows, each a dict
{column: entry} that stores no zero, so two such matrices are equal exactly
when they compare equal with ==.  sparse and dense convert at the
boundaries.  The sparse-row operations compute every entry product and sum
through an EntryTable, which a caller may share across many operations on
the same entries.  The other routines take dense lists of lists.  The
exceptions take integer data: rref_zr and kernel_basis_zr a matrix over
Z[r] (dense int coefficient lists), bareiss_det_poly a matrix over Z[l, r]
(integer ladders, as rings._ladder builds them), which it eliminates on
packed integers with complete pivoting: the smallest nonzero packed entry
of the remaining rows and columns is the next pivot.
"""

from __future__ import annotations

import math

from .rings import (_Z, FE_ONE, FE_ZERO, FieldElement, Poly2, _divexact,
                    _from_ll, _prs_gcd, _u_mul, _u_sub, _zr_content)


# -- sparse rows: no stored zero ---------------------------------------------

class EntryTable:
    """Each distinct entry held as one object, and each product and each sum
    of two entries computed once.

    Entries are immutable and their arithmetic is deterministic, so a result
    looked up by the identity of its operands equals the one the operation
    would compute.  intern returns the one object equal to a value; every
    result the table returns is interned, so equal results share an object
    and their own products and sums are found again.  Products and sums sit
    in two maps keyed by (id(a), id(b)); each value holds its operands, so
    no key's id is reused while the table lives.
    """

    __slots__ = ("_entries", "_products", "_sums")

    def __init__(self):
        self._entries = {}
        self._products = {}
        self._sums = {}

    def intern(self, e):
        return self._entries.setdefault(e, e)

    def mul(self, a, b):
        hit = self._products.get((id(a), id(b)))
        if hit is None:
            hit = self._products[id(a), id(b)] = a, b, self.intern(a * b)
        return hit[2]

    def add(self, a, b):
        hit = self._sums.get((id(a), id(b)))
        if hit is None:
            hit = self._sums[id(a), id(b)] = a, b, self.intern(a + b)
        return hit[2]

    def neg(self, a):
        return self.intern(-a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))


def _table(table):
    return EntryTable() if table is None else table


def sparse(M, table=None):
    """The sparse rows of a dense matrix, entries interned in the table."""
    intern = _table(table).intern
    return [{j: intern(e) for j, e in enumerate(row) if not e.is_zero()}
            for row in M]


def dense(S, ncols, zero):
    """The dense matrix of sparse rows, ncols wide, zero where unstored."""
    out = []
    for row in S:
        D = [zero] * ncols
        for j, e in row.items():
            D[j] = e
        out.append(D)
    return out


def identity(n, ctx, table=None):
    one = _table(table).intern(ctx.one())
    return [{i: one} for i in range(n)]


def mat_mul(A, B, table=None):
    """A B: row i sums a B_k over the stored entries a = A_ik, and keeps
    only the sums that do not cancel."""
    table = _table(table)
    mul, add = table.mul, table.add
    out = []
    for Ai in A:
        acc = {}
        for k, a in Ai.items():
            for j, b in B[k].items():
                acc[j] = add(acc[j], mul(a, b)) if j in acc else mul(a, b)
        out.append({j: v for j, v in acc.items() if not v.is_zero()})
    return out


def _merge(A, B, combine, lone):
    """Entrywise combine(a, b) where both rows store column j, lone(b) where
    only B does and a where only A does; cancelled entries are dropped."""
    out = []
    for ra, rb in zip(A, B):
        row = dict(ra)
        for j, b in rb.items():
            if j not in row:
                row[j] = lone(b)
                continue
            v = combine(row[j], b)
            if v.is_zero():
                del row[j]
            else:
                row[j] = v
        out.append(row)
    return out


def mat_add(A, B, table=None):
    return _merge(A, B, _table(table).add, lambda b: b)


def mat_sub(A, B, table=None):
    table = _table(table)
    return _merge(A, B, table.sub, table.neg)


def mat_scale(A, c, table=None):
    table = _table(table)
    mul, c = table.mul, table.intern(c)
    return [{j: v for j, a in row.items() if not (v := mul(c, a)).is_zero()}
            for row in A]


# -- dense routines ----------------------------------------------------------

def mat_vec(A, v):
    out = []
    for row in A:
        acc = None
        for a, x in zip(row, v):
            if a.is_zero() or x.is_zero():
                continue
            acc = a * x if acc is None else acc + a * x
        if acc is None:
            acc = row[0] - row[0]
        out.append(acc)
    return out


def is_zero_vector(v):
    return all(e.is_zero() for e in v)


def _pivot_row(A, col, start, weight):
    """The row i >= start whose entry in col has the smallest weight, the
    first of them on a tie; None when weight gives None (a zero entry) for
    every such row."""
    piv = best = None
    for i in range(start, len(A)):
        c = weight(A[i][col])
        if c is not None and (best is None or c < best):
            best, piv = c, i
    return piv


def _field_weight(e):
    return None if e.is_zero() else e.complexity()


def _zr_weight(e):
    """The term count of a dense Z[r] coefficient list."""
    return len(e) - e.count(0) if e else None


def det(M, ctx):
    """Determinant by Gaussian elimination over the field (exact division)."""
    n = len(M)
    if n == 0:
        return ctx.one()
    A = [list(row) for row in M]
    detval = ctx.one()
    for k in range(n):
        piv = _pivot_row(A, k, k, _field_weight)
        if piv is None:
            return ctx.zero()
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            detval = -detval
        pivot = A[k][k]
        detval = detval * pivot
        inv = ctx.one() / pivot
        for i in range(k + 1, n):
            f = A[i][k]
            if f.is_zero():
                continue
            f = f * inv
            Ai, Ak = A[i], A[k]
            for j in range(k + 1, n):
                if not Ak[j].is_zero():
                    Ai[j] = Ai[j] - f * Ak[j]
            Ai[k] = ctx.zero()
    return detval


def rref(M, ctx):
    """Reduced row echelon form.

    Returns (rows, pivot_cols) with unit pivots and zeros above and below.
    Pivot choice within a column favours the entry with the smallest term
    count, which keeps rational-function growth down; the result does not
    depend on the choice.
    """
    A = [list(row) for row in M]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = _pivot_row(A, col, rank, _field_weight)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = ctx.one() / A[rank][col]
        A[rank] = [e * inv for e in A[rank]]
        prow = A[rank]
        for i in range(nrows):
            if i == rank:
                continue
            f = A[i][col]
            if f.is_zero():
                continue
            A[i] = [a - f * p if not p.is_zero() else a
                    for a, p in zip(A[i], prow)]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return A[:rank], pivots


def kernel_basis(M, ctx):
    """A basis of the right kernel, rows in reduced echelon form: scanning
    each basis vector, its first nonzero entry is 1 and sits in a column
    where every other basis vector vanishes (see _echelon_kernel)."""
    R, pivots = rref([row[::-1] for row in M], ctx)
    return _echelon_kernel(R, pivots, len(M[0]) if M else 0,
                           ctx.zero(), ctx.one(), lambda row, p, f: -row[f])


def _echelon_kernel(R, pivots, ncols, zero, one, entry):
    """The kernel of M in reduced echelon form, from a Gauss-Jordan form
    (R, pivots) of M with its columns reversed; entry(row, p, f) is the
    coordinate at pivot column p of the vector of free column f.  That
    vector is 1 at f and nonzero elsewhere only at pivot columns before f,
    so read forwards it leads with 1 at f, where the other vectors are 0.
    Free columns taken from last to first order the vectors by lead."""
    pivot_set = set(pivots)
    basis = []
    for f in reversed(range(ncols)):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(R, pivots):
            if row[f]:
                v[p] = entry(row, p, f)
        basis.append(v[::-1])
    return basis


def rref_zr(M):
    """rref over Q(r) of a matrix over Z[r], entries dense int coefficient
    lists (the coefficient of r^i at index i), kept inside Z[r].

    Returns (rows, pivot_cols): every row is primitive in Z[r], vanishes in
    the other rows' pivot columns, and divided by its own pivot entry is the
    row rref returns.  Gauss-Jordan elimination: with pivot p in row k and
    entry a in row i, row i becomes (p/g) row_i - (a/g) row_k for
    g = gcd(p, a), and is then divided by its content.  Keeping every row
    primitive holds the entries to the size of the reduced echelon form's
    numerators and denominators; without it they grow like minors.  Only
    the columns where row k is nonzero take a product with a/g, and no
    zero entry, nor any entry when p/g is 1, is multiplied by p/g.
    """
    A = [_zr_primitive(row) for row in M]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = _pivot_row(A, col, rank, _zr_weight)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        prow = A[rank]
        p = prow[col]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(nrows):
            a = A[i][col]
            if i == rank or not a:
                continue
            g = _prs_gcd(p, a, _Z)
            pg, ag = _zdiv(p, g), _zdiv(a, g)
            row = (list(A[i]) if pg == [1]
                   else [_u_mul(pg, x) if x else x for x in A[i]])
            for j, y in support:
                row[j] = _u_sub(row[j], _u_mul(ag, y))
            A[i] = _zr_primitive(row)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return A[:rank], pivots


def kernel_basis_zr(M):
    """kernel_basis over Q(r) of a matrix over Z[r] (as for rref_zr), with
    FieldElement entries; the pivot entries are -row[f] / row[p]."""
    R, pivots = rref_zr([row[::-1] for row in M])
    return _echelon_kernel(
        R, pivots, len(M[0]) if M else 0, FE_ZERO, FE_ONE,
        lambda row, p, f: -_zr_ratio(row[f], row[p]))


def unit_pivot_rows_zr(R, pivots):
    """The rows (R, pivots) of rref_zr, each divided by its pivot entry:
    the rref over Q(r), with FieldElement entries."""
    return [[FE_ONE if j == p else _zr_ratio(e, row[p]) if e else FE_ZERO
             for j, e in enumerate(row)] for row, p in zip(R, pivots)]


def _zr_ratio(a, b):
    """a / b as a FieldElement, for a, b in Z[r] as dense int lists."""
    return FieldElement(Poly2(_from_ll([a])), Poly2(_from_ll([b])))


def _zdiv(a, g):
    return a if g == [1] else _divexact(a, g, _Z)


def _zr_primitive(row):
    """The row divided by the gcd of its entries in Z[r].  The shortest
    entries go first, so the running gcd shrinks early and _zr_content
    reaches a unit, where it stops, after few of them."""
    c = _zr_content(sorted(filter(None, row), key=len))
    if c in ([], [1], [-1]):
        return row
    return [_divexact(e, c, _Z) if e else e for e in row]


def rank(M, ctx):
    return len(rref(M, ctx)[0])


def submatrix(M, rows, cols):
    """Extract by 1-based row/column index lists."""
    return [[M[i - 1][j - 1] for j in cols] for i in rows]


# -- fraction-free determinant over Z[l, r] ---------------------------------

def bareiss_det_poly(M):
    """Exact determinant, as a Poly2, of a matrix over Z[l, r] whose entries
    are integer ladders (entry[a][b] the coefficient of l^a r^b, as
    rings._ladder builds them), by Bareiss one-step elimination with
    complete pivoting on Kronecker-packed integers.

    Every entry the elimination produces is a minor of M, so its r-degree is
    below W = 1 + sum_i (max r-degree in row i), and its coefficients, at most
    its maximum on the torus |l| = |r| = 1, are at most Hadamard's bound
    H = ceil(sqrt(prod_i max(1, sum_j ||M_ij||_1^2))) (||.||_1 the sum of the
    absolute coefficients).  That holds for a minor on any rows and columns:
    its own row bound drops columns, which only lowers each row's sum, and
    drops rows, whose factors are at least 1.  The ring map l -> 2^(B W),
    r -> 2^B with 2^(B-1) > H is therefore injective on every minor the
    elimination can reach: a packed entry is zero exactly when its minor
    is, every division by the previous pivot is exact over Z (Sylvester's
    identity), and the last entry unpacks to the determinant as balanced
    base-2^B digits.

    The pivot of step k is the nonzero packed entry of smallest bit_length
    among rows and columns >= k, the first of them in row-major order on a
    tie; a minor's bit length grows with its leading (l, r) slot, then with
    its leading coefficient, so the smallest keeps the minors that later
    steps multiply and divide small.  Its row and its column are swapped
    into place, and each swap flips the sign.  When every such entry is
    zero, so is the determinant.
    """
    n = len(M)
    if n == 0:
        return Poly2.one()
    width, bound = 1, 1
    for row in M:
        width += max((len(v) - 1 for e in row for v in e), default=0)
        bound *= max(1, sum(sum(abs(c) for v in e for c in v) ** 2
                            for e in row))
    bits = (math.isqrt(bound - 1) + 1).bit_length() + 1
    A = [[sum(c << bits * (a * width + b)
              for a, v in enumerate(e) for b, c in enumerate(v) if c)
          for e in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = min(((A[i][j].bit_length(), i, j) for i in range(k, n)
                   for j in range(k, n) if A[i][j]), default=None)
        if piv is None:
            return Poly2.zero()
        _, pi, pj = piv
        if pi != k:
            A[k], A[pi] = A[pi], A[k]
            sign = -sign
        if pj != k:
            for row in A[k:]:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        Ak = A[k]
        pkk = Ak[k]
        for i in range(k + 1, n):
            Ai = A[i]
            aik = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (pkk * Ai[j] - aik * Ak[j]) // prev
        prev = pkk
    packed = sign * A[n - 1][n - 1]
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    terms = {}
    slot = 0
    while packed:
        c = packed & mask
        if c >= half:
            c -= 1 << bits
        if c:
            terms[divmod(slot, width)] = c
        packed = (packed - c) >> bits
        slot += 1
    return Poly2(terms)
