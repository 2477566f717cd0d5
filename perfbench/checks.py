"""Correctness checks for the benchmark's `lk` outputs.

Every check is made apart from the program: the expected counts come from
the paper's closed forms, and the determinants, ranks, kernels and relations
are recomputed modulo a large prime at seeded random points with the
benchmark's own arithmetic (the expression evaluator and elimination
below).  The program supplies only the symbolic matrices T(n), G_i and E_i
over Q(l, r), which the checks evaluate entry by entry.
"""

from __future__ import annotations

import functools
import json
import random
import re

from workloads import kernel_points

# a Mersenne prime for the points of Q(l, r) and Q(r)
P_GENERIC = (1 << 61) - 1
# seeded points per locus output at which the determinant is compared
LOCUS_POINTS = 3


# ---------------------------------------------------------------------------
# arithmetic modulo p
# ---------------------------------------------------------------------------

def is_prime(n):
    """Miller-Rabin with the first twelve prime bases, which is exact for
    n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_one_mod(m):
    """The least prime p > 2^61 with p = 1 (mod m), so that Phi_m splits
    into linear factors modulo p."""
    p = ((1 << 61) // m + 1) * m + 1
    while not is_prime(p):
        p += m
    return p


def _prime_factors(m):
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


def root_of_unity(m, p, rng):
    """A primitive m-th root of unity modulo p (p = 1 mod m), drawn with
    rng: a root of Phi_m modulo p."""
    while True:
        z = pow(rng.randrange(2, p - 1), (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in _prime_factors(m)):
            return z


def inv(a, p):
    if a % p == 0:
        raise ZeroDivisionError("pole modulo p")
    return pow(a, p - 2, p)


_TOKEN = re.compile(r"\s*(?:(\d+)|([lr])|([-+*/^()]))")


def evaluate(text, l, r, p):
    """Value modulo p of an expression in l and r, in the syntax `lk`
    prints and reads: integers, l, r, + - * / ^ and parentheses."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("cannot read %r at %d" % (text, pos))
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append(None)
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        tok = tokens[at[0]]
        at[0] += 1
        return tok

    def expr():
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value % p

    def term():
        value = factor()
        while peek() in ("*", "/"):
            if take() == "*":
                value = value * factor() % p
            else:
                value = value * inv(factor(), p) % p
        return value

    def factor():
        if peek() == "-":
            take()
            return -factor() % p
        if peek() == "+":
            take()
            return factor()
        return power()

    def power():
        base = atom()
        if peek() != "^":
            return base
        take()
        sign = -1 if peek() == "-" else 1
        if peek() in ("-", "+"):
            take()
        e = int(take())
        return pow(base, e, p) if sign > 0 else inv(pow(base, e, p), p)

    def atom():
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            return value
        if tok == "l":
            return l % p
        if tok == "r":
            return r % p
        if tok is not None and tok.isdigit():
            return int(tok) % p
        raise ValueError("unexpected %r in %r" % (tok, text))

    value = expr()
    if peek() is not None:
        raise ValueError("trailing %r in %r" % (peek(), text))
    return value


def _poly_value(terms, l, r, p):
    total = 0
    for (dl, dr), c in terms.items():
        total += (int(c.numerator) * inv(int(c.denominator), p)
                  * pow(l, dl, p) * pow(r, dr, p))
    return total % p


def matrix_at(M, l, r, p):
    """A matrix of lkbmw FieldElements over Q(l, r), evaluated at (l, r)
    modulo p; raises ZeroDivisionError at a pole."""
    return [[_poly_value(e.num.terms, l, r, p)
             * inv(_poly_value(e.den.terms, l, r, p), p) % p for e in row]
            for row in M]


def _eliminate(M, p):
    """Row echelon form modulo p; returns (rank, det) of the square or
    rectangular matrix (det is that of the leading square block)."""
    A = [list(row) for row in M]
    nrows, ncols = len(A), len(A[0]) if A else 0
    rank, det = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if A[i][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            det = -det
        det = det * A[rank][col] % p
        pinv = inv(A[rank][col], p)
        for i in range(rank + 1, nrows):
            f = A[i][col] * pinv % p
            if f:
                Ai, Ar = A[i], A[rank]
                for j in range(col, ncols):
                    Ai[j] = (Ai[j] - f * Ar[j]) % p
        rank += 1
    return rank, det % p


def rank_mod(M, p):
    return _eliminate(M, p)[0]


def det_mod(M, p):
    return _eliminate(M, p)[1]


def mat_mul_mod(A, B, p):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in Bt]
            for row in A]


# ---------------------------------------------------------------------------
# closed forms from the paper
# ---------------------------------------------------------------------------

def locus_multiplicities(n):
    """(eps, k) -> multiplicity of l - eps r^k in det T(n), n >= 4."""
    return {(1, 1): n * (n - 3) // 2, (-1, 3): (n - 1) * (n - 2) // 2,
            (1, -(n - 3)): n - 1, (-1, -(n - 3)): n - 1,
            (1, -(2 * n - 3)): 1}


def kernel_dim(n, l_expr, cyclotomic):
    """dim K(n) at l = l_expr over Q(r), or modulo Phi_{4n}, where
    r^{2n} = -1 makes l = -r^3 and l = 1/r^{2n-3} the same point, whose
    kernel then has the sum of the two dimensions."""
    points = kernel_points(n)
    dims = [n * (n - 3) // 2, (n - 1) * (n - 2) // 2, n - 1, n - 1, 1, 0]
    if cyclotomic:
        dims[1] = dims[4] = dims[1] + dims[4]
    return dims[points.index(l_expr)]


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks `lk` outputs.  ``sum_matrix_direct(n)`` and
    ``build_matrices(n)`` are the program's builders of T(n) (``.entries``)
    and of G_i, E_i (``.G``, ``.E``) over Q(l, r); each is called once per
    n."""

    def __init__(self, seed, sum_matrix_direct, build_matrices):
        self.seed = seed
        self._sum_matrix = functools.cache(sum_matrix_direct)
        self._matrices = functools.cache(build_matrices)

    def check(self, args, stdout):
        """Problems found in one command's output; empty when correct."""
        rng = random.Random("%d:%s" % (self.seed, " ".join(args)))
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["output is not JSON"]
        opts = dict(zip(args[1::2], args[2::2]))
        n = int(opts["--n"])
        if payload.get("command") != args[0] or payload.get("n") != n:
            return ["output is for another command"]
        try:
            if args[0] == "locus":
                return self.check_locus(n, payload, rng)
            if args[0] == "kernel":
                return self.check_kernel(n, opts["--l"],
                                         opts.get("--modulus"), payload, rng)
            if args[0] == "verify":
                return self.check_relations(n, payload, rng)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return ["%s: %s" % (type(exc).__name__, exc)]
        return ["no check for %r" % args[0]]

    def check_locus(self, n, payload, rng):
        p = P_GENERIC
        problems = []
        got = {(f["eps"], f["k"]): f["multiplicity"]
               for f in payload["factors"]}
        if got != locus_multiplicities(n):
            problems.append("multiplicities %s differ from the closed form"
                            % sorted(got.items()))
        if payload["residual_l_degree"] != 0:
            problems.append("residual has l-degree %s"
                            % payload["residual_l_degree"])
        T = self._sum_matrix(n).entries
        for _ in range(LOCUS_POINTS):
            l0, r0 = rng.randrange(2, p), rng.randrange(2, p)
            if evaluate(payload["residual"], l0, r0, p) != evaluate(
                    payload["residual"], rng.randrange(2, p), r0, p):
                problems.append("residual depends on l")
            value = evaluate(payload["scalar"], l0, r0, p)
            value = value * inv(pow(l0, payload["l_denominator_power"], p),
                                p) * evaluate(payload["residual"], l0, r0, p)
            for f in payload["factors"]:
                fv = evaluate(f["factor"], l0, r0, p)
                want = (l0 - f["eps"] * (pow(r0, f["k"], p) if f["k"] >= 0
                                         else inv(pow(r0, -f["k"], p), p)))
                if fv != want % p:
                    problems.append("factor %s is not l - eps r^k"
                                    % f["factor"])
                value = value * pow(fv, f["multiplicity"], p)
            if value % p != det_mod(matrix_at(T, l0, r0, p), p):
                problems.append("factored determinant differs from det T(%d)"
                                " at a random point" % n)
                break
        return problems

    def check_kernel(self, n, l_expr, modulus, payload, rng):
        cyclotomic = modulus is not None
        problems = []
        dim = payload["dim"]
        if dim != kernel_dim(n, l_expr, cyclotomic):
            problems.append("dim %s differs from the closed form %s"
                            % (dim, kernel_dim(n, l_expr, cyclotomic)))
        basis = payload["basis"]
        if len(basis) != dim:
            problems.append("%d basis vectors for dim %s" % (len(basis), dim))
        false = [name for name, ok in payload["named_verdicts"].items()
                 if ok is not True]
        if false:
            problems.append("catalogue verdicts not true: %s" % false)
        if cyclotomic:
            m = int(modulus.split(":", 1)[1])
            p = prime_one_mod(m)
        else:
            p = P_GENERIC
        T = self._sum_matrix(n).entries
        for _ in range(5):   # a drawn point may be a pole of T(n)
            r0 = root_of_unity(m, p, rng) if cyclotomic else rng.randrange(
                2, p)
            l0 = evaluate(l_expr, 0, r0, p)
            try:
                T0 = matrix_at(T, l0, r0, p)
            except ZeroDivisionError:
                continue
            break
        else:
            return problems + ["no point without a pole found"]
        N = len(T0)
        if N - dim != rank_mod(T0, p):
            problems.append("N - dim = %d but rank T(%d) = %d modulo p"
                            % (N - dim, n, rank_mod(T0, p)))
        vectors = [[evaluate(e, l0, r0, p) for e in v] for v in basis]
        for i, v in enumerate(vectors):
            if len(v) != N or any(sum(a * b for a, b in zip(row, v)) % p
                                  for row in T0):
                problems.append("basis vector %d is not annihilated" % i)
        if vectors and rank_mod(vectors, p) != len(vectors):
            problems.append("basis vectors are dependent")
        return problems

    def check_relations(self, n, payload, rng):
        p = P_GENERIC
        problems = []
        verdicts = dict(payload["checks"])
        if payload["all_pass"] is not True:
            problems.append("all_pass is not true")
        false = [name for name, ok in verdicts.items() if ok is not True]
        if false:
            problems.append("relations reported false: %s" % false)
        mats = self._matrices(n)
        while True:
            l0, r0 = rng.randrange(2, p), rng.randrange(2, p)
            try:
                Gs = [matrix_at(g, l0, r0, p) for g in mats.G]
                Es = [matrix_at(e, l0, r0, p) for e in mats.E]
                m0 = (inv(r0, p) - r0) % p
                x0 = (1 - (l0 - inv(l0, p)) * inv(m0, p)) % p
            except ZeroDivisionError:
                continue
            break
        linv = inv(l0, p)

        def scaled(A, c):
            return [[a * c % p for a in row] for row in A]

        spot = {}
        for a in range(n - 1):
            EE = mat_mul_mod(Es[a], Es[a], p)
            spot["idempotent e%d^2=x e%d" % (a + 1, a + 1)] = (
                EE == scaled(Es[a], x0))
            spot["(4) g%de%d=l^-1 e%d" % (a + 1, a + 1, a + 1)] = (
                mat_mul_mod(Gs[a], Es[a], p) == scaled(Es[a], linv))
        for a in range(n - 2):
            lhs = mat_mul_mod(Gs[a], mat_mul_mod(Gs[a + 1], Gs[a], p), p)
            rhs = mat_mul_mod(Gs[a + 1], mat_mul_mod(Gs[a], Gs[a + 1], p), p)
            spot["(2) braid g%d,g%d" % (a + 1, a + 2)] = lhs == rhs
        for name, ok in spot.items():
            if verdicts.get(name) is not ok:
                problems.append("spot check of %s gives %s, the program %s"
                                % (name, ok, verdicts.get(name)))
        return problems
