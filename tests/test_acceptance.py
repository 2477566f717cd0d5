"""Acceptance suite: every exit criterion, exact equality, stated budgets.

Each criterion prints one pass/fail line (visible with pytest -s or in the
captured output); all comparisons are exact symbolic or quotient-field
identities, never numeric tolerances.
"""

import time
from math import factorial

import pytest

from test_rep import G1_3, G1_4, G1_5, G2_3, G2_4, G2_5, G3_4, G3_5, G4_5
from test_xij import S_3, S_4, S_5

from lkbmw import linalg
from lkbmw.rep import build_matrices, build_matrices_recursive, verify_relations
from lkbmw.rings import FieldElement, Specialization
from lkbmw.spectral import (CASE_L_NEG_R3, CASE_L_R, CASE_NM1_MINUS,
                            CASE_NM1_PLUS, CASE_ONE_DIM, CASE_ROOT_OF_UNITY,
                            MAX_PINNED_N, _catalogue, _rref_qr, _spec,
                            _t_read, check_membership, det_Sn_formula_check,
                            det_T, kernel, locus_orders, named_vectors,
                            reducibility_locus, submatrix_det, t_matrix)
from lkbmw.specht import (dim_gap_check, gap_violations, hook_dim, sym_dims,
                          verify_seed_matrices)
from lkbmw.xij import sum_matrix, xij_by_conjugation, xij_direct

R = FieldElement.r()
L = FieldElement.l()
GEN = Specialization.generic().field()


def _report(num, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print("[%s] criterion %-2s %s %s" % (status, num, label, extra))
    assert ok, "criterion %s failed: %s" % (num, label)


def test_criterion_1_relation_suite():
    t0 = time.time()
    ok = True
    for n in (3, 4, 5, 6):
        report = verify_relations(build_matrices(n))
        ok = ok and report.all_pass
    elapsed = time.time() - t0
    _report(1, "all defining relations, n=3..6 generic", ok and elapsed < 60,
            "(%.1fs)" % elapsed)


def test_criterion_2_golden_matrices():
    ok = True
    m3 = build_matrices(3)
    ok &= m3.G[0] == G1_3 and m3.G[1] == G2_3
    m4 = build_matrices(4)
    for got, want in zip(m4.G, (G1_4, G2_4, G3_4)):
        ok &= got == want
    m5 = build_matrices(5)
    for got, want in zip(m5.G, (G1_5, G2_5, G3_5, G4_5)):
        ok &= got == want
    expect = -(R ** 3) / L
    for g in m5.G:
        ok &= linalg.det(g, GEN) == expect
    _report(2, "published generator matrices and det -r^3/l", ok)


def test_criterion_3_builder_equivalence():
    ok = True
    for n in (4, 5, 6):
        a, b = build_matrices(n), build_matrices_recursive(n)
        for x, y in zip(a.G + a.E + a.Ginv, b.G + b.E + b.Ginv):
            ok &= x == y
    spec = Specialization.l_to(R)
    a, b = build_matrices(7, spec), build_matrices_recursive(7, spec)
    for x, y in zip(a.G + a.E + a.Ginv, b.G + b.E + b.Ginv):
        ok &= x == y
    _report(3, "recursive block builder = closed form (n=4..6, 7@l=r)", ok)


def test_criterion_4_operator_oracle():
    ok = True
    for n in (3, 4, 5, 6):
        mats = build_matrices(n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                conj = xij_by_conjugation(mats, i, j)  # asserts one-row shape
                ok &= conj.row == xij_direct(n, i, j, mats.spec.field()).row
    for n, table in ((3, S_3), (4, S_4), (5, S_5)):
        ok &= sum_matrix(build_matrices(n)).entries == table
    _report(4, "direct dispatch = conjugation on every entry, n=3..6", ok)


LOCI = {
    3: {(1, 1): 0, (-1, 3): 1, (-1, 0): 2, (1, 0): 2, (1, -3): 1},
    4: {(1, 1): 2, (-1, 3): 3, (1, -1): 3, (-1, -1): 3, (1, -5): 1},
    5: {(1, 1): 5, (-1, 3): 6, (1, -2): 4, (-1, -2): 4, (1, -7): 1},
    6: {(1, 1): 9, (-1, 3): 10, (1, -3): 5, (-1, -3): 5, (1, -9): 1},
}


def test_criterion_5_reducibility_locus():
    ok = True
    elapsed6 = 0.0
    for n in (3, 4, 5, 6):
        t0 = time.time()
        rep = reducibility_locus(n)
        if n == 6:
            elapsed6 = time.time() - t0
        got = {(f.eps, f.k): f.multiplicity for f in rep.factors}
        want = {k: v for k, v in LOCI[n].items() if v}
        ok &= got == want
        ok &= rep.residual.num.degree_l() == 0
        ok &= rep.reconstructs()
    ok &= elapsed6 < 600
    _report(5, "solver multiplicities, n=3..6", ok,
            "(n=6 in %.1fs)" % elapsed6)


KERNEL_GRID = (
    [(n, R ** -(2 * n - 3), 1) for n in (4, 5, 6, 7, 8)]
    + [(n, eps * R ** -(n - 3), n - 1)
       for n in (3, 5, 6, 7) for eps in (1, -1)]
    + [(4, 1 / R, 3), (4, -(1 / R), 3)]
    + [(n, R, n * (n - 3) // 2) for n in (4, 5, 6, 7)]
    + [(n, -(R ** 3), (n - 1) * (n - 2) // 2) for n in (3, 4, 5, 6, 7)]
)


def test_criterion_6_kernel_dimensions():
    ok = True
    worst = 0.0
    for n, lval, dim in KERNEL_GRID:
        t0 = time.time()
        rep = kernel(n, Specialization.l_to(lval))
        worst = max(worst, time.time() - t0)
        if rep.dim != dim:
            print("  kernel mismatch: n=%d l=%s got %d want %d"
                  % (n, lval, rep.dim, dim))
            ok = False
    ok &= worst < 120
    _report(6, "kernel dimensions over Q(r), %d cases" % len(KERNEL_GRID),
            ok, "(slowest %.1fs)" % worst)


def test_criterion_7_root_of_unity_kernels():
    ok = True
    for n, mod, dim in ((3, 12, 2), (4, 16, 4), (5, 20, 7), (6, 24, 11)):
        spec = Specialization.l_to_mod(-(R ** 3), mod)
        ok &= kernel(n, spec).dim == dim
    spec3 = Specialization.l_to_mod(-(R ** 3), 12)
    rep3 = kernel(3, spec3)
    for v in named_vectors(3, CASE_ROOT_OF_UNITY):
        ok &= check_membership(v)
        ok &= rep3.contains(v.vector())
    _report(7, "cyclotomic-point kernels (4n-th and 12th roots)", ok)


def test_criterion_8_named_vectors():
    ok = True
    checked = 0
    plan = (
        [(n, CASE_ONE_DIM) for n in range(3, 9)]
        + [(n, CASE_NM1_PLUS) for n in (3, 4, 5, 6, 7)]
        + [(n, CASE_NM1_MINUS) for n in (3, 4, 5, 6, 7)]
        + [(n, CASE_L_R) for n in range(4, 9)]
        + [(n, CASE_L_NEG_R3) for n in range(3, 9)]
    )
    for n, case in plan:
        for v in named_vectors(n, case):
            checked += 1
            if not check_membership(v):
                print("  membership failed: n=%d %s %s" % (n, case, v.name))
                ok = False
    ctx = Specialization.l_to(R).field()
    for n, expect in ((5, 5), (6, 9), (7, 14)):
        rows = [v.vector() for v in named_vectors(n, CASE_L_R)
                if v.name.startswith("tower")]
        ok &= linalg.rank(rows, ctx) == expect
    _report(8, "published spanning vectors in their kernels", ok,
            "(%d vectors)" % checked)


def test_criterion_9_submatrix_fixtures():
    spec_r = Specialization.l_to(R)
    spec_neg = Specialization.l_to(-(R ** 3))
    ok = submatrix_det(5, spec_r, [1, 2, 3, 4, 7], [1, 2, 3, 4, 7]) \
        == (R ** 2 + 1) ** 2 / R ** 2
    ok &= submatrix_det(6, spec_r, [1, 2, 3, 4, 7], [1, 2, 3, 4, 12]).is_zero()
    ok &= submatrix_det(6, spec_neg, [1, 3, 4, 7], [1, 3, 4, 12]) == R ** 9
    for n in (5, 6, 7, 8):
        ok &= det_Sn_formula_check(n)
    _report(9, "submatrix determinants and the nested closed form", ok)


def test_criterion_10_specht():
    ok = True
    seven = {(5, 2): 14, (5, 1, 1): 15, (4, 3): 14, (4, 2, 1): 35,
             (4, 1, 1, 1): 20, (3, 3, 1): 21}
    eight = {(6, 2): 20, (6, 1, 1): 21, (5, 3): 28, (5, 2, 1): 64,
             (5, 1, 1, 1): 35, (4, 4): 14, (4, 3, 1): 70, (4, 2, 2): 56,
             (4, 2, 1, 1): 90, (3, 3, 2): 42}
    for shape, dim in {**seven, **eight}.items():
        ok &= hook_dim(shape) == dim
    for n in range(1, 11):
        ok &= sum(d * d for _, d in sym_dims(n)) == factorial(n)
    for n in (7, 9, 10, 11, 12):
        ok &= dim_gap_check(n)
    ok &= not dim_gap_check(8)
    ok &= all(d == 14 for _, d in gap_violations(8))
    for fam in ("M", "N"):
        for n in (4, 5, 6, 7, 8):
            ok &= verify_seed_matrices(fam, n).all_pass
    for fam in ("P", "Q"):
        ok &= verify_seed_matrices(fam, 5).all_pass
    _report(10, "hook dimensions, gap checks, seed families", ok)


def test_criterion_11_point_checks_beyond_desk_scale():
    ok = True
    for n in (7, 8):
        for lval in (R, -(R ** 3), R ** -(n - 3), -(R ** -(n - 3)),
                     R ** -(2 * n - 3)):
            # a nonzero kernel is an exact certificate that det T(n) = 0
            ok &= kernel(n, Specialization.l_to(lval)).dim > 0
        ok &= kernel(n, Specialization.l_to(R ** 2)).dim == 0
    # one direct determinant as corroboration at the off-locus point
    ok &= not det_T(7, Specialization.l_to(R ** 2)).is_zero()
    _report(11, "point probes of the locus at n=7,8", ok)


def test_criterion_12_locus_certificate():
    """det T(n) is the closed form of locus_orders for n <= MAX_PINNED_N.
    l^N det T(n) is a polynomial in l of degree exactly 2N, since its top
    coefficient det T_+ is not 0 (test_the_top_l_part_of_T_is_triangular),
    and its order at a root is at least dim K(n) there.  Route a: at each
    of the five roots the verified spanning family (the catalogue, with the
    embedded ladders at -r^3) has exact rank locus_orders(n)[root], and the
    ranks sum to 2N = n(n-1), so every bound is tight.  Route b, on its
    own: eliminating T(n) gives the same kernel dimensions at n = 7, 8."""
    ok = True
    t0 = time.time()
    for n in range(3, MAX_PINNED_N + 1):
        ranks = {root: len(_rref_qr(_catalogue(n, _spec(*root))[1])[1])
                 for root in locus_orders(n)}
        ok &= ranks == locus_orders(n)
        ok &= sum(ranks.values()) == n * (n - 1)
    route_a = time.time() - t0
    for n in (7, 8):
        for root, e in locus_orders(n).items():
            ok &= len(linalg.kernel_basis_zr(_t_read(n, _spec(*root)))) == e
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(12, "locus certificate: family ranks n=3..%d, kernels n=7,8"
            % MAX_PINNED_N, ok, "(route a %.1fs, all %.1fs)"
            % (route_a, elapsed))
