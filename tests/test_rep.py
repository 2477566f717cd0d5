"""Representation builders against the published matrix displays."""

import dataclasses
import hashlib
import json

import pytest

from lkbmw import linalg, specht
from lkbmw.rep import (build_matrices, build_matrices_recursive, nu_images,
                       verify_relations)
from lkbmw.rings import FE_ZERO, FieldElement, Specialization, specialize
from lkbmw.roots import RootIndex, all_roots

GEN = Specialization.generic().field()
L = FieldElement.l()
R = FieldElement.r()


def grid(rows):
    """Evaluate a table of terse entry expressions into a matrix."""
    ns = {"l": L, "r": R, "m": GEN.m(), "x": GEN.x()}
    out = []
    for row in rows:
        out.append([e if isinstance(e, FieldElement)
                    else (FieldElement.from_int(e) if isinstance(e, int)
                          else _ev(e, ns))
                    for e in row])
    return out


def _ev(expr, ns):
    v = eval(expr, {"__builtins__": {}}, ns)  # noqa: S307 - test fixture
    return FieldElement.from_int(v) if isinstance(v, int) else v


G1_3 = grid([
    ["1/l", "m", 0],
    [0, "-m", 1],
    [0, 1, 0],
])

G2_3 = grid([
    [0, 0, 1],
    [0, "1/l", "m/l"],
    [1, 0, "-m"],
])

G1_4 = grid([
    ["1/l", "m", 0, 0, "m*r", 0],
    [0, "-m", 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, "r", 0, 0],
    [0, 0, 0, 0, "-m", 1],
    [0, 0, 0, 0, 1, 0],
])

G2_4 = grid([
    [0, 0, 1, 0, 0, 0],
    [0, "1/l", "m/l", "m", 0, 0],
    [1, 0, "-m", 0, 0, 0],
    [0, 0, 0, "-m", 1, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, "r"],
])

G3_4 = grid([
    ["r", 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, "1/l", "m/l", "m/(l*r)"],
    [0, 1, 0, 0, "-m", 0],
    [0, 0, 1, 0, 0, "-m"],
])

G1_5 = grid([
    ["1/l", "m", 0, 0, "m*r", 0, 0, 0, "m*r**2", 0],
    [0, "-m", 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, "r", 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, "-m", 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, "r", 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, "r", 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, "-m", 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
])

G2_5 = grid([
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, "1/l", "m/l", "m", 0, 0, 0, "m*r", 0, 0],
    [1, 0, "-m", 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, "-m", 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, "r", 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, "r", 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, "-m", 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, "r"],
])

G3_5 = grid([
    ["r", 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, "1/l", "m/l", "m/(l*r)", "m", 0, 0, 0],
    [0, 1, 0, 0, "-m", 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, "-m", 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, "-m", 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, "r", 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, "r"],
])

G4_5 = grid([
    ["r", 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, "r", 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, "r", 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, "1/l", "m/l", "m/(l*r)", "m/(l*r**2)"],
    [0, 0, 0, 1, 0, 0, 0, "-m", 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, "-m", 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, "-m"],
])


def test_golden_matrices_three_strands():
    mats = build_matrices(3)
    assert mats.G[0] == G1_3
    assert mats.G[1] == G2_3


def test_golden_matrices_four_strands():
    mats = build_matrices(4)
    assert mats.G[0] == G1_4
    assert mats.G[1] == G2_4
    assert mats.G[2] == G3_4


def test_golden_matrices_five_strands():
    mats = build_matrices(5)
    for got, want in zip(mats.G, (G1_5, G2_5, G3_5, G4_5)):
        assert got == want


def test_det_of_every_five_strand_generator():
    mats = build_matrices(5)
    expect = -(R ** 3) / L
    for g in mats.G:
        assert linalg.det(g, GEN) == expect


# -- the case formulas pointwise ---------------------------------------------

def test_nu_action_adjacent_example():
    col = nu_images(1, RootIndex(2, 3, 3), GEN)[0]
    m = GEN.m()
    assert col == {RootIndex(1, 3, 3): GEN.one(),
                   RootIndex(1, 2, 3): m,
                   RootIndex(2, 3, 3): -m}


def test_nu_action_disjoint_is_r():
    col = nu_images(3, RootIndex(1, 2, 4), GEN)[0]
    assert col == {RootIndex(1, 2, 4): R}


def test_nu_action_tall_column():
    col = nu_images(4, RootIndex(1, 5, 5), GEN)[0]
    m = GEN.m()
    assert col == {RootIndex(1, 4, 5): GEN.one(),
                   RootIndex(4, 5, 5): m / (L * R ** 2),
                   RootIndex(1, 5, 5): -m}


def test_nu_e_action_examples():
    assert nu_images(1, RootIndex(1, 2, 3), GEN)[1] == {
        RootIndex(1, 2, 3): GEN.x()}
    assert nu_images(2, RootIndex(1, 3, 3), GEN)[1] == {
        RootIndex(2, 3, 3): 1 / L}


def test_nu_inverse_inverts():
    n = 5
    mats = build_matrices(n)
    ident = linalg.identity(mats.size, GEN)
    for g, ginv in zip(mats.G, mats.Ginv):
        g, ginv = linalg.sparse(g), linalg.sparse(ginv)
        assert linalg.mat_mul(g, ginv) == ident
        assert linalg.mat_mul(ginv, g) == ident


def test_nu_inv_action_matches_matrix_inverse():
    # against the block recursion, whose G_i^{-1} = G_i + m - m E_i does
    # not read the case formulas
    n = 4
    mats = build_matrices_recursive(n)
    for i in range(1, n):
        for beta in all_roots(n):
            col = nu_images(i, beta, GEN)[2]
            dense = [GEN.zero()] * mats.size
            for root, c in col.items():
                dense[root.position() - 1] = c
            assert dense == [mats.Ginv[i - 1][a][beta.position() - 1]
                             for a in range(mats.size)]


# -- recursive block builder --------------------------------------------------

# the builders in two quotient fields: Q(r) at a rational l, and Q(r) modulo
# Phi_20 at l = -r^3
QUOTIENTS = [("(r^2+r+1)/(r-2)", None, ""), ("-r^3", 20, "-mod-Phi20")]


@pytest.mark.parametrize("n, lval, modulus", [
    pytest.param(4, None, None, id="4"),
    pytest.param(5, None, None, id="5"),
    *(pytest.param(n, lval, modulus, id="%d-l=%s%s" % (n, lval, tag))
      for lval, modulus, tag in QUOTIENTS for n in (4, 5, 6))])
def test_recursive_builder_matches_closed_form(n, lval, modulus):
    if lval is None:
        spec = None
    elif modulus is None:
        spec = Specialization.l_to(lval)
    else:
        spec = Specialization.l_to_mod(lval, modulus)
    a = build_matrices(n, spec)
    b = build_matrices_recursive(n, spec)
    for x, y in zip(a.G + a.E + a.Ginv, b.G + b.E + b.Ginv):
        assert x == y


def test_recursive_corner_entry():
    mats = build_matrices_recursive(5)
    assert mats.G[0][0][8] == GEN.m() * R ** 2


# -- relations ----------------------------------------------------------------

@pytest.mark.parametrize("build", [build_matrices, build_matrices_recursive])
def test_builders_refuse_two_strands(build):
    with pytest.raises(ValueError):
        build(2)


@pytest.mark.parametrize("n", [3, 4])
def test_relations_generic(n):
    report = verify_relations(build_matrices(n))
    assert report.all_pass, report.failures


@pytest.mark.parametrize("n", [9, 10])
def test_relations_generic_large(n):
    report = verify_relations(build_matrices(n))
    assert report.all_pass, report.failures


# A corrupted matrix, one entry at a time: the relations that must then fail.
# Ginv_1 enters only the inverse law; E_2 is compared with the polynomial in
# G_2 and enters the quadratic relation of G_2; G_1 meets its inverse and E_1;
# G_2 enters the braid product G_1 G_2 and the shared m G_2 as well.
_MUST_FAIL = {
    ("G", 0): {"(3) e1 polynomial in g1", "(9) inverse law g1"},
    ("G", 1): {"(2) braid g1,g2", "(3) e2 polynomial in g2",
               "(8) g2^2=1-mg+ml^-1 e", "(9) inverse law g2"},
    ("E", 1): {"(3) e2 polynomial in g2", "(8) g2^2=1-mg+ml^-1 e"},
    ("Ginv", 0): {"(9) inverse law g1"},
}


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("family,index", sorted(_MUST_FAIL))
@pytest.mark.parametrize("kind", ["zero_to_nonzero", "nonzero_to_zero"])
@pytest.mark.parametrize("pick", ["first", "last"])
def test_corrupted_entry_fails_its_relations(n, family, index, kind, pick):
    mats = build_matrices(n)
    M = [list(row) for row in getattr(mats, family)[index]]
    cells = [(i, j) for i, row in enumerate(M) for j, e in enumerate(row)
             if e.is_zero() == (kind == "zero_to_nonzero")]
    i, j = cells[0 if pick == "first" else -1]
    M[i][j] = R if M[i][j].is_zero() else FE_ZERO
    family_mats = list(getattr(mats, family))
    family_mats[index] = M
    report = verify_relations(dataclasses.replace(mats,
                                                  **{family: family_mats}))
    assert not report.all_pass
    assert _MUST_FAIL[family, index] <= set(report.failures)
    if family == "Ginv":
        assert report.failures == ["(9) inverse law g1"]


def test_distant_e_product_must_vanish():
    # E_1 E_3 is E_1[w_12][w_34] times the row of w_34 of E_3, so a nonzero
    # at that zero of E_1 must fail e1e3=0
    mats = build_matrices(5)
    E1 = [list(row) for row in mats.E[0]]
    a, b = RootIndex(1, 2, 5).position() - 1, RootIndex(3, 4, 5).position() - 1
    assert E1[a][b].is_zero()
    E1[a][b] = R
    report = verify_relations(dataclasses.replace(mats, E=[E1] + mats.E[1:]))
    assert "e1e3=0" in report.failures


def test_relation_report_names_are_pinned():
    # the names and order of every check for n = 3..8; the fixtures pin
    # only n = 3 and 5
    names = [[name for name, _ in verify_relations(build_matrices(
        n, Specialization.l_to_mod(-(R ** 3), 20))).checks]
             for n in range(3, 9)]
    assert sum(map(len, names)) == 379
    assert hashlib.sha256(json.dumps(names).encode()).hexdigest() == (
        "5df4b023e7120762c3540d5efb3820d8ab523deb2619df6e11037f296f15ffa0")


def test_relations_specialized():
    spec = Specialization.l_to(-(R ** 3))
    report = verify_relations(build_matrices(4, spec))
    assert report.all_pass, report.failures


def test_relations_quotient_field():
    # l = -r^3 modulo Phi_12 at n = 3 and modulo Phi_20 at n = 5, where
    # every relation family occurs
    for n, index in ((3, 12), (5, 20)):
        spec = Specialization.l_to_mod(-(R ** 3), index)
        report = verify_relations(build_matrices(n, spec))
        assert report.all_pass, report.failures


def _one_table_per_operation(monkeypatch):
    """Make every sparse-row operation of linalg ignore the table it is
    given, so that each runs on a fresh one."""
    for name, arity in (("sparse", 1), ("identity", 2), ("mat_mul", 2),
                        ("mat_add", 2), ("mat_sub", 2), ("mat_scale", 2)):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *args, fn=fn, arity=arity, table=None:
                            fn(*args[:arity]))


def test_one_shared_table_gives_the_reports_of_fresh_tables(monkeypatch):
    # every report of verify_relations, with its entry table shared by all
    # checks, equals the report with a fresh table per operation; a
    # corrupted G_2 makes some checks fail
    cases = [(n, spec) for n in range(3, 7) for spec in (
        Specialization.generic(),
        Specialization.l_to((R * R + R + 1) / (R - 2)),
        Specialization.l_to_mod(-(R ** 3), 20))]
    mats = [build_matrices(n, spec) for n, spec in cases]
    G2 = [list(row) for row in mats[-1].G[1]]
    G2[0][0] = mats[-1].spec.field().r_pow(1)
    mats.append(dataclasses.replace(mats[-1],
                                    G=mats[-1].G[:1] + [G2] + mats[-1].G[2:]))
    seeds = [("M", 4), ("M", 5), ("N", 4), ("N", 6), ("P", 5), ("Q", 5)]
    shared = ([verify_relations(M) for M in mats]
              + [specht.verify_seed_matrices(*seed) for seed in seeds])
    assert not shared[len(cases)].all_pass
    _one_table_per_operation(monkeypatch)
    fresh = ([verify_relations(M) for M in mats]
             + [specht.verify_seed_matrices(*seed) for seed in seeds])
    assert shared == fresh


def test_eigen_relation():
    # (G - l^{-1}) (G^2 + m G - 1) = 0
    mats = build_matrices(4)
    ident = linalg.identity(mats.size, GEN)
    m = GEN.m()
    for g in map(linalg.sparse, mats.G):
        a = linalg.mat_sub(g, linalg.mat_scale(ident, 1 / L))
        b = linalg.mat_sub(
            linalg.mat_add(linalg.mat_mul(g, g), linalg.mat_scale(g, m)),
            ident)
        assert a != [{}] * mats.size and b != [{}] * mats.size
        assert linalg.mat_mul(a, b) == [{}] * mats.size


@pytest.mark.parametrize("lval", ["r", "-r^3", "1/r^2"])
def test_specialize_commutes_with_build(lval):
    # entry-wise specialization of the symbolic matrices equals direct
    # construction over the target field
    n = 4
    spec = Specialization.l_to(lval)
    generic = build_matrices(n)
    direct = build_matrices(n, spec)
    for gg, dd in zip(generic.G + generic.E, direct.G + direct.E):
        for grow, drow in zip(gg, dd):
            assert [specialize(e, spec) for e in grow] == drow


def test_relations_seven_strands_specialized():
    spec = Specialization.l_to(R)
    report = verify_relations(build_matrices(7, spec))
    assert report.all_pass, report.failures
