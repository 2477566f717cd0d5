"""Hook-length dimensions and the explicit Hecke families."""

import hashlib
import json
from math import factorial

import pytest

from lkbmw import specht
from lkbmw.rings import FE_ZERO
from lkbmw.specht import (Partition, dim_gap_check, gap_violations, hook_dim,
                          partitions, seed_matrices, sym_dims,
                          verify_seed_matrices)

SEVEN = {(5, 2): 14, (5, 1, 1): 15, (4, 3): 14, (4, 2, 1): 35,
         (4, 1, 1, 1): 20, (3, 3, 1): 21}

EIGHT = {(6, 2): 20, (6, 1, 1): 21, (5, 3): 28, (5, 2, 1): 64,
         (5, 1, 1, 1): 35, (4, 4): 14, (4, 3, 1): 70, (4, 2, 2): 56,
         (4, 2, 1, 1): 90, (3, 3, 2): 42}


def test_seven_strand_table():
    for shape, dim in SEVEN.items():
        assert hook_dim(shape) == dim


def test_eight_strand_table():
    for shape, dim in EIGHT.items():
        assert hook_dim(shape) == dim


def test_trivial_and_hook_shapes():
    assert hook_dim((9,)) == 1
    assert hook_dim((1,) * 6) == 1
    assert hook_dim((5, 1)) == 5


@pytest.mark.parametrize("n", list(range(1, 11)))
def test_sum_of_squares_is_factorial(n):
    assert sum(d * d for _, d in sym_dims(n)) == factorial(n)


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_conjugation_invariance(n):
    for p in partitions(n):
        lam = Partition(p)
        assert hook_dim(lam) == hook_dim(lam.conjugate())


@pytest.mark.parametrize("n", list(range(4, 13)))
def test_two_row_and_hook_shapes(n):
    assert hook_dim((n - 2, 2)) == n * (n - 3) // 2
    assert hook_dim((n - 2, 1, 1)) == (n - 1) * (n - 2) // 2


@pytest.mark.parametrize("n", [7, 9, 10, 11, 12])
def test_dimension_gap_holds(n):
    assert dim_gap_check(n)


def test_dimension_gap_fails_at_eight_via_fourteen():
    assert not dim_gap_check(8)
    violations = gap_violations(8)
    assert violations
    assert all(d == 14 for _, d in violations)
    assert any(p.parts == (4, 4) for p, _ in violations)


def test_bad_partitions_rejected():
    for parts in ((2, 3), (3, 0), ()):
        with pytest.raises(ValueError):
            Partition(parts)


def test_partition_text_and_the_partitions_of_zero():
    assert str(Partition((2, 1))) == "(2,1)"
    assert partitions(0) == ((),)


@pytest.mark.parametrize("family,n", [("M", 4), ("M", 5), ("N", 4), ("N", 6)])
def test_diagonal_families_satisfy_the_relations(family, n):
    report = verify_seed_matrices(family, n)
    assert report.all_pass, report.failures


@pytest.mark.parametrize("family", ["P", "Q"])
def test_five_strand_families(family):
    report = verify_seed_matrices(family, 5)
    assert report.all_pass, report.failures


def test_seed_matrices_are_pinned():
    # the entry strings of M/N for n = 3..9 and of P/Q: N and Q are the
    # mirrors of M and P, so this also pins the mirror
    entries = [[[[str(e) for e in row] for row in H]
                for H in seed_matrices(family, n)[0]]
               for family, sizes in (("M", range(3, 10)), ("N", range(3, 10)),
                                     ("P", [5]), ("Q", [5]))
               for n in sizes]
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() == (
        "5abb1b1df3478adda742570fff4e0189805a8a5c79710bd9a768d44989306c27")


def test_corrupted_seed_matrix_fails_its_relations(monkeypatch):
    # the r at (1, 1) of H_2 in M(5) set to zero breaks the quadratic of H_2,
    # which (3), (8) and (9) each state when E = 0, and both braid relations
    # through H_2; nothing else
    pristine = seed_matrices

    def corrupted(family, n):
        gens, ctx = pristine(family, n)
        H = [list(row) for row in gens[1]]
        H[0][0] = FE_ZERO
        return gens[:1] + [H] + gens[2:], ctx

    monkeypatch.setattr(specht, "seed_matrices", corrupted)
    assert verify_seed_matrices("M", 5).failures == [
        "(2) braid g1,g2", "(2) braid g2,g3", "(3) e2 polynomial in g2",
        "(8) g2^2=1-mg+ml^-1 e", "(9) inverse law g2"]


def test_seed_families_are_not_equivalent_scalars():
    # sanity on the transcription: P matrices act on dimension five and the
    # quadratic eigenvalues are r and -1/r
    mats, ctx = seed_matrices("P", 5)
    assert len(mats) == 4 and all(len(m) == 5 for m in mats)


def test_family_validation():
    with pytest.raises(ValueError):
        seed_matrices("P", 6)
    with pytest.raises(ValueError):
        seed_matrices("Z", 5)
    with pytest.raises(ValueError):
        seed_matrices("M", 2)
