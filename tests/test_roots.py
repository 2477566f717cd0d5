"""Positive-root combinatorics: indexing, inner products, shifts."""

import pytest

from lkbmw.roots import (IllegalShiftError, RootIndex, all_roots, inner2,
                         num_roots, root_at, shift, simple_root)


def test_position_examples():
    assert RootIndex(2, 4, 5).position() == 5
    assert root_at(1, 3) == RootIndex(1, 2, 3)
    assert RootIndex(1, 5, 5).position() == 10


@pytest.mark.parametrize("n", list(range(2, 13)))
def test_position_is_a_bijection(n):
    seen = set()
    for beta in all_roots(n):
        p = beta.position()
        assert 1 <= p <= num_roots(n)
        assert p not in seen
        seen.add(p)
        assert root_at(p, n) == beta
    assert len(seen) == num_roots(n)


def test_order_matches_the_listing():
    # alpha_1, alpha_2, alpha_2+alpha_1, alpha_3, ...
    listed = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4)]
    assert [(b.i, b.j) for b in all_roots(4)] == listed


def _inner2_brute(beta, i):
    # expand beta over the simple roots and sum the pairwise products
    support = range(beta.i, beta.j)
    total = 0
    for k in support:
        if k == i:
            total += 2
        elif abs(k - i) == 1:
            total -= 1
    return total


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_inner2_against_brute_force(n):
    for beta in all_roots(n):
        for i in range(1, n):
            assert inner2(beta, i) == _inner2_brute(beta, i)


def test_inner2_examples():
    assert inner2(RootIndex(1, 3, 4), 2) == 1
    assert inner2(RootIndex(3, 4, 4), 1) == 0
    assert inner2(RootIndex(2, 4, 5), 4) == -1


def test_shift_examples():
    assert shift(RootIndex(2, 5, 5), 2, "-") == RootIndex(3, 5, 5)
    assert shift(RootIndex(2, 4, 5), 4, "+") == RootIndex(2, 5, 5)
    assert RootIndex(1, 3, 4).precedes(RootIndex(3, 4, 4))


def test_illegal_shift_names_inner_product():
    for direction in ("-", "+"):
        with pytest.raises(IllegalShiftError) as err:
            shift(RootIndex(3, 4, 5), 1, direction)
        assert "0" in str(err.value)


@pytest.mark.parametrize("call", [
    lambda: RootIndex(2, 1, 3),
    lambda: root_at(0, 3),
    lambda: inner2(RootIndex(1, 2, 3), 0),
    lambda: shift(RootIndex(1, 2, 3), 1, "x"),
])
def test_out_of_range_arguments_are_refused(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_shift_changes_inner2_by_two(n):
    for beta in all_roots(n):
        for i in range(1, n):
            ip = inner2(beta, i)
            if ip == 1:
                assert inner2(shift(beta, i, "-"), i) == ip - 2
            elif ip == -1:
                assert inner2(shift(beta, i, "+"), i) == ip + 2


@pytest.mark.parametrize("n", [3, 6, 9])
def test_height_counts_the_support(n):
    for beta in all_roots(n):
        assert beta.height == beta.j - beta.i
        assert beta.height == len(range(beta.i, beta.j))


def test_simple_root_positions():
    for n in (3, 5, 8):
        for i in range(1, n):
            assert simple_root(i, n).position() == i * (i - 1) // 2 + 1
