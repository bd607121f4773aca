from fractions import Fraction

import pytest

from nodaltrade.errors import InvalidInputError
from nodaltrade.pairings import double_factorial_odd
from nodaltrade.partitions import (
    Partition,
    all_partitions,
    content_product,
    even_row_partitions,
    half_partition,
    hook_dimension,
    transpose,
)


def test_partition_validation():
    with pytest.raises(InvalidInputError):
        Partition((2, 3))
    with pytest.raises(InvalidInputError):
        Partition((3, 0))
    assert Partition(()).weight == 0
    assert Partition((4, 2)).weight == 6
    assert Partition((4, 2)).length == 2


def test_even_row_partitions_fixed_order():
    assert [p.parts for p in even_row_partitions(4)] == [(4,), (2, 2)]
    assert [p.parts for p in even_row_partitions(2)] == [(2,)]
    assert [p.parts for p in even_row_partitions(6)] == [(6,), (4, 2), (2, 2, 2)]


def test_even_row_partitions_rejects_bad_input():
    for bad in (0, -2, 3, 5):
        with pytest.raises(InvalidInputError):
            even_row_partitions(bad)


def test_reverse_lex_order():
    parts = [p.parts for p in all_partitions(6)]
    assert parts[0] == (6,)
    assert parts[-1] == (1,) * 6
    # reverse-lexicographic: each element is lexicographically >= the next
    assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


def test_hook_dimension_fixtures():
    assert hook_dimension(Partition((4, 2))) == 9
    assert hook_dimension(Partition((2, 2, 2))) == 5
    assert hook_dimension(Partition((2, 2))) == 2
    for m in (1, 3, 6, 10):
        assert hook_dimension(Partition((m,))) == 1


def test_dimension_identity_vs_pairing_count():
    # sum of multiplicities over even-row blocks equals the pairing count
    for m in range(2, 13, 2):
        total = sum(hook_dimension(lam) for lam in even_row_partitions(m))
        assert total == double_factorial_odd(m // 2)


def test_transpose_fixtures_and_involution():
    assert transpose(Partition((4, 2))).parts == (2, 2, 1, 1)
    assert transpose(Partition((1, 1, 1, 1))).parts == (4,)
    for m in range(0, 13):
        for lam in all_partitions(m):
            assert transpose(transpose(lam)) == lam


def test_half_and_double_inverse():
    with pytest.raises(InvalidInputError):
        half_partition(Partition((3, 2)))
    assert half_partition(Partition((4, 2))).parts == (2, 1)
    for m in range(2, 13, 2):
        for lam in even_row_partitions(m):
            assert Partition(tuple(2 * p for p in half_partition(lam).parts)) == lam


def test_content_product_fixtures():
    # x(x+2) at x=2
    assert content_product(Partition((4,)), 2) == 8
    # factor (x-1) vanishes at x=1
    assert content_product(Partition((2, 2)), 1) == 0
    # x(x+2)(x-1) at x=-2: (-2)(0)(-3) = 0
    assert content_product(Partition((4, 2)), -2) == 0
    assert content_product(Partition((4, 2)), Fraction(1, 2)) == Fraction(1, 2) * Fraction(5, 2) * Fraction(-1, 2)
    with pytest.raises(InvalidInputError):
        content_product(Partition((3, 1)), 1)


def test_content_product_is_monic_of_degree_half_weight():
    # evaluate at enough points to pin the polynomial: use finite differences
    for m in (2, 4, 6, 8):
        for lam in even_row_partitions(m):
            deg = m // 2
            values = [content_product(lam, x) for x in range(deg + 2)]
            # repeated forward differences: degree-d monic has d-th difference d!
            diffs = values
            for _ in range(deg):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            from math import factorial

            assert all(d == factorial(deg) for d in diffs[:1])
            # and the (d+1)-st difference vanishes
            extra = [b - a for a, b in zip(diffs, diffs[1:])]
            assert all(x == 0 for x in extra)
