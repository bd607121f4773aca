from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade.linalg import left_kernel, mat_vec, nullspace, rank

# entries from a small set, so rank-deficient matrices come up often
ENTRY = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
MATRICES = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=1, max_size=4)
)


def test_rank_simple():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1


def test_nullspace_plane():
    # x + y + z = 0 has a two-dimensional solution space
    basis = nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_nullspace_verified_by_substitution():
    m = [[2, 1, -1, 3], [1, 0, 1, 1], [3, 1, 0, 4]]
    basis = nullspace(m)
    assert len(basis) == 4 - rank(m)
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v))


def test_nullspace_trivial():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_left_kernel():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 0]]
    basis = left_kernel(m)
    assert len(basis) == 1
    c = basis[0]
    for col in range(3):
        assert sum(ci * Fraction(m[i][col]) for i, ci in enumerate(c)) == 0


def test_left_kernel_full_rank():
    assert left_kernel([[1, 0], [0, 1]]) == []


def test_fractional_entries_are_exact():
    m = [[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]]
    basis = nullspace(m)
    assert len(basis) == 1
    assert all(x == 0 for x in mat_vec(m, basis[0]))


@settings(max_examples=150, deadline=None)
@given(MATRICES)
def test_rank_nullity_and_right_kernel(m):
    basis = nullspace(m)
    assert rank(m) + len(basis) == len(m[0])
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v))


@settings(max_examples=150, deadline=None)
@given(MATRICES)
def test_rank_nullity_and_left_kernel(m):
    basis = left_kernel(m)
    assert rank(m) + len(basis) == len(m)
    for c in basis:
        assert any(c)
        for col in range(len(m[0])):
            assert sum(ci * m[i][col] for i, ci in enumerate(c)) == 0
