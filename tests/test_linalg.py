from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade.linalg import left_kernel, mat_vec, nullspace, rank

# entries from a small set, so rank-deficient matrices come up often
ENTRY = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
MATRICES = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=1, max_size=4)
)


def _shaped(rows, cols):
    return st.integers(*cols).flatmap(
        lambda c: st.lists(st.lists(ENTRY, min_size=c, max_size=c), min_size=rows[0], max_size=rows[1])
    )


# the small matrices plus tall, wide and all-zero ones
SHAPES = st.one_of(
    MATRICES,
    _shaped((5, 8), (1, 2)),
    _shaped((1, 2), (5, 8)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda s: [[0] * s[1]] * s[0]),
)


def textbook_nullspace(m):
    """The kernel basis read off the reduced row echelon form over Fractions:
    divide each pivot row by its pivot, clear its column in every other row,
    and give free column f the vector with 1 at f, 0 at the other free
    columns and -R[k][f] at the k-th pivot column."""
    rows = [[Fraction(a) for a in row] for row in m]
    pivots = []
    for c in range(len(rows[0])):
        top = len(pivots)
        below = [r for r in range(top, len(rows)) if rows[r][c]]
        if not below:
            continue
        rows[top], rows[below[0]] = rows[below[0]], rows[top]
        rows[top] = [a / rows[top][c] for a in rows[top]]
        for r in range(len(rows)):
            if r != top:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[top])]
        pivots.append(c)
    basis = []
    for f in range(len(rows[0])):
        if f not in pivots:
            x = [Fraction(0)] * len(rows[0])
            x[f] = Fraction(1)
            for k, c in enumerate(pivots):
                x[c] = -rows[k][f]
            basis.append(tuple(x))
    return basis


def forward_left_kernel(m):
    """The rows of [m | I] whose m-part vanishes after forward-only
    fraction-free elimination: each row scaled to coprime integers, and each
    row below a pivot p replaced by p * row - q * (pivot row), q its entry in
    the pivot column, divided by its gcd."""
    width, size = len(m[0]), len(m)
    rows = []
    for i, row in enumerate(m):
        tracked = [Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(size)]
        den = lcm(*(a.denominator for a in tracked))
        ints = [int(a * den) for a in tracked]
        g = gcd(*ints)
        rows.append([a // g for a in ints])
    top = 0
    for c in range(width):
        below = [r for r in range(top, size) if rows[r][c]]
        if not below:
            continue
        rows[top], rows[below[0]] = rows[below[0]], rows[top]
        p = rows[top][c]
        for r in below:
            if r != top and rows[r][c]:
                new = [p * a - rows[r][c] * b for a, b in zip(rows[r], rows[top])]
                g = gcd(*new)
                rows[r] = [a // g for a in new]
        top += 1
    return [tuple(Fraction(a) for a in row[width:]) for row in rows if not any(row[:width])]


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


@settings(max_examples=200, deadline=None)
@given(SHAPES)
def test_nullspace_is_the_textbook_reduced_echelon_basis(m):
    assert nullspace(m) == textbook_nullspace(m)


@settings(max_examples=200, deadline=None)
@given(SHAPES)
def test_left_kernel_keeps_the_scale_of_forward_elimination(m):
    # the printed kernel of `oracle --rank` is these rows, scale included
    kernel = left_kernel(m)
    assert kernel == forward_left_kernel(m)
    assert all(x.__class__ is Fraction for c in kernel for x in c)
