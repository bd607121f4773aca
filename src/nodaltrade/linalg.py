"""Exact rational linear algebra: elimination, rank, kernels.

Everything works over arbitrary-precision integers after clearing
denominators; row updates are cross-multiplications followed by a gcd
normalization, so no floating point and no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import divided_by_gcd, over_common_denominator


def _integerize(row):
    """Scale a row of Fractions/ints to coprime integers."""
    return divided_by_gcd(over_common_denominator(row)[0])


def _eliminate(rows, width=None):
    """In-place integer row echelon reduction.

    Pivots only in the first `width` columns (all of them by default) and
    returns the list of pivot (row, column) positions.  Rows below a pivot
    are updated by cross-multiplication and re-normalized by their gcd.
    """
    if not rows:
        return []
    n_rows = len(rows)
    n_cols = len(rows[0]) if width is None else width
    pivots = []
    pr = 0
    for pc in range(n_cols):
        pivot_row = None
        for r in range(pr, n_rows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        p = rows[pr][pc]
        for r in range(pr + 1, n_rows):
            q = rows[r][pc]
            if not q:
                continue
            rows[r] = divided_by_gcd([p * a - q * b for a, b in zip(rows[r], rows[pr])])
        pivots.append((pr, pc))
        pr += 1
        if pr == n_rows:
            break
    return pivots


def rank(matrix) -> int:
    """Rank of a matrix given as a list of rows."""
    rows = [_integerize(r) for r in matrix]
    return len(_eliminate(rows))


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column.

    Each basis vector has a 1 in its free coordinate and 0 in the others,
    so the result is deterministic and easy to compare against fixtures.
    """
    if not matrix:
        return []
    n_cols = len(matrix[0])
    rows = [_integerize(r) for r in matrix]
    pivots = _eliminate(rows)
    pivot_cols = [pc for _, pc in pivots]
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        # back substitution over the echelon rows, bottom-up
        for pr, pc in reversed(pivots):
            row = rows[pr]
            s = sum((row[c] * x[c] for c in range(pc + 1, n_cols) if row[c] and x[c]),
                    Fraction(0))
            x[pc] = -s / row[pc]
        basis.append(tuple(x))
    return basis


def left_kernel(matrix) -> list[tuple[Fraction, ...]]:
    """Basis of {c : c A = 0}, found by reducing [A | I] and reading the
    rows whose A-part vanished.

    Row operations keep the identity block invertible, so no combination
    read off is zero and the basis has len(matrix) - rank(matrix) vectors.
    """
    if not matrix:
        return []
    n_rows = len(matrix)
    width = len(matrix[0])
    rows = []
    for i, r in enumerate(matrix):
        tracked = list(r) + [Fraction(0)] * n_rows
        tracked[width + i] = Fraction(1)
        rows.append(_integerize(tracked))
    _eliminate(rows, width)
    return [tuple(Fraction(x) for x in r[width:]) for r in rows if not any(r[:width])]


def mat_vec(matrix, vec):
    """Exact matrix-vector product; entries must be int or Fraction."""
    return tuple(
        sum((a * x for a, x in zip(row, vec) if a and x), Fraction(0))
        for row in matrix
    )

