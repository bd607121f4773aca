"""Exact rational linear algebra: one integer reduction, the rank, the kernels.

Rows are scaled to coprime integers and reduced by Gauss-Jordan elimination
with cross-multiplications and gcd normalizations, so no floating point and
no rounding anywhere.  The reduction and the kernels do no `Fraction`
arithmetic: the only Fractions they build are the returned kernel entries.
`mat_vec` is the exact product used for checks.  Each entry point gates its
matrix once: a sequence of equal-length rows of ints and Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import InvalidInputError
from .rationals import divided_by_gcd, exact_sequence, over_common_denominator, sequence_argument


def _matrix(matrix) -> tuple:
    """The one matrix gate: the rows of a sequence of equal-length rows of ints and Fractions."""
    rows = sequence_argument("matrix", matrix, " of rows")
    rows = tuple(sequence_argument("matrix row", row) for row in rows)
    if len(set(map(len, rows))) > 1:
        raise InvalidInputError(f"matrix rows must have one length, got {[len(r) for r in rows]}")
    exact_sequence("matrix", chain.from_iterable(rows), "matrix entry")
    return rows


def _reduce(matrix, width=None):
    """Integer Gauss-Jordan reduction: the rows scaled to coprime integers,
    then each pivot column, taken left to right in the first `width` columns
    (all by default), cleared in every other row by cross-multiplication and
    a gcd normalization.  Returns the rows and the pivot columns; pivot k is
    in row k.  Rows below the last pivot get the same updates as in forward
    elimination, so their scale does not depend on the clearing above.
    """
    rows = [divided_by_gcd(over_common_denominator(row)[0]) for row in matrix]
    if width is None:
        width = len(rows[0]) if rows else 0
    pivot_cols = []
    for pc in range(width):
        pr = len(pivot_cols)
        found = next((r for r in range(pr, len(rows)) if rows[r][pc]), None)
        if found is None:
            continue
        rows[pr], rows[found] = rows[found], rows[pr]
        pivot = rows[pr]
        p = pivot[pc]
        for r, row in enumerate(rows):
            q = row[pc]
            if q and r != pr:
                rows[r] = divided_by_gcd([p * a - q * b for a, b in zip(row, pivot)])
        pivot_cols.append(pc)
    return rows, pivot_cols


def rank(matrix) -> int:
    """Rank of a matrix given as a list of rows."""
    return len(_reduce(_matrix(matrix))[1])


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column.

    Each basis vector has a 1 in its free coordinate and 0 in the others,
    so the result is deterministic and easy to compare against fixtures;
    its other entries are read off the pivot rows.
    """
    matrix = _matrix(matrix)
    if not matrix:
        return []
    n_cols = len(matrix[0])
    rows, pivot_cols = _reduce(matrix)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivot_cols)):
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        for row, pc in zip(rows, pivot_cols):
            x[pc] = Fraction(-row[free], row[pc])
        basis.append(tuple(x))
    return basis


def left_kernel(matrix) -> list[tuple[Fraction, ...]]:
    """Basis of {c : c A = 0}, found by reducing [A | I] over the columns of
    A and reading the rows whose A-part vanished.

    Row operations keep the identity block invertible, so no combination
    read off is zero and the basis has len(matrix) - rank(matrix) vectors.
    """
    matrix = _matrix(matrix)
    if not matrix:
        return []
    n_rows, width = len(matrix), len(matrix[0])
    augmented = [
        list(row) + [1 if i == j else 0 for j in range(n_rows)]
        for i, row in enumerate(matrix)
    ]
    rows, _ = _reduce(augmented, width)
    return [tuple(Fraction(x) for x in r[width:]) for r in rows if not any(r[:width])]


def mat_vec(matrix, vec):
    """Exact matrix-vector product of a matrix and a vector of its row length."""
    matrix, vec = _matrix(matrix), exact_sequence("vector", vec, "vector entry")
    if matrix and len(vec) != len(matrix[0]):
        raise InvalidInputError(f"vector has {len(vec)} entries for {len(matrix[0])} matrix columns")
    return tuple(
        sum((a * x for a, x in zip(row, vec) if a and x), Fraction(0))
        for row in matrix
    )
