"""Integer partitions, Young-diagram geometry, and content products.

Partitions with even rows index the isotypic blocks of the pairing
representation; their hook-length dimensions give the block multiplicities
and their content products give the loop-matrix eigenvalues.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InvalidInputError
from .frozen import Frozen
from .rationals import integer_argument, integer_sequence, rational_argument


class Partition(Frozen):
    """A weakly decreasing sequence of positive integers.

    The empty partition (of 0) is allowed and has no parts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = integer_sequence("parts", parts, "partition part", 1)
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise InvalidInputError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def boxes(self):
        """Yield (row, column) box coordinates, both 1-based.

        English convention: row index increases downwards, column index
        increases to the right.
        """
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def to_json(self):
        return list(self.parts)


def _partitions_of(m: int, max_part: int):
    """All partitions of m with parts bounded by max_part, reverse-lex order."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _partitions_of(m - first, first):
            yield (first,) + rest


def all_partitions(m: int) -> list[Partition]:
    """Partitions of m in reverse-lexicographic order."""
    integer_argument("m", m, 0)
    return [Partition(p) for p in _partitions_of(m, m if m else 1)]


def even_row_partitions(m: int) -> list[Partition]:
    """Partitions of m with every part even, in reverse-lexicographic order.

    These index the isotypic decomposition of the span of n-pairings when
    m = 2n.  Doubling is order-preserving, so the list is obtained by
    doubling the partitions of m/2.
    """
    if integer_argument("m", m, 2) % 2:
        raise InvalidInputError(f"m must be even, got {m}")
    return [Partition(tuple(2 * p for p in lam.parts)) for lam in all_partitions(m // 2)]


def transpose(lam: Partition) -> Partition:
    """Transpose of the Young diagram (column heights become rows)."""
    if not lam.parts:
        return lam
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def half_partition(lam: Partition) -> Partition:
    """Halve every part; defined only for even-row partitions."""
    if any(p % 2 for p in lam.parts):
        raise InvalidInputError(f"{lam} has an odd part; cannot halve")
    return Partition(tuple(p // 2 for p in lam.parts))


def hook_dimension(lam: Partition) -> int:
    """Dimension of the irreducible symmetric-group representation for lam.

    Standard hook-length formula: |lam|! divided by the product of hook
    lengths over the boxes of the diagram.
    """
    if not lam.parts:
        return 1
    conj = transpose(lam).parts
    denom = 1
    for (i, j) in lam.boxes():
        denom *= lam.parts[i - 1] - j + conj[j - 1] - i + 1
    dim, rem = divmod(factorial(lam.weight), denom)
    if rem:  # hook products always divide n!
        raise InvalidInputError(f"hook product does not divide {lam.weight}! for {lam}")
    return dim


def content_product(lam: Partition, x) -> Fraction:
    """Product of (x - i + 2j - 1) over the boxes (i, j) of the half diagram.

    This is the eigenvalue of the loop matrix M(n, x) on the block indexed
    by the even-row partition lam of 2n.
    """
    half = half_partition(lam)
    x = rational_argument("x", x)
    result = Fraction(1)
    for (i, j) in half.boxes():
        result *= x - i + 2 * j - 1
    return result
