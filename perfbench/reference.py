"""Independent exact reference values for checking nodaltrade results.

Nothing here imports nodaltrade.  Pairings are enumerated by sorting,
loops are counted by walking arcs (the program counts permutation
cycles), and block dimensions come from the hook-length formula written
out again.  A check that compares the program against these values is a
second route, not the program checking itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, lcm


def pairings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of 1..2n, sorted lexicographically on sorted pairs."""
    out = []

    def rec(free, acc):
        if not free:
            out.append(tuple(acc))
            return
        first = free[0]
        for i in range(1, len(free)):
            rec(free[1:i] + free[i + 1:], acc + [(first, free[i])])

    rec(tuple(range(1, 2 * n + 1)), [])
    return sorted(out)


def _partner_map(p) -> dict[int, int]:
    m = {}
    for a, b in p:
        m[a] = b
        m[b] = a
    return m


def loops(p, q) -> int:
    """Closed loops when the arcs of p and q are glued at their endpoints."""
    mp, mq = _partner_map(p), _partner_map(q)
    seen = set()
    count = 0
    for start in mp:
        if start in seen:
            continue
        count += 1
        x = start
        while True:
            y = mp[x]
            seen.update((x, y))
            x = mq[y]
            if x == start:
                break
    return count


def crossings(p) -> int:
    return sum(1 for i, k in p for j, l in p if i < j < k < l)


def loop_exponents(n: int) -> list[list[int]]:
    ps = pairings(n)
    return [[loops(p, q) for q in ps] for p in ps]


def loop_matrix(exponents, x: int) -> list[list[int]]:
    return [[x ** e for e in row] for row in exponents]


def mat_vec(matrix, vec) -> list[Fraction]:
    """Exact product; rational entries of vec are cleared to integers first."""
    fracs = [Fraction(v) for v in vec]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    return [Fraction(sum(a * b for a, b in zip(row, ints)), denom) for row in matrix]


def partitions(m: int, largest: int | None = None):
    """Partitions of m as weakly decreasing tuples, largest first part first."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def even_row_partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of 2n with even parts: the blocks of the pairing space."""
    return [tuple(2 * p for p in mu) for mu in partitions(n)]


def hook_dimension(lam) -> int:
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def block_eigenvalue(lam, x: int) -> int:
    """Eigenvalue of the loop matrix at x on the block of lam (contents of lam/2)."""
    value = 1
    for i, half in enumerate(p // 2 for p in lam):
        for j in range(half):
            value *= x - (i + 1) + 2 * (j + 1) - 1
    return value


def admissible(flavor: str, k: int, lam) -> bool:
    if flavor == "orthogonal":
        return len(lam) <= k
    return lam[0] <= 2 * k


def invariant_rank(n: int, flavor: str, k: int) -> int:
    """Rank of the pairing-to-tensor map: total dimension of admissible blocks."""
    return sum(hook_dimension(lam) for lam in even_row_partitions(n) if admissible(flavor, k, lam))


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def kernel_vector(n: int, flavor: str, k: int) -> list[int]:
    """A nonzero vector killed by the loop matrix at the flavor point.

    Orthogonal, dimension k: the alternating sum over the k+1 pairs joining
    1..k+1 to k+2..2k+2 is a (k+1)x(k+1) Gram determinant, zero in dimension k.
    Symplectic, dimension 2k: the plain sum over all matchings of 1..2k+2 is a
    Pfaffian of 2k+2 vectors, zero in dimension 2k.  The remaining points are
    paired consecutively.  Needs 2k+2 <= 2n.
    """
    m = k + 1
    if 2 * m > 2 * n:
        raise ValueError(f"no kernel construction for n={n}, k={k}")
    rest = tuple((a, a + 1) for a in range(2 * m + 1, 2 * n + 1, 2))
    index = {p: i for i, p in enumerate(pairings(n))}
    vec = [0] * len(index)
    if flavor == "orthogonal":
        for perm in permutations(range(m)):
            p = tuple(sorted([(i + 1, m + 1 + perm[i]) for i in range(m)] + list(rest)))
            vec[index[p]] += _sign(perm)
    else:
        for head in pairings(m):
            vec[index[tuple(sorted(head + rest))]] += 1
    return vec
