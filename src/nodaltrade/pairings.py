"""n-pairings: enumeration, crossings, loop numbers, symmetric-group action.

An n-pairing is a fixed-point-free involution on {1, ..., 2n}, stored in
canonical form: each pair sorted increasingly, pairs sorted by first
element.  The lexicographic enumeration order fixes the coordinate system
used by every module downstream; `check_n` alone decides what an n may be.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import prod

from .errors import InvalidInputError, ResourceLimitError
from .frozen import Frozen
from .rationals import instance_argument, integer_argument, integer_sequence, sequence_argument

DEFAULT_MAX_N = 5
_ENV_MAX_N = "NODAL_TRADE_MAX_N"
_warned_ceilings: set[int] = set()


def max_pairing_size() -> int:
    """Desk-scale ceiling on n, overridable via NODAL_TRADE_MAX_N.

    The variable is read on every call; a raised ceiling is warned about
    once per distinct value per process."""
    raw = os.environ.get(_ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{_ENV_MAX_N}={raw!r} is not an integer") from exc
    if value > DEFAULT_MAX_N and value not in _warned_ceilings:
        import sys

        _warned_ceilings.add(value)
        print(
            f"warning: {_ENV_MAX_N}={value} raises the desk-scale ceiling "
            f"(default {DEFAULT_MAX_N}); expect large exact computations",
            file=sys.stderr,
        )
    return value


def check_n(n) -> int:
    """The one check of a pairing size: an int >= 1, so never a float or a bool."""
    return integer_argument("n", n, 1)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1 * 3 * ... * (2n-1), the number of n-pairings."""
    check_n(n)
    return prod(range(1, 2 * n, 2))


class Pairing(Frozen):
    """A fixed-point-free involution on {1..2n} in canonical pair form."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = sequence_argument("pairs", pairs, " of pairs")
        for pair in pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise InvalidInputError(f"a pair must have two entries, got {pair!r}")
        seen = sorted(integer_argument("pairing entry", x) for p in pairs for x in p)
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        n = len(canon)
        if seen != list(range(1, 2 * n + 1)):
            raise InvalidInputError(
                f"pairs must cover 1..{2 * n} exactly once, got {pairs}"
            )
        object.__setattr__(self, "pairs", canon)

    @property
    def n(self) -> int:
        return len(self.pairs)

    def partner(self, i: int) -> int:
        integer_argument("pairing entry", i)
        for a, b in self.pairs:
            if a == i:
                return b
            if b == i:
                return a
        raise InvalidInputError(f"{i} is not in 1..{2 * self.n}")

    def as_permutation(self) -> tuple[int, ...]:
        """Image tuple (1-based): entry i-1 is the partner of i."""
        img = [0] * (2 * self.n)
        for a, b in self.pairs:
            img[a - 1] = b
            img[b - 1] = a
        return tuple(img)

    def key(self) -> str:
        """Stable map key, e.g. "(1,4)(2,5)(3,7)(6,8)"."""
        return "".join(f"({a},{b})" for a, b in self.pairs)

    def __str__(self):
        return self.key()

    def to_json(self):
        return [list(p) for p in self.pairs]


@lru_cache(maxsize=None)
def _enumerate(n: int) -> tuple[Pairing, ...]:
    def rec(items):
        if not items:
            yield ()
            return
        first = items[0]
        for i in range(1, len(items)):
            partner = items[i]
            rest = items[1:i] + items[i + 1 :]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    return tuple(Pairing(p) for p in rec(tuple(range(1, 2 * n + 1))))


def enumerate_pairings(n: int) -> tuple[Pairing, ...]:
    """All (2n-1)!! pairings in lexicographic order on canonical form.

    Recursively pairing the smallest free element with each larger one
    produces exactly the lexicographic order; this order is the global
    coordinate convention.
    """
    check_n(n)
    ceiling = max_pairing_size()
    if n > ceiling:
        raise ResourceLimitError(
            f"n={n} exceeds the desk-scale ceiling {ceiling} "
            f"(override with {_ENV_MAX_N})"
        )
    return _enumerate(n)


def crossing_number(p: Pairing) -> int:
    """Number of interleaved pair-of-pairs (i,k),(j,l) with i<j<k<l."""
    instance_argument("pairing", p, Pairing)
    c = 0
    pairs = p.pairs  # sorted by first element, so i < j below
    for s in range(len(pairs)):
        i, k = pairs[s]
        for t in range(s + 1, len(pairs)):
            j, l = pairs[t]
            if j < k < l:
                c += 1
    return c


def _permutation_cycles(img: tuple[int, ...]) -> list[int]:
    """Cycle lengths of a permutation given by its 1-based image tuple."""
    seen = [False] * len(img)
    lengths = []
    for start in range(len(img)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = img[cur] - 1
            length += 1
        lengths.append(length)
    return lengths


def loop_number(p1: Pairing, p2: Pairing) -> int:
    """Number of loops when the two arc diagrams are glued endpointwise.

    Computed via cycle counting: the product permutation p1*p2 has exactly
    2L cycles, which is cheaper than tracing arcs and self-checking.
    """
    return len(loop_type(p1, p2))


def loop_type(p1: Pairing, p2: Pairing):
    """Half-lengths of the glued loops, as a weakly decreasing tuple.

    The result is a partition of n of length loop_number(p1, p2): the
    product permutation splits each glued loop of 2h points into two
    h-cycles, so the half-lengths are the cycle lengths with every value
    appearing an even number of times, taken once per pair.  The pairing
    of cycle lengths is verified, which makes every call a check of the
    2L-cycles identity.
    """
    from .errors import InternalConsistencyError

    instance_argument("pairing", p1, Pairing)
    instance_argument("pairing", p2, Pairing)
    cycles = sorted(_product_cycles(p1, p2), reverse=True)
    for i in range(0, len(cycles), 2):
        if cycles[i] != cycles[i + 1]:
            raise InternalConsistencyError(
                f"product cycles of {p1} and {p2} do not pair up: {cycles}"
            )
    return tuple(cycles[i] for i in range(0, len(cycles), 2))


def _product_cycles(p1: Pairing, p2: Pairing) -> list[int]:
    if p1.n != p2.n:
        raise InvalidInputError(f"pairings have different sizes: {p1.n} vs {p2.n}")
    a = p1.as_permutation()
    b = p2.as_permutation()
    product = tuple(a[b[i] - 1] for i in range(2 * p1.n))
    return _permutation_cycles(product)


def permutation_sign(g: tuple[int, ...]) -> int:
    """Sign of a permutation given as a 1-based image tuple."""
    parity = sum(length - 1 for length in _permutation_cycles(g))
    return -1 if parity % 2 else 1


def check_permutation(g, size: int) -> tuple[int, ...]:
    """Validate that g is a bijection on {1..size}; return it as a tuple."""
    g = integer_sequence("permutation", g, "permutation entry")
    if sorted(g) != list(range(1, size + 1)):
        raise InvalidInputError(f"not a bijection on 1..{size}: {g}")
    return g


def act_permutation(g, p: Pairing, flavor: str = "plain"):
    """Relabel p by the permutation g; return (pairing, sign).

    The sign is +1 for the plain flavor and sign(g) for the signed flavor,
    which realizes the twist of the pairing representation by the sign
    character.
    """
    if flavor not in ("plain", "signed"):
        raise InvalidInputError(f"flavor must be 'plain' or 'signed', got {flavor!r}")
    g = check_permutation(g, 2 * p.n)
    moved = Pairing(tuple((g[a - 1], g[b - 1]) for a, b in p.pairs))
    sign = permutation_sign(g) if flavor == "signed" else 1
    return moved, sign
