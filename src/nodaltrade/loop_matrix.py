"""The loop matrix, its exact eigenspace decomposition, and restricted inverses.

The matrix M(n, x) has entries x^L(P, P') over the pairing basis.  Its
eigenspaces are the isotypic blocks indexed by even-row partitions of 2n,
with eigenvalue the content product of the half partition.  Specializing
x to k (orthogonal flavor) or -2k (symplectic flavor) makes M invertible
exactly on the flavor's invariant subspace, which is what the node-trade
solver inverts.  M lives in the p(n)-dimensional algebra of coset types
(see the second half) and is stored there: a `LoopMatrix` keeps one power
of x per type and reads its entries and its products with vectors off the
shared type table, where the projections and the restricted inverse are
computed too.  Only the eigenblock bases still come from N x N kernels.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul

from . import linalg
from .errors import (
    EigenvalueCollisionError,
    InternalConsistencyError,
    InvalidInputError,
    SubspaceError,
)
from .pairings import act_permutation, check_n, double_factorial_odd, enumerate_pairings, loop_type
from .frozen import Frozen
from .partitions import (
    Partition,
    all_partitions,
    content_product,
    even_row_partitions,
    hook_dimension,
)
from .rationals import (
    as_rational, integer_argument, new_in_lowest_terms, over_common_denominator, rational_argument
)

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"


def check_flavor(flavor: str) -> str:
    if flavor not in (ORTHOGONAL, SYMPLECTIC):
        raise InvalidInputError(
            f"flavor must be {ORTHOGONAL!r} or {SYMPLECTIC!r}, got {flavor!r}"
        )
    return flavor


def flavor_dimension(flavor: str, k: int) -> int:
    """Model-space dimension: k for orthogonal, 2k for symplectic.

    Every entry point that takes (flavor, k) checks them here: k counts
    basis vectors or hyperbolic planes, so it must be an int >= 1.
    """
    check_flavor(flavor)
    integer_argument("k", k, 1)
    return k if flavor == ORTHOGONAL else 2 * k


def flavor_specialization(flavor: str, k: int) -> Fraction:
    """The loop-matrix specialization point: x = k or x = -2k."""
    flavor_dimension(flavor, k)
    return Fraction(k) if flavor == ORTHOGONAL else Fraction(-2 * k)


def is_admissible(flavor: str, k: int, lam: Partition) -> bool:
    """Whether the block of lam survives in the flavor's invariant subspace.

    Orthogonal: length(lam) <= k.  Symplectic: lam_1 <= 2k.
    """
    check_flavor(flavor)
    if flavor == ORTHOGONAL:
        return lam.length <= k
    return lam.parts[0] <= 2 * k


def admissible_partitions(n: int, flavor: str, k: int) -> list[Partition]:
    check_n(n)
    flavor_dimension(flavor, k)
    return [lam for lam in even_row_partitions(2 * n) if is_admissible(flavor, k, lam)]


class PairingVector(Frozen, fields=("n", "coords")):
    """Exact-rational coordinates over the canonical pairing basis, kept as integer
    numerators in lowest terms over one denominator >= 1; `coords` is a view."""

    __slots__ = ("n", "numerators", "denominator")

    def __init__(self, n, coords):
        expected = double_factorial_odd(n)  # checks n
        try:  # an exact int or Fraction is kept as it is
            coords = [c if c.__class__ in (int, Fraction) else as_rational(c) for c in coords]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"coordinates for n={n} must be rationals: {exc}") from exc
        if len(coords) != expected:
            raise InvalidInputError(
                f"need {expected} coordinates for n={n}, got {len(coords)}"
            )
        self._set(n, *over_common_denominator(coords))

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    def __add__(self, other):
        if not isinstance(other, PairingVector):
            return NotImplemented
        if self.n != other.n:
            raise InvalidInputError("mismatched pairing sizes")
        d1, d2 = self.denominator, other.denominator
        numerators = [a * d2 + b * d1 for a, b in zip(self.numerators, other.numerators)]
        return new_in_lowest_terms(PairingVector, (self.n,), numerators, d1 * d2)

    def scale(self, c) -> "PairingVector":
        c = rational_argument("scale factor", c)
        numerators = [c.numerator * a for a in self.numerators]
        denominator = c.denominator * self.denominator
        return new_in_lowest_terms(PairingVector, (self.n,), numerators, denominator)

    def is_zero(self) -> bool:
        return not any(self.numerators)

    @staticmethod
    def zero(n: int) -> "PairingVector":
        return PairingVector(n, (Fraction(0),) * double_factorial_odd(n))

    def to_json(self):
        return self.coords


class LoopMatrix(Frozen, derived=("powers",)):
    """M(n, x) = sum over coset types mu of x^length(mu) A_mu, kept as those
    p(n) powers of x and read off the shared type table of n."""

    __slots__ = ("n", "x", "powers")

    def __init__(self, n, x):
        x = rational_argument("x", x)
        enumerate_pairings(n)  # checks n, which the cached table below cannot
        _type_table(n)
        self._set(n, x, tuple(x ** mu.length for mu in all_partitions(n)))

    @property
    def size(self) -> int:
        return double_factorial_odd(self.n)

    @property
    def entries(self) -> "LoopEntries":
        return LoopEntries(_type_table(self.n), self.powers)

    def apply(self, v: PairingVector) -> PairingVector:
        if v.n != self.n:
            raise InvalidInputError("vector size does not match matrix")
        return _apply(self.n, _buckets(v), over_common_denominator(self.powers))


class LoopEntries:
    """The N x N entries of a loop matrix, row P built on access from the one
    shared power of x per type(P, Q); equal to, and rendered as, the tuple of rows."""

    __slots__ = ("_rows", "_powers")

    def __init__(self, rows, powers):
        self._rows, self._powers = rows, powers

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        return tuple(map(self._powers.__getitem__, self._rows[i]))

    def __eq__(self, other):
        return tuple(self) == other

    def to_json(self):
        return tuple(self)


def build_loop_matrix(n: int, x) -> LoopMatrix:
    """Construct M(n, x) in the canonical pairing order."""
    return LoopMatrix(n, x)


def eigenvalues_at(n: int, x0) -> dict[Partition, Fraction]:
    """Content-product eigenvalues of M(n, x0), one per even-row block."""
    check_n(n)
    x0 = rational_argument("x0", x0)
    return {lam: content_product(lam, x0) for lam in even_row_partitions(2 * n)}


def find_generic_specialization(n: int) -> int:
    """Smallest integer x0 >= 2n+1 with pairwise distinct block eigenvalues.

    Distinct specializations always exist because the eigenvalue
    polynomials have distinct root multisets; the search increments from
    2n+1 until separation holds.
    """
    x0 = 2 * n + 1
    while True:
        values = list(eigenvalues_at(n, x0).values())
        if len(set(values)) == len(values):
            return x0
        x0 += 1


def _check_separated(n: int, x0) -> None:
    seen = {}
    for lam, value in eigenvalues_at(n, x0).items():
        if value in seen:
            raise EigenvalueCollisionError(x0, (seen[value], lam))
        seen[value] = lam


def eigenspace_decomposition(n: int, x0=None) -> dict[Partition, list[PairingVector]]:
    """Exact bases of the isotypic blocks, via kernels of M(n, x0) - c Id.

    x0 must separate the block eigenvalues (auto-searched when omitted).
    The dimension of each block is cross-checked against the hook-length
    multiplicity, which guards against undetected collisions.
    """
    if x0 is None:
        x0 = find_generic_specialization(n)
    _check_separated(n, x0)
    matrix = build_loop_matrix(n, x0)
    blocks: dict[Partition, list[PairingVector]] = {}
    total = 0
    for lam, value in eigenvalues_at(n, x0).items():
        shifted = [r[:i] + (r[i] - value,) + r[i + 1 :] for i, r in enumerate(matrix.entries)]
        basis = [PairingVector(n, v) for v in linalg.nullspace(shifted)]
        expected = hook_dimension(lam)
        if len(basis) != expected:
            raise InternalConsistencyError(
                f"block {lam} at x0={x0} has dimension {len(basis)}, expected {expected}"
            )
        blocks[lam] = basis
        total += len(basis)
    if total != matrix.size:
        raise InternalConsistencyError(
            f"blocks span dimension {total}, expected {matrix.size}"
        )
    return blocks


# -- the coset-type algebra -----------------------------------------------------
#
# M(n, x) = sum over mu of x^length(mu) A_mu, where A_mu is the 0/1 matrix of
# the pairs (P, Q) whose glued loops have half-lengths mu, a partition of n
# (the coset type of the Gelfand pair (S_2n, H_n)).  The A_mu span a
# commutative algebra of dimension p(n) that holds every spectral projector
# E_lambda and every restricted inverse, so those are stored as coefficient
# vectors over types, indexed in `all_partitions(n)` order, and applied to v
# through the buckets B_mu(P) = sum of v_Q over type(P, Q) = mu.


@lru_cache(maxsize=None)
def _type_table(n: int) -> tuple[bytes, ...]:
    """Row P: the index of the type of (P, Q) for every pairing Q.

    Only the first row is traced loop by loop.  Relabeling both pairings
    by a permutation keeps their type, and every adjacent transposition s
    is an involution, so row(sP)[Q] = row(P)[sQ]: the other rows are
    permuted copies, reached breadth first from the first.
    """
    ps = enumerate_pairings(n)
    position = {p.pairs: i for i, p in enumerate(ps)}
    types = {mu.parts: t for t, mu in enumerate(all_partitions(n))}
    moves = []
    for a in range(1, 2 * n):
        swap = list(range(1, 2 * n + 1))
        swap[a - 1], swap[a] = a + 1, a
        moves.append([position[act_permutation(swap, p)[0].pairs] for p in ps])
    rows = [None] * len(ps)
    rows[0] = bytes(types[loop_type(ps[0], q)] for q in ps)
    reached = [0]
    for i in reached:
        for move in moves:
            j = move[i]
            if rows[j] is None:
                rows[j] = bytes(map(rows[i].__getitem__, move))
                reached.append(j)
    return tuple(rows)


@lru_cache(maxsize=None)
def _structure_constants(n: int) -> tuple[Counter, ...]:
    """Entry rho counts the Q with (type(P0, Q), type(Q, Q_rho)) = (mu, nu).

    P0 is the first pairing and Q_rho the first one of type rho from P0,
    so entry rho holds the coefficients of A_mu A_nu at rho: p(n) + 1 rows
    of the table give every product.
    """
    rows = _type_table(n)
    first = rows[0]
    return tuple(
        Counter(zip(first, rows[first.index(rho)])) for rho in range(len(all_partitions(n)))
    )


def _multiply(n: int, f, g) -> tuple:
    """The product of two algebra elements given by their type coefficients."""
    return tuple(
        sum(f[mu] * g[nu] * count for (mu, nu), count in constants.items())
        for constants in _structure_constants(n)
    )


@lru_cache(maxsize=None)
def _projectors(n: int) -> dict[Partition, tuple[Fraction, ...]]:
    """E_lambda as type coefficients: the Lagrange product of M(x0).

    E_lambda = prod over the other blocks mu of (M(x0) - c_mu) / (c_lambda - c_mu),
    with x0 separating the eigenvalues; that the E_lambda sum to the
    identity is checked here, once per n.
    """
    x0 = find_generic_specialization(n)
    values = eigenvalues_at(n, x0)
    matrix = build_loop_matrix(n, x0).powers
    identity = (0,) * (len(matrix) - 1) + (1,)  # type (1^n): Q = P
    projectors = {}
    for lam, target in values.items():
        e, gap = identity, 1
        for mu, c in values.items():
            if mu != lam:
                e = tuple(a - c * b for a, b in zip(_multiply(n, matrix, e), e))
                gap *= target - c
        projectors[lam] = tuple(Fraction(a) / gap for a in e)
    if tuple(map(sum, zip(*projectors.values()))) != identity:
        raise InternalConsistencyError("spectral projectors do not sum to identity")
    return projectors


@lru_cache(maxsize=None)
def _selectors(n: int) -> tuple[bytes, ...]:
    # translation tables marking one type each, for every type but the last two
    return tuple(bytes(t == mu for t in range(256)) for mu in range(len(all_partitions(n)) - 2))


def _buckets(v: PairingVector) -> tuple[list[list[int]], int]:
    """B_mu(P) for every row P, over v scaled to integers, and the scale.

    One pass over the table.  The last type, (1^n), holds only Q = P, and
    the one before it is what the row total leaves, so p(n) - 2 buckets
    per row are summed.
    """
    ints, den = v.numerators, v.denominator
    if v.n == 1:  # one pairing, one type
        return [ints], den
    total = sum(ints)
    selectors = _selectors(v.n)
    buckets = []
    for own, row in zip(ints, _type_table(v.n)):
        b = [sum(compress(ints, row.translate(s))) for s in selectors]
        b.append(total - own - sum(b))
        b.append(own)
        buckets.append(b)
    return buckets, den


def _apply(n: int, buckets, element) -> PairingVector:
    (rows, den), (coeffs, scale) = buckets, element
    numerators = [sum(map(mul, coeffs, b)) for b in rows]
    return new_in_lowest_terms(PairingVector, (n,), numerators, scale * den)


@lru_cache(maxsize=None)
def _solve_data(n: int, flavor: str, k: int):
    """Integer forms of the invariant projector and of the restricted inverse
    sum over admissible lambda of E_lambda / c_lambda(x), and of the
    inadmissible projectors: their sum, then each in block order."""
    x = flavor_specialization(flavor, k)
    size = len(all_partitions(n))
    admissible, inverse, outside, blocks = [0] * size, [0] * size, [0] * size, []
    for lam, e in _projectors(n).items():
        if is_admissible(flavor, k, lam):
            eigenvalue = content_product(lam, x)
            if eigenvalue == 0:
                raise InternalConsistencyError(
                    f"admissible block {lam} has zero eigenvalue at x={x}"
                )
            admissible = [a + b for a, b in zip(admissible, e)]
            inverse = [a + b / eigenvalue for a, b in zip(inverse, e)]
        else:
            outside = [a + b for a, b in zip(outside, e)]
            blocks.append((lam, over_common_denominator(e)[0]))
    admissible, inverse, outside = map(over_common_denominator, (admissible, inverse, outside))
    return admissible, inverse, outside[0], tuple(blocks)


def _vanishes(buckets, coeffs) -> bool:
    return not any(sum(map(mul, coeffs, b)) for b in buckets[0])


def isotypic_component(v: PairingVector, lam: Partition) -> PairingVector:
    """Component of v in the block of lam: E_lambda applied by one bucket pass."""
    projectors = _projectors(v.n)
    if lam not in projectors:
        raise InvalidInputError(f"{lam} does not index a block for n={v.n}")
    return _apply(v.n, _buckets(v), over_common_denominator(projectors[lam]))


def decompose_isotypic(v: PairingVector) -> dict[Partition, PairingVector]:
    """All block components of v, from one bucket pass; they sum back to v."""
    buckets = _buckets(v)
    return {
        lam: _apply(v.n, buckets, over_common_denominator(e)) for lam, e in _projectors(v.n).items()
    }


def project_invariant(v: PairingVector, flavor: str, k: int) -> PairingVector:
    """Projection of v onto the flavor's invariant subspace."""
    flavor_specialization(flavor, k)
    admissible = _solve_data(v.n, flavor, k)[0]
    return _apply(v.n, _buckets(v), admissible)


def restricted_inverse_apply(n: int, flavor: str, k: int, v: PairingVector) -> PairingVector:
    """Solve M(n, x) w = v on the invariant subspace, x the flavor point.

    v must have zero component in every inadmissible block (checked if there
    is one).  The solve is blockwise division by the nonzero content-product
    eigenvalue, applied as one algebra element; the check reads the buckets.
    """
    check_n(n)
    if v.n != n:
        raise InvalidInputError(f"vector has n={v.n}, expected {n}")
    flavor_dimension(flavor, k)
    _, inverse, outside, blocks = _solve_data(n, flavor, k)
    buckets = _buckets(v)
    if blocks and not _vanishes(buckets, outside):
        for lam, coeffs in blocks:
            if not _vanishes(buckets, coeffs):
                raise SubspaceError(
                    f"vector has a nonzero component in the inadmissible block {lam}"
                )
    return _apply(n, buckets, inverse)
