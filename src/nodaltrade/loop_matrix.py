"""The loop matrix, its exact eigenspace decomposition, and restricted inverses.

The matrix M(n, x) has entries x^L(P, P') over the pairing basis.  Its
eigenspaces are the isotypic blocks indexed by even-row partitions of 2n,
with eigenvalue the content product of the half partition.  Specializing
x to k (orthogonal flavor) or -2k (symplectic flavor) makes M invertible
exactly on the flavor's invariant subspace, which is what the node-trade
solver inverts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import (
    EigenvalueCollisionError,
    InternalConsistencyError,
    InvalidInputError,
    SubspaceError,
)
from .pairings import double_factorial_odd, enumerate_pairings, loop_number
from .frozen import Frozen
from .partitions import Partition, content_product, even_row_partitions, hook_dimension
from .rationals import as_rational

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"


def check_flavor(flavor: str) -> str:
    if flavor not in (ORTHOGONAL, SYMPLECTIC):
        raise InvalidInputError(
            f"flavor must be {ORTHOGONAL!r} or {SYMPLECTIC!r}, got {flavor!r}"
        )
    return flavor


def flavor_dimension(flavor: str, k: int) -> int:
    """Model-space dimension: k for orthogonal, 2k for symplectic."""
    check_flavor(flavor)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    return k if flavor == ORTHOGONAL else 2 * k


def flavor_specialization(flavor: str, k: int) -> Fraction:
    """The loop-matrix specialization point: x = k or x = -2k."""
    check_flavor(flavor)
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
    return [lam for lam in even_row_partitions(2 * n) if is_admissible(flavor, k, lam)]


class PairingVector(Frozen):
    """Exact-rational coordinates over the canonical pairing basis."""

    __slots__ = ("n", "coords")

    def __init__(self, n, coords):
        if n < 1:
            raise InvalidInputError(f"n must be >= 1, got {n}")
        try:
            coords = tuple(map(as_rational, coords))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"coordinates for n={n} must be rationals: {exc}") from exc
        expected = double_factorial_odd(n)
        if len(coords) != expected:
            raise InvalidInputError(
                f"need {expected} coordinates for n={n}, got {len(coords)}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)

    def __add__(self, other):
        if self.n != other.n:
            raise InvalidInputError("mismatched pairing sizes")
        return PairingVector(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if self.n != other.n:
            raise InvalidInputError("mismatched pairing sizes")
        return PairingVector(self.n, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "PairingVector":
        try:
            c = as_rational(c)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"scale factor must be a rational: {exc}") from exc
        return PairingVector(self.n, tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @staticmethod
    def zero(n: int) -> "PairingVector":
        return PairingVector(n, (Fraction(0),) * double_factorial_odd(n))

    def to_json(self):
        return self.coords


class LoopMatrix(Frozen):
    """The square matrix with entries x^L(P, P') over the pairing basis."""

    __slots__ = ("n", "x", "entries")

    def __init__(self, n, x, entries):
        self._set(n, x, entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    def apply(self, v: PairingVector) -> PairingVector:
        if v.n != self.n:
            raise InvalidInputError("vector size does not match matrix")
        return PairingVector(self.n, linalg.mat_vec(self.entries, v.coords))


@lru_cache(maxsize=None)
def _loop_exponents(n: int) -> tuple[tuple[int, ...], ...]:
    ps = enumerate_pairings(n)
    return tuple(tuple(loop_number(p, q) for q in ps) for p in ps)


def build_loop_matrix(n: int, x) -> LoopMatrix:
    """Construct M(n, x) in the canonical pairing order."""
    x = Fraction(x)
    entries = tuple(
        tuple(x ** e for e in row) for row in _loop_exponents(n)
    )
    return LoopMatrix(n=n, x=x, entries=entries)


def eigenvalues_at(n: int, x0) -> dict[Partition, Fraction]:
    """Content-product eigenvalues of M(n, x0), one per even-row block."""
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
        shifted = [
            [entry - (value if i == j else 0) for j, entry in enumerate(row)]
            for i, row in enumerate(matrix.entries)
        ]
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


def invariant_subspace(n: int, flavor: str, k: int) -> list[PairingVector]:
    """Concatenated eigenbases of the blocks admissible for the flavor."""
    blocks = eigenspace_decomposition(n)
    basis: list[PairingVector] = []
    for lam in admissible_partitions(n, flavor, k):
        basis.extend(blocks[lam])
    return basis


@lru_cache(maxsize=None)
def _projection_data(n: int):
    x0 = find_generic_specialization(n)
    matrix = build_loop_matrix(n, x0)
    values = eigenvalues_at(n, x0)
    return x0, matrix, values


def isotypic_component(v: PairingVector, lam: Partition) -> PairingVector:
    """Component of v in the block of lam, via the spectral projector.

    The projector is the Lagrange product of (M(n, x0) - c_mu Id) over the
    other blocks, divided by the eigenvalue gaps; only matrix-vector
    products are needed, so this is cheap and exact.
    """
    _, matrix, values = _projection_data(v.n)
    if lam not in values:
        raise InvalidInputError(f"{lam} does not index a block for n={v.n}")
    target = values[lam]
    w = v
    for mu, c in values.items():
        if mu == lam:
            continue
        w = matrix.apply(w) - w.scale(c)
        w = w.scale(Fraction(1, 1) / (target - c))
    return w


def decompose_isotypic(v: PairingVector) -> dict[Partition, PairingVector]:
    """All block components of v; they sum back to v exactly."""
    _, _, values = _projection_data(v.n)
    parts = {lam: isotypic_component(v, lam) for lam in values}
    total = PairingVector.zero(v.n)
    for w in parts.values():
        total = total + w
    if not (total - v).is_zero():
        raise InternalConsistencyError("spectral projectors do not sum to identity")
    return parts


def project_invariant(v: PairingVector, flavor: str, k: int) -> PairingVector:
    """Projection of v onto the flavor's invariant subspace."""
    result = PairingVector.zero(v.n)
    for lam in admissible_partitions(v.n, flavor, k):
        result = result + isotypic_component(v, lam)
    return result


def restricted_inverse_apply(n: int, flavor: str, k: int, v: PairingVector) -> PairingVector:
    """Solve M(n, x) w = v on the invariant subspace, x the flavor point.

    v must have zero component in every inadmissible block (checked).  The
    solve is blockwise division by the nonzero content-product eigenvalue.
    """
    if v.n != n:
        raise InvalidInputError(f"vector has n={v.n}, expected {n}")
    x = flavor_specialization(flavor, k)
    components = decompose_isotypic(v)
    result = PairingVector.zero(n)
    for lam, component in components.items():
        if is_admissible(flavor, k, lam):
            eigenvalue = content_product(lam, x)
            if eigenvalue == 0:
                raise InternalConsistencyError(
                    f"admissible block {lam} has zero eigenvalue at x={x}"
                )
            result = result + component.scale(Fraction(1) / eigenvalue)
        elif not component.is_zero():
            raise SubspaceError(
                f"vector has a nonzero component in the inadmissible block {lam}"
            )
    return result
