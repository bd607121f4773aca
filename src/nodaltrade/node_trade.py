"""Recover an invariant tensor from its contractions against all diagonals.

The linear system is M w = data over the pairing basis, where M is the
loop matrix at the flavor's specialization point.  M is invertible exactly
on the invariant subspace, so a data vector arising from an invariant
tensor is recovered by the blockwise restricted inverse and re-expanded
through the form tensors.  `tensor_oracle` owns the tensor format.
"""

from __future__ import annotations

from .errors import InconsistentDataError, InvalidInputError, SubspaceError
from .frozen import Frozen
from .loop_matrix import PairingVector, restricted_inverse_apply
from .tensor_oracle import (
    BilinearSpace,
    Tensor,
    check_brute_force_budget,
    diagonal_row,
    form_combination,
    permute_slots,
)


def primitive_insertion_pairs(a: int) -> int:
    """Number of node trades for a primitive insertions; refuses odd a.

    With an odd number of primitive insertions the invariant is zero and
    there is nothing to solve for.
    """
    if a < 0:
        raise InvalidInputError(f"insertion count must be >= 0, got {a}")
    if a % 2:
        raise InvalidInputError(
            f"odd number of primitive insertions ({a}): the invariant vanishes "
            "and the solver has nothing to recover"
        )
    return a // 2


class InvariantTensor(Frozen):
    """An invariant tensor together with pairing-basis coordinates.

    The tensor always equals the expansion of `coordinates` through the
    form tensors, which places it in the image of the pairing map and
    hence in the invariant subspace.
    """

    __slots__ = ("n", "space", "tensor", "coordinates")

    def __init__(self, n, space, tensor, coordinates):
        self._set(n, space, tensor, coordinates)

    @staticmethod
    def from_coordinates(n: int, space: BilinearSpace, coords) -> "InvariantTensor":
        check_brute_force_budget(n, space.dim)
        if not isinstance(coords, PairingVector):
            coords = PairingVector(n, coords)
        if coords.n != n:
            raise InvalidInputError(f"coordinates are for n={coords.n}, not n={n}")
        tensor = form_combination(coords, space)
        return InvariantTensor(n=n, space=space, tensor=tensor, coordinates=coords)

    @staticmethod
    def zero(n: int, space: BilinearSpace) -> "InvariantTensor":
        return InvariantTensor.from_coordinates(n, space, PairingVector.zero(n))


def spot_check_invariance(tensor: Tensor, space: BilinearSpace) -> bool:
    """Check invariance under a finite generating set of form symmetries.

    Uses monomial symmetries only (basis permutations and sign flips that
    preserve the form, plus -Id), which is a spot check rather than a
    proof of full group invariance.
    """
    # a signed basis map permutes the flats, so it fixes the tensor exactly when
    # the mapped tensor equals it; -Id acts by (-1)^(2n) = +1, hence trivially
    slots = range(1, tensor.order + 1)
    return all(permute_slots(tensor, slots, m) == tensor for m in _monomial_generators(space))


def _monomial_generators(space: BilinearSpace):
    """Signed basis maps preserving the form: list of (image, sign) per index."""
    d, k = space.dim, space.k
    gens = []
    if space.flavor == "orthogonal":
        if d >= 2:  # swap the first two basis vectors
            swap = [(i, 1) for i in range(d)]
            swap[0], swap[1] = (1, 1), (0, 1)
            gens.append(tuple(swap))
        flip = [(i, 1) for i in range(d)]
        flip[0] = (0, -1)
        gens.append(tuple(flip))
    else:
        if k >= 2:  # swap the hyperbolic planes (e1,f1) <-> (e2,f2)
            swap = [(i, 1) for i in range(d)]
            swap[0], swap[1] = (1, 1), (0, 1)
            swap[k], swap[k + 1] = (k + 1, 1), (k, 1)
            gens.append(tuple(swap))
        # e1 -> f1, f1 -> -e1 preserves the symplectic form
        rot = [(i, 1) for i in range(d)]
        rot[0] = (k, 1)
        rot[k] = (0, -1)
        gens.append(tuple(rot))
    return gens


def contract_with_all_diagonals(omega: InvariantTensor) -> PairingVector:
    """Vector of contractions of the tensor against every diagonal multivector."""
    return PairingVector(omega.n, diagonal_row(omega.tensor, omega.space))


def recover(contractions, n: int, space: BilinearSpace, sign: int = 1) -> InvariantTensor:
    """The unique invariant tensor whose diagonal contractions match.

    `sign` lets the caller fix the orientation convention relating nodal
    data to diagonal contractions (+1 by default); the data vector is
    multiplied by it before solving.  Data with a nonzero component in an
    inadmissible block cannot come from an invariant tensor and is
    rejected.
    """
    if sign not in (1, -1):
        raise InvalidInputError(f"sign must be +1 or -1, got {sign}")
    check_brute_force_budget(n, space.dim)
    if not isinstance(contractions, PairingVector):
        contractions = PairingVector(n, contractions)
    if contractions.n != n:
        raise InvalidInputError("contraction vector size does not match n")
    data = contractions.scale(sign)
    try:
        coords = restricted_inverse_apply(n, space.flavor, space.k, data)
    except SubspaceError as exc:
        raise InconsistentDataError(
            f"contraction data does not come from an invariant tensor: {exc}"
        ) from exc
    return InvariantTensor.from_coordinates(n, space, coords)


def recover_batch(contraction_vectors, n: int, space: BilinearSpace, sign: int = 1):
    """Componentwise recovery for vector-valued data (one tensor per component)."""
    return [recover(v, n, space, sign=sign) for v in contraction_vectors]
