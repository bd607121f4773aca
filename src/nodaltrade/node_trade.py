"""Recover an invariant tensor from its contractions against all diagonals.

The linear system is M w = data over the pairing basis, where M is the
loop matrix at the flavor's specialization point.  M is invertible exactly
on the invariant subspace, so a data vector arising from an invariant
tensor is recovered by the blockwise restricted inverse and re-expanded
through the form tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InconsistentDataError, InvalidInputError, SubspaceError
from .loop_matrix import (
    PairingVector,
    decompose_isotypic,
    is_admissible,
    restricted_inverse_apply,
)
from .tensor_oracle import (
    BilinearSpace,
    SupportMap,
    Tensor,
    check_brute_force_budget,
    contract_support,
    diagonal_supports,
    form_supports,
    slot_weights,
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


@dataclass(frozen=True)
class InvariantTensor:
    """An invariant tensor together with pairing-basis coordinates.

    The tensor always equals the expansion of `coordinates` through the
    form tensors, which places it in the image of the pairing map and
    hence in the invariant subspace.
    """

    n: int
    space: BilinearSpace
    tensor: Tensor
    coordinates: PairingVector

    @staticmethod
    def from_coordinates(n: int, space: BilinearSpace, coords) -> "InvariantTensor":
        if not isinstance(coords, PairingVector):
            coords = PairingVector(n, coords)
        if coords.n != n:
            raise InvalidInputError(f"coordinates are for n={coords.n}, not n={n}")
        supports = form_supports(n, space)
        # sum c_P * T_P in integers over the coordinates' common denominator
        den = lcm(*(c.denominator for c in coords.coords))
        acc = {}
        for c, support in zip(coords.coords, supports):
            if not c:
                continue
            scale = c.numerator * (den // c.denominator)
            for flat, value in support:
                acc[flat] = acc.get(flat, 0) + scale * value
        # the sorted nonzero totals, one shared value per total (an int if den is 1)
        values, support = {}, []
        for flat in sorted(acc):
            total = acc[flat]
            if total:
                value = values.get(total)
                if value is None:
                    value = values[total] = Fraction(total, den) if den > 1 else total
                support.append((flat, value))
        tensor = Tensor(n, space.dim, tuple(support))
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
    for mapping in _monomial_generators(space):
        if not _fixed_by_monomial(tensor, mapping):
            return False
    # -Id acts by (-1)^(2n) = +1 on an even-order tensor, hence trivially
    return True


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


def _fixed_by_monomial(t: Tensor, mapping) -> bool:
    # the signed basis map permutes the flats, so it fixes t exactly when it
    # carries each support entry onto a support entry of the same value
    coeffs = SupportMap(t.support)
    weight = slot_weights(t.dim, t.order)
    for flat, value in t.support:
        src = 0
        sign = 1
        for w in weight:
            b, s = mapping[flat // w % t.dim]
            src += b * w
            sign *= s
        if coeffs[src] * sign != value:
            return False
    return True


def contract_with_all_diagonals(omega: InvariantTensor) -> PairingVector:
    """Vector of contractions of the tensor against every diagonal multivector."""
    coeffs = SupportMap(omega.tensor.support)
    return PairingVector(
        omega.n,
        tuple(contract_support(coeffs, d) for d in diagonal_supports(omega.n, omega.space)),
    )


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


def inadmissible_residual(v: PairingVector, space: BilinearSpace) -> PairingVector:
    """Component of v outside the invariant subspace (zero for valid data)."""
    result = PairingVector.zero(v.n)
    for lam, component in decompose_isotypic(v).items():
        if not is_admissible(space.flavor, space.k, lam):
            result = result + component
    return result
