"""Brute-force multilinear oracles on explicit orthogonal/symplectic spaces.

Enumerates the support of each covariant pairing tensor once and groups the
flats into a class table: the flats with one column of pairing values share
a class (140 classes for 1,860 flats at n=3, dim 6).  Each contravariant
diagonal multivector is its form tensor up to one sign: D_P = (-1)^n T_P in
the symplectic flavor, whose n factors each take J^-1 = -J, and D_P = T_P
in the orthogonal one.  Every tensor is one integer per class over one
denominator; the pairing tensors and their combinations share their cell's
table.  The module owns that format: combinations, slot and basis remaps,
contractions, the rank, and views on access.
The central assertion of the module is that the matrix of contractions
reproduces the loop matrix at x = k (orthogonal) or x = -2k (symplectic);
tests and the CLI perform that comparison entrywise, keeping the two
routes independent.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import prod
from operator import lt, mul

from . import linalg
from .errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from .frozen import Frozen
from .loop_matrix import ORTHOGONAL, PairingVector, admissible_partitions, flavor_dimension
from .pairings import Pairing, check_n, check_permutation, crossing_number, enumerate_pairings
from .partitions import hook_dimension
from .rationals import (instance_argument, integer_argument, integer_sequence, new_in_lowest_terms,
                        over_common_denominator, sequence_argument)

BRUTE_FORCE_MAX_N = 3
BRUTE_FORCE_MAX_DIM = 6
DENSE_COEFF_LIMIT = 4096


class BilinearSpace(Frozen, derived=("dim",)):
    """A model space with the standard orthogonal or symplectic form.

    dim = k for the orthogonal flavor (orthonormal basis, identity form)
    and 2k for the symplectic flavor (standard basis e_1..e_k, f_1..f_k
    with form(e_mu, f_mu) = 1); it is derived, computed once by the gate.
    """

    __slots__ = ("flavor", "k", "dim")

    def __init__(self, flavor, k):
        self._set(flavor, k, flavor_dimension(flavor, k))

    @property
    def form(self) -> tuple[tuple[int, ...], ...]:
        d, k = self.dim, self.k
        if self.flavor == ORTHOGONAL:
            return tuple(tuple(int(a == b) for b in range(d)) for a in range(d))
        # J = [[0, I_k], [-I_k, 0]]: form(e_mu, f_mu) = 1 = -form(f_mu, e_mu)
        return tuple(tuple((b == a + k) - (a == b + k) for b in range(d)) for a in range(d))


class Tensor(Frozen, fields=("n", "dim", "flats", "values")):
    """Order-2n tensor stored as an integer per class of a class table, over one denominator.

    The table pairs strictly increasing flat positions with the class of
    each; index (a_1, ..., a_2n) with 0-based a_i lives at flat position
    sum a_i * dim^(2n - i) (see `slot_weights`) and holds its class's
    numerator over the denominator >= 1, in lowest terms, 0 off the table.
    The pairing tensors and their combinations share their cell's table (see
    `_pairing_tensors`); `Tensor(n, dim, flats, values)` gets a table of
    single-flat classes.  `flats`, `values`, `support`, `coeffs`,
    `coefficient` and `to_json` read the nonzero coefficients, built on each
    access: ints over denominator 1, else Fractions.  Equality compares the
    numerators and denominator on a shared table and these views otherwise.
    """

    __slots__ = ("n", "dim", "table", "numerators", "denominator")

    def __init__(self, n, dim, flats, values):
        check_n(n)
        integer_argument("dim", dim, 1)
        flats, values = integer_sequence("flats", flats, "flat"), sequence_argument("values", values)
        size = dim ** (2 * n)
        if len(flats) != len(values):
            raise InvalidInputError(f"support has {len(flats)} flats but {len(values)} values")
        if flats and not (-1 < flats[0] and flats[-1] < size and all(map(lt, flats, flats[1:]))):
            raise InvalidInputError(f"support flats must strictly increase within 0..{size - 1}")
        if not set(map(type, values)) <= {int, Fraction}:
            flat, value = next((f, v) for f, v in zip(flats, values) if type(v) not in (int, Fraction))
            raise InvalidInputError(f"support value {value!r} at flat {flat} is not an int or Fraction")
        if not all(values):
            raise InvalidInputError("support holds a zero value")
        self._set(n, dim, (flats, range(len(flats))), *over_common_denominator(values))

    @classmethod
    def _over(cls, n, dim, table, numerators, denominator):
        """Int numerators / denominator >= 1 in lowest terms on a checked table."""
        if not set(map(type, numerators)) <= {int}:
            raise InvalidInputError("class numerators must be ints")
        return new_in_lowest_terms(cls, (n, dim, table), numerators, denominator)

    def __eq__(self, other):
        if other.__class__ is self.__class__ and other.table is self.table:  # one table per (n, space)
            return self.numerators == other.numerators and self.denominator == other.denominator
        return Frozen.__eq__(self, other)

    __hash__ = Frozen.__hash__

    @property
    def flats(self) -> tuple:
        """The flat positions of the nonzero coefficients, increasing."""
        (flats, class_of), ints = self.table, self.numerators
        return flats if all(ints) else tuple(compress(flats, map(ints.__getitem__, class_of)))

    @property
    def values(self) -> tuple:
        """The nonzero coefficients, in flat order: ints over denominator 1, else Fractions."""
        values, den = self.numerators, self.denominator
        if den > 1:
            values = [Fraction(a, den) for a in values]
        return tuple(filter(None, map(values.__getitem__, self.table[1])))

    @property
    def support(self) -> tuple:
        """The (flat, value) pairs of the nonzero coefficients, in flat order."""
        return tuple(zip(self.flats, self.values))

    @property
    def order(self) -> int:
        return 2 * self.n

    @property
    def coeffs(self) -> tuple:
        """Every coefficient in flat order: the dense view, built on each access."""
        coefficient = dict(self.support)
        return tuple(coefficient.get(flat, 0) for flat in range(self.dim ** self.order))

    def coefficient(self, index) -> Fraction:
        if len(index) != self.order:
            raise InvalidInputError(f"index must have {self.order} slots")
        for a in index:
            if not 0 <= integer_argument("index entry", a) < self.dim:
                raise InvalidInputError(f"index entry {a} out of range 0..{self.dim - 1}")
        flat = sum(map(mul, index, slot_weights(self.dim, self.order)))
        return Fraction(dict(self.support).get(flat, 0))

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def to_json(self) -> dict:
        """Every coefficient up to DENSE_COEFF_LIMIT of them, else the nonzero ones by flat."""
        out = {"dim": self.dim, "order": self.order}
        if self.dim ** self.order <= DENSE_COEFF_LIMIT:
            out["coeffs"] = [Fraction(c) for c in self.coeffs]
        else:
            out["nonzero"] = {flat: Fraction(c) for flat, c in self.support}
        return out


def slot_weights(dim: int, order: int) -> list[int]:
    """Weight of each slot in the slot-major flat layout.

    Index (a_1, ..., a_order) lives at flat position sum a_i * weight[i - 1],
    so `itertools.product(range(dim), repeat=order)` yields the indices in
    flat order.
    """
    return [dim ** (order - 1 - slot) for slot in range(order)]


def check_brute_force_budget(n: int, dim: int) -> None:
    check_n(n)
    integer_argument("dim", dim, 1)
    if n > BRUTE_FORCE_MAX_N or dim > BRUTE_FORCE_MAX_DIM:
        raise ResourceLimitError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N} and "
                                 f"dim <= {BRUTE_FORCE_MAX_DIM}, got n={n}, dim={dim}")


def pairing_supports(p: Pairing, space: BilinearSpace):
    """Support of the form tensor of p: its flats, sorted, then its values.

    The coefficient at (a_1..a_2n) is sign * prod over pairs (i, j) of
    form[a_i][a_j], one enumeration over every choice of a nonzero form
    entry per pair.  The symplectic flavor takes each factor in increasing
    slot order and carries the global crossing sign (-1)^c(P); the
    orthogonal factor is symmetric so no ordering or sign is needed.
    """
    check_brute_force_budget(instance_argument("pairing", p, Pairing).n,
                             instance_argument("space", space, BilinearSpace).dim)
    sign = -1 if space.flavor != ORTHOGONAL and crossing_number(p) % 2 else 1
    weight = slot_weights(space.dim, 2 * p.n)
    nonzero = [(a, b, f) for a, row in enumerate(space.form) for b, f in enumerate(row) if f]
    factors = [[(a * weight[i - 1] + b * weight[j - 1], f) for a, b, f in nonzero] for i, j in p.pairs]
    entries = sorted(
        (sum(flat for flat, _ in choice), sign * prod(value for _, value in choice))
        for choice in product(*factors)
    )
    return tuple(map(tuple, zip(*entries)))


def contract(form: Tensor, vec: Tensor) -> Fraction:
    """Full slot-by-slot pairing of a covariant and a contravariant tensor."""
    if form.n != vec.n or form.dim != vec.dim:
        raise InvalidInputError(f"shape mismatch: ({form.n}, {form.dim}) vs ({vec.n}, {vec.dim})")
    at = dict(form.support)
    return Fraction(sum(at.get(flat, 0) * value for flat, value in vec.support))


def permute_slots(t: Tensor, g, basis=None) -> Tensor:
    """Move the factor in slot i to slot g(i) and send e_b to sign * e_image.

    g is a 1-based image tuple; basis holds one (image, sign) per basis
    index, the identity by default.  Both are bijections on the flats.
    """
    g = check_permutation(g, instance_argument("tensor", t, Tensor).order)
    basis = (tuple((b, 1) for b in range(t.dim)) if basis is None
             else sequence_argument("basis map", basis))
    if not (all(e.__class__ in (tuple, list) and tuple(map(type, e)) == (int, int) for e in basis)
            and sorted(b for b, _ in basis) == list(range(t.dim)) and {s for _, s in basis} <= {1, -1}):
        raise InvalidInputError(f"basis map must be a signed permutation of 0..{t.dim - 1}")
    # new[a] = old[a o g]: the old index digit at slot j lands in slot g(j)
    weight = slot_weights(t.dim, t.order)
    moved = []
    for flat, value in zip(t.flats, t.values):
        new = 0
        for w, i in zip(weight, g):
            b, sign = basis[flat // w % t.dim]
            new += b * weight[i - 1]
            value *= sign
        moved.append((new, value))
    moved.sort()
    return Tensor(t.n, t.dim, tuple(f for f, _ in moved), tuple(v for _, v in moved))


# n reaches this cache checked (by a vector, a tensor or the reader): the key takes 2.0 for 2
@lru_cache(maxsize=None)
def _pairing_tensors(n: int, space: BilinearSpace):
    """The form tensors and diagonal multivectors of all n-pairings in
    enumeration order; their class table (the union of their flats, which
    is the support of a generic combination, and the class of each flat);
    and their sparse rows: the classes where each is nonzero and its values
    there, times the class size for a diagonal (its contraction weights).

    A flat's column is its (pairing index, form value) pairs, laid end to
    end, over the pairings nonzero there; flats with equal columns make a
    class, numbered in order of first occurrence.  The diagonal multivector
    of P is (-1)^n T_P in the symplectic flavor and T_P in the orthogonal
    one: the inverse bivector of the pair (i, j), i < j, sits in the slots
    (j, i), so its slot-(i, j) coefficients are the inverse form, and each
    of the n factors takes J^-1 = -J (I^-1 = I).
    """
    pairings, columns = enumerate_pairings(n), {}
    for i, p in enumerate(pairings):
        for flat, f in zip(*pairing_supports(p, space)):
            columns.setdefault(flat, []).extend((i, f))
    union = tuple(sorted(columns))
    ids = {}
    class_of = tuple(ids.setdefault(tuple(columns[flat]), len(ids)) for flat in union)
    sizes = tuple(Counter(class_of).values())  # keeps first-occurrence order: the class order
    rows = [[0] * len(ids) for _ in pairings]
    for c, column in enumerate(ids):
        for i, f in zip(*[iter(column)] * 2):
            rows[i][c] = f
    table = (union, class_of)
    sign = -1 if space.flavor != ORTHOGONAL and n % 2 else 1
    forms = tuple(Tensor._over(n, space.dim, table, row, 1) for row in rows)
    diags = forms if sign == 1 else tuple(
        Tensor._over(n, space.dim, table, [-f for f in row], 1) for row in rows
    )
    form_sparse = tuple(
        (tuple(c for c, f in enumerate(row) if f), tuple(filter(None, row))) for row in rows
    )
    diag_sparse = tuple(
        (classes, tuple(sign * f * sizes[c] for c, f in zip(classes, values)))
        for classes, values in form_sparse
    )
    return forms, diags, table, form_sparse, diag_sparse


def all_form_tensors(n: int, space: BilinearSpace):
    """The form tensors of all n-pairings in enumeration order, built once."""
    check_brute_force_budget(n, instance_argument("space", space, BilinearSpace).dim)
    return _pairing_tensors(n, space)[0]


def all_diagonal_multivectors(n: int, space: BilinearSpace):
    """The diagonal multivectors of all n-pairings in enumeration order, built once."""
    check_brute_force_budget(n, instance_argument("space", space, BilinearSpace).dim)
    return _pairing_tensors(n, space)[1]


def form_combination(v: PairingVector, space: BilinearSpace) -> Tensor:
    """sum c_P * T_P over the form tensors, c the coordinates of v.

    Adds the coordinates' integer numerators, one total per class, each
    pairing to the classes where its form tensor is nonzero, and keeps the
    totals over v's denominator on the cell's class table; a class whose
    total is 0 is absent from the views.
    """
    forms, _, table, form_sparse, _ = _pairing_tensors(
        v.n, instance_argument("space", space, BilinearSpace))
    totals = [0] * len(forms[0].numerators)
    for c, (classes, values) in zip(v.numerators, form_sparse):
        if c:
            for i, value in zip(classes, values):
                totals[i] += c * value
    return Tensor._over(v.n, space.dim, table, totals, v.denominator)


def diagonal_row(t: Tensor, space: BilinearSpace) -> PairingVector:
    """Contractions of t against the diagonal multivector of every t.n-pairing.

    D_Q is constant on each class and 0 off the union, so for t on the
    cell's table (a pairing tensor or a combination) <t, D_Q> sums D_Q times
    the class size times t's numerator over the classes where D_Q is
    nonzero.  Any other tensor goes through `contract` against each D_Q.
    """
    if t.dim != instance_argument("space", space, BilinearSpace).dim:
        raise InvalidInputError(f"tensor has dim {t.dim}, the space has dim {space.dim}")
    _, diags, table, _, diag_sparse = _pairing_tensors(t.n, space)
    if t.table is not table:
        return PairingVector(t.n, [contract(t, d) for d in diags])
    numerators = t.numerators
    return new_in_lowest_terms(PairingVector, (t.n,), [
        sum(map(mul, weights, map(numerators.__getitem__, classes)))
        for classes, weights in diag_sparse
    ], t.denominator)


def diagonal_insertion_matrix(n: int, space: BilinearSpace):
    """Entry (P, P'): contraction of the P form tensor with the P' diagonal.

    Brute force: the class numerators of each form tensor, times the class sizes
    of the enumerated supports, weighted by each diagonal.  Never consults
    the loop matrix, so comparing the two is a genuine dual-route check.
    """
    return tuple(diagonal_row(form, space).coords for form in all_form_tensors(n, space))


def invariant_map_rank(n: int, space: BilinearSpace):
    """Rank and kernel of the map sending a pairing to its form tensor.

    Row-reduces the (2n-1)!! x dim^2n coefficient matrix exactly, less the
    columns where every form tensor vanishes and each repeat of an earlier
    column (the N x #classes form rows): a repeat never holds a pivot and
    changes no row gcd, so the pivots and the kernel stay.  The kernel comes
    back as pairing vectors: the linear combinations of pairings whose
    tensors cancel.  The rank is (2n-1)!! less the kernel dimension.
    """
    check_brute_force_budget(n, instance_argument("space", space, BilinearSpace).dim)
    form_rows = [form.numerators for form in _pairing_tensors(n, space)[0]]
    kernel = [PairingVector(n, combo) for combo in linalg.left_kernel(form_rows)]
    r = len(form_rows) - len(kernel)
    expected = sum(
        hook_dimension(lam) for lam in admissible_partitions(n, space.flavor, space.k)
    )
    if r != expected:
        raise InternalConsistencyError(
            f"invariant map rank {r} does not match admissible multiplicity {expected}"
        )
    return r, kernel
