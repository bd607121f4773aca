"""Brute-force multilinear oracles on explicit orthogonal/symplectic spaces.

Builds the covariant pairing tensors and the contravariant diagonal
multivectors as supports (their nonzero entries, enumerated directly),
stores every tensor as its support, and owns that format: linear
combinations, slot and basis remaps, contractions and the report form.
Combinations, contraction rows and the rank read a class table built
from those supports: the flats grouped by their distinct column of
pairing values (140 classes for 1,860 flats at n=3, dim 6).
The central assertion of the module is that the matrix of contractions
reproduces the loop matrix at x = k (orthogonal) or x = -2k (symplectic);
tests and the CLI perform that comparison entrywise, keeping the two
routes independent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice, product, repeat
from math import lcm, prod
from operator import add, attrgetter, lt, mul

from . import linalg
from .errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from .frozen import Frozen
from .loop_matrix import ORTHOGONAL, PairingVector, admissible_partitions, flavor_dimension
from .pairings import Pairing, check_permutation, crossing_number, enumerate_pairings
from .partitions import hook_dimension

BRUTE_FORCE_MAX_N = 3
BRUTE_FORCE_MAX_DIM = 6
DENSE_COEFF_LIMIT = 4096


class BilinearSpace(Frozen):
    """A model space with the standard orthogonal or symplectic form.

    dim = k for the orthogonal flavor (orthonormal basis, identity form)
    and 2k for the symplectic flavor (standard basis e_1..e_k, f_1..f_k
    with form(e_mu, f_mu) = 1).
    """

    __slots__ = ("flavor", "k")

    def __init__(self, flavor, k):
        flavor_dimension(flavor, k)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "k", k)

    @property
    def dim(self) -> int:
        return flavor_dimension(self.flavor, self.k)

    @property
    def form(self) -> tuple[tuple[int, ...], ...]:
        d, k = self.dim, self.k
        rows = [[0] * d for _ in range(d)]
        if self.flavor == ORTHOGONAL:
            for i in range(d):
                rows[i][i] = 1
        else:
            for mu in range(k):
                rows[mu][k + mu] = 1
                rows[k + mu][mu] = -1
        return tuple(tuple(r) for r in rows)

    @property
    def inverse_form(self) -> tuple[tuple[int, ...], ...]:
        if self.flavor == ORTHOGONAL:
            return self.form
        # J^{-1} = -J for the standard symplectic block form
        return tuple(tuple(-x for x in row) for row in self.form)


class Tensor(Frozen):
    """Order-2n tensor stored as its support, in two parallel tuples.

    `flats` holds the flat positions of the nonzero coefficients, strictly
    increasing, and `values` the coefficients there; index (a_1, ..., a_2n)
    with 0-based a_i lives at flat position sum a_i * dim^(2n - i) (see
    `slot_weights`).  Tensors with the same nonzero pattern may share one
    `flats` tuple.  The pairing tensors of this module come from
    enumerating every index choice that hits a nonzero form entry (see
    `pairing_supports`), so the route is still brute force and shares no
    code with the loop matrix.
    """

    __slots__ = ("n", "dim", "flats", "values")

    def __init__(self, n, dim, flats, values):
        size = dim ** (2 * n)
        if len(flats) != len(values):
            raise InvalidInputError(f"support has {len(flats)} flats but {len(values)} values")
        if flats and not (
            -1 < flats[0] and flats[-1] < size and all(map(lt, flats, islice(flats, 1, None)))
        ):
            raise InvalidInputError(f"support flats must strictly increase within 0..{size - 1}")
        if not set(map(type, values)) <= {int, Fraction}:
            flat, value = next((f, v) for f, v in zip(flats, values) if type(v) not in (int, Fraction))
            raise InvalidInputError(f"support value {value!r} at flat {flat} is not an int or Fraction")
        if not all(values):
            raise InvalidInputError("support holds a zero value")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "flats", flats)
        object.__setattr__(self, "values", values)

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
        coefficient = SupportMap(zip(self.flats, self.values))
        return tuple(coefficient[flat] for flat in range(self.dim ** self.order))

    def coefficient(self, index) -> Fraction:
        if len(index) != self.order:
            raise InvalidInputError(f"index must have {self.order} slots")
        for a in index:
            if not 0 <= a < self.dim:
                raise InvalidInputError(f"index entry {a} out of range 0..{self.dim - 1}")
        flat = sum(map(mul, index, slot_weights(self.dim, self.order)))
        return Fraction(SupportMap(zip(self.flats, self.values))[flat])

    def is_zero(self) -> bool:
        return not self.flats

    def to_json(self) -> dict:
        """Every coefficient up to DENSE_COEFF_LIMIT of them, else the nonzero ones by flat."""
        out = {"dim": self.dim, "order": self.order}
        if self.dim ** self.order <= DENSE_COEFF_LIMIT:
            out["coeffs"] = [Fraction(c) for c in self.coeffs]
        else:
            out["nonzero"] = {flat: Fraction(c) for flat, c in zip(self.flats, self.values)}
        return out


def slot_weights(dim: int, order: int) -> list[int]:
    """Weight of each slot in the slot-major flat layout.

    Index (a_1, ..., a_order) lives at flat position sum a_i * weight[i - 1],
    so `itertools.product(range(dim), repeat=order)` yields the indices in
    flat order.
    """
    return [dim ** (order - 1 - slot) for slot in range(order)]


def check_brute_force_budget(n: int, dim: int) -> None:
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if n > BRUTE_FORCE_MAX_N or dim > BRUTE_FORCE_MAX_DIM:
        raise ResourceLimitError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_N} and "
            f"dim <= {BRUTE_FORCE_MAX_DIM}, got n={n}, dim={dim}"
        )


def pairing_supports(p: Pairing, space: BilinearSpace):
    """Supports of the form tensor and the diagonal multivector of p:
    their common flats, then the values of each.

    The coefficient at (a_1..a_2n) is sign * prod over pairs (i, j) of
    matrix[a_i][a_j], with the form for the covariant tensor and the
    inverse form for the contravariant one.  The two matrices have the
    same nonzero entries (I^-1 = I, J^-1 = -J), so one enumeration over
    every choice of a nonzero entry per pair yields both supports on one
    tuple of flats, sorted; `Tensor` refuses a zero value, should the
    patterns ever differ.  Equal value tuples come back as one tuple.

    The symplectic flavor takes each factor in increasing slot order and
    carries the global crossing sign (-1)^c(P); the orthogonal factor is
    symmetric so no ordering or sign is needed.  In the symplectic
    flavor the inverse bivector of the pair (i, j), i < j, sits in the
    slots in decreasing order (j, i), which makes its slot-(i, j)
    coefficient array exactly the inverse form matrix.
    """
    dim, order = space.dim, 2 * p.n
    check_brute_force_budget(p.n, dim)
    form, inverse = space.form, space.inverse_form
    sign = -1 if space.flavor != ORTHOGONAL and crossing_number(p) % 2 else 1
    weight = slot_weights(dim, order)
    factors = [
        [
            (a * weight[i - 1] + b * weight[j - 1], form[a][b], inverse[a][b])
            for a in range(dim)
            for b in range(dim)
            if form[a][b] or inverse[a][b]
        ]
        for i, j in p.pairs
    ]
    entries = sorted(
        (
            sum(entry[0] for entry in choice),
            sign * prod(entry[1] for entry in choice),
            sign * prod(entry[2] for entry in choice),
        )
        for choice in product(*factors)
    )
    flats, forms, diags = map(tuple, zip(*entries))
    return flats, forms, forms if diags == forms else diags


def form_tensor(p: Pairing, space: BilinearSpace) -> Tensor:
    """The covariant tensor: product of the form over the pairs of p."""
    flats, forms, _ = pairing_supports(p, space)
    return Tensor(p.n, space.dim, flats, forms)


def diagonal_multivector(p: Pairing, space: BilinearSpace) -> Tensor:
    """The contravariant tensor: product of inverse-form bivectors."""
    flats, _, diags = pairing_supports(p, space)
    return Tensor(p.n, space.dim, flats, diags)


class SupportMap(dict):
    """flat -> value over a support, reading 0 at every other flat."""

    def __missing__(self, flat):
        return 0


def contract_support(coeffs, flats, values) -> Fraction:
    """Sum of coeffs[flat] * value over the flats and values of a support.

    `coeffs` is a `SupportMap`, built once per tensor, or a sequence indexed
    by flat.  Reads only the listed entries and adds integer numerators over
    their common denominator, so the only Fraction built is the result.
    """
    read = list(map(coeffs.__getitem__, flats))
    den = lcm(*{c.denominator * v.denominator for c, v in zip(read, values)})
    return Fraction(
        sum(
            c.numerator * v.numerator * (den // (c.denominator * v.denominator))
            for c, v in zip(read, values)
        ),
        den,
    )


def contract(form: Tensor, vec: Tensor) -> Fraction:
    """Full slot-by-slot pairing of a covariant and a contravariant tensor."""
    if form.n != vec.n or form.dim != vec.dim:
        raise InvalidInputError(
            f"shape mismatch: ({form.n}, {form.dim}) vs ({vec.n}, {vec.dim})"
        )
    return contract_support(SupportMap(zip(form.flats, form.values)), vec.flats, vec.values)


def permute_slots(t: Tensor, g, basis=None) -> Tensor:
    """Move the factor in slot i to slot g(i) and send e_b to sign * e_image.

    g is a 1-based image tuple; basis holds one (image, sign) per basis
    index, the identity by default.  Both are bijections on the flats.
    """
    g = check_permutation(g, t.order)
    basis = tuple((b, 1) for b in range(t.dim)) if basis is None else tuple(basis)
    if sorted(b for b, _ in basis) != list(range(t.dim)) or {s for _, s in basis} - {1, -1}:
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


@lru_cache(maxsize=None)
def _pairing_tensors(n: int, space: BilinearSpace):
    check_brute_force_budget(n, space.dim)
    forms, diags, shared = [], [], {}
    for p in enumerate_pairings(n):
        flats, form, diag = pairing_supports(p, space)
        # pairings share equal flats and value tuples (a few sign patterns)
        flats = tuple(map(shared.setdefault, flats, flats))
        form, diag = shared.setdefault(form, form), shared.setdefault(diag, diag)
        forms.append(Tensor(n, space.dim, flats, form))
        diags.append(Tensor(n, space.dim, flats, diag))
    # the tensors in enumeration order, the sorted union of their flats (the
    # support of a generic combination) and the class table over that union
    union = tuple(sorted({flat for form in forms for flat in form.flats}))
    return tuple(forms), tuple(diags), union, _class_table(forms, diags, union)


def _class_table(forms, diags, union):
    """Class id of each union flat, the flats of each class, and the form and
    the diagonal values of each class as N x #classes rows.

    A flat's column is its (pairing index, form value, diagonal value)
    triples, laid end to end, over the pairings nonzero there; flats with
    equal columns make a class, numbered in order of first occurrence.
    """
    columns = {flat: [] for flat in union}
    for i, (form, diag) in enumerate(zip(forms, diags)):
        for flat, f, d in zip(form.flats, form.values, diag.values):
            columns[flat] += i, f, d
    ids = {}
    class_of = tuple(ids.setdefault(tuple(column), len(ids)) for column in columns.values())
    class_flats = [[] for _ in ids]
    for flat, c in zip(union, class_of):
        class_flats[c].append(flat)
    # every flat of a class has the same values, so read them at its first
    firsts = [flats[0] for flats in class_flats]
    form_rows, diag_rows = (
        tuple(tuple(map(SupportMap(zip(t.flats, t.values)).__getitem__, firsts)) for t in tensors)
        for tensors in (forms, diags)
    )
    return class_of, tuple(map(tuple, class_flats)), form_rows, diag_rows


def all_form_tensors(n: int, space: BilinearSpace):
    """The form tensors of all n-pairings in enumeration order, built once."""
    return _pairing_tensors(n, space)[0]


def all_diagonal_multivectors(n: int, space: BilinearSpace):
    """The diagonal multivectors of all n-pairings in enumeration order, built once."""
    return _pairing_tensors(n, space)[1]


def form_combination(v: PairingVector, space: BilinearSpace) -> Tensor:
    """sum c_P * T_P over the form tensors, c the coordinates of v.

    Adds integers over the coordinates' common denominator, one total per
    class, and spreads them to the union flats by class id, dropping a class
    whose total is 0.  One value is stored per distinct total (an int if the
    denominator is 1); with no total 0 (the generic case) the combination
    shares the union's tuple of flats.
    """
    _, _, union, (class_of, _, form_rows, _) = _pairing_tensors(v.n, space)
    den = lcm(*(c.denominator for c in v.coords))
    totals = [0] * len(form_rows[0])
    for c, row in zip(v.coords, form_rows):
        if c:
            totals = list(map(add, totals, map(mul, row, repeat(c.numerator * (den // c.denominator)))))
    # lists first: a tuple built from an iterator is resized to its length,
    # and a small one freed then grows that length's free list on every call
    values, flats = list(map(totals.__getitem__, class_of)), union
    if 0 in totals:
        flats, values = tuple(list(compress(union, values))), list(filter(None, values))
    if den > 1:
        shared = {total: Fraction(total, den) for total in set(totals)}
        values = list(map(shared.__getitem__, values))
    return Tensor(v.n, space.dim, flats, tuple(values))


def diagonal_row(t: Tensor, space: BilinearSpace) -> tuple:
    """Contractions of t against the diagonal multivector of every t.n-pairing.

    D_Q is constant on each class and 0 off the union, so <t, D_Q> is the sum
    over classes of D_Q there times t's integer numerators summed over the
    class, on their common denominator; those sums serve every Q.
    """
    if t.dim != space.dim:
        raise InvalidInputError(f"tensor has dim {t.dim}, the space has dim {space.dim}")
    _, _, _, (_, class_flats, _, diag_rows) = _pairing_tensors(t.n, space)
    den = lcm(*set(map(attrgetter("denominator"), t.values)))
    numerators = t.values if den == 1 else [v.numerator * (den // v.denominator) for v in t.values]
    at = dict(zip(t.flats, numerators))
    sums = [sum(map(at.get, flats, repeat(0))) for flats in class_flats]
    return tuple(Fraction(sum(map(mul, row, sums)), den) for row in diag_rows)


def diagonal_insertion_matrix(n: int, space: BilinearSpace):
    """Entry (P, P'): contraction of the P form tensor with the P' diagonal.

    Brute force: each form tensor is summed over the flats of each class of
    the enumerated supports and weighted by each diagonal.  Never consults
    the loop matrix, so comparing the two is a genuine dual-route check.
    """
    return tuple(diagonal_row(form, space) for form in all_form_tensors(n, space))


def invariant_map_rank(n: int, space: BilinearSpace):
    """Rank and kernel of the map sending a pairing to its form tensor.

    Row-reduces the (2n-1)!! x dim^2n coefficient matrix exactly, less the
    columns where every form tensor vanishes and each repeat of an earlier
    column (the N x #classes form rows): a repeat never holds a pivot and
    changes no row gcd, so the pivots and the kernel stay.  The kernel comes
    back as pairing vectors: the linear combinations of pairings whose
    tensors cancel.  The rank is (2n-1)!! less the kernel dimension.
    """
    _, _, _, (_, _, form_rows, _) = _pairing_tensors(n, space)
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
