"""Finite graded cohomology models with exact Poincare pairing.

Provides the dual-basis diagonal decomposition, the node-splitting
expansion of an imposed-node invariant, and the divisor-equation
reduction.  Models are data: a labeled basis with degrees, the pairing
matrix, and (for surfaces) the curve-class lattice with its intersection
form.  No cup products are stored; the bundled computations never need
them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import linalg, read_bundled
from .errors import InvalidInputError, InvalidModelError, UnsupportedCaseError
from .frozen import Frozen
from .rationals import as_rational, format_rational, parse_rational


def _join_terms(terms) -> str:
    """Join signed terms as 'a+b-c'; an empty sum is '0'."""
    if not terms:
        return "0"
    return terms[0] + "".join(t if t.startswith("-") else "+" + t for t in terms[1:])


class CohRing(Frozen, derived=("duals",)):
    """A finite model of a cohomology ring with Poincare pairing.

    The dual basis is fixed at construction: `duals[j]` is the class with
    pair(delta_i, duals[j]) = kronecker(i, j).
    """

    __slots__ = (
        "name",
        "labels",
        "degrees",
        "pairing",
        "curve_labels",
        "intersection_matrix",
        "divisor_lattice",  # basis label -> curve-lattice vector, read-only
        "duals",
    )

    def __init__(
        self,
        name,
        labels,
        degrees,
        pairing,
        curve_labels=None,
        intersection_matrix=None,
        divisor_lattice=None,
    ):
        size = len(labels)
        if len(degrees) != size or len(pairing) != size:
            raise InvalidModelError(f"model {name}: inconsistent basis data")
        if any(len(row) != size for row in pairing):
            raise InvalidModelError(
                f"model {name}: pairing must be {size} x {size}, one entry per basis label"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "curve_labels", curve_labels)
        object.__setattr__(self, "intersection_matrix", intersection_matrix)
        # one kernel of [G | -I] both proves G nonsingular and inverts it: its
        # basis vector with free part e_j is (G^-1 e_j, e_j)
        augmented = [
            list(row) + [-1 if i == j else 0 for j in range(size)]
            for i, row in enumerate(self.pairing)
        ]
        kernel = linalg.nullspace(augmented)
        if [v[size:] for v in kernel] != [self.basis_vector(j) for j in range(size)]:
            raise InvalidModelError(f"model {self.name}: pairing is singular")
        object.__setattr__(self, "duals", tuple(v[:size] for v in kernel))
        if divisor_lattice is not None:
            divisor_lattice = MappingProxyType(dict(divisor_lattice))
        object.__setattr__(self, "divisor_lattice", divisor_lattice)
        top = self.top_degree
        for i in range(size):
            for j in range(size):
                if self.pairing[i][j] and self.degrees[i] + self.degrees[j] != top:
                    raise InvalidModelError(
                        f"model {self.name}: pairing violates degree complementarity"
                    )

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.size))

    def class_coords(self, cls) -> tuple[Fraction, ...]:
        """Resolve a label or a sequence of rational coordinates."""
        if isinstance(cls, str):
            try:
                return self.basis_vector(self.labels.index(cls))
            except ValueError as exc:
                raise InvalidInputError(
                    f"unknown class {cls!r} in model {self.name}"
                ) from exc
        try:
            coords = tuple(map(as_rational, cls))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(
                f"class coordinates must be rationals in model {self.name}, got {cls!r}"
            ) from exc
        if len(coords) != self.size:
            raise InvalidInputError(
                f"class coordinates must have length {self.size} in model {self.name}"
            )
        return coords

    def degree_of(self, coords) -> int:
        coords = self.class_coords(coords)
        degs = {self.degrees[i] for i, c in enumerate(coords) if c}
        if len(degs) != 1:
            raise InvalidInputError(f"class is not homogeneous: {coords}")
        return degs.pop()

    def label_of(self, coords) -> str:
        coords = self.class_coords(coords)
        terms = []
        for i, c in enumerate(coords):
            if not c:
                continue
            if c == 1:
                terms.append(self.labels[i])
            elif c == -1:
                terms.append(f"-{self.labels[i]}")
            else:
                terms.append(f"{format_rational(c)}*{self.labels[i]}")
        return _join_terms(terms)

    def pair(self, u, v) -> Fraction:
        u = self.class_coords(u)
        v = self.class_coords(v)
        return sum(
            (ui * self.pairing[i][j] * vj
             for i, ui in enumerate(u) if ui
             for j, vj in enumerate(v) if vj),
            Fraction(0),
        )

    # -- curve classes ----------------------------------------------------

    @property
    def curve_rank(self) -> int:
        if self.curve_labels is None:
            raise InvalidModelError(f"model {self.name} carries no curve-class lattice")
        return len(self.curve_labels)

    def curve_label(self, curve) -> str:
        return _join_terms(
            [lab if c == 1 else f"{c}{lab}" for c, lab in zip(curve, self.curve_labels) if c]
        )

    def divisor_to_lattice(self, divisor) -> tuple[Fraction, ...]:
        """Express a degree-2 class in curve-lattice coordinates."""
        coords = self.class_coords(divisor)
        if self.degree_of(coords) != 2:
            raise InvalidInputError("divisor classes must have degree 2")
        if self.divisor_lattice is None:
            raise InvalidModelError(f"model {self.name} carries no divisor lattice data")
        acc = [Fraction(0)] * self.curve_rank
        for i, c in enumerate(coords):
            if not c:
                continue
            vec = self.divisor_lattice.get(self.labels[i])
            if vec is None:
                raise InvalidModelError(
                    f"model {self.name}: no lattice vector for divisor {self.labels[i]!r}"
                )
            for t, x in enumerate(vec):
                acc[t] += c * x
        return tuple(acc)

    def intersect(self, curve, divisor) -> Fraction:
        """Intersection number of a curve class with a degree-2 class."""
        if len(curve) != self.curve_rank:
            raise InvalidInputError(
                f"curve class must have {self.curve_rank} coordinates in {self.name}"
            )
        d = self.divisor_to_lattice(divisor)
        return sum(
            (Fraction(a) * self.intersection_matrix[i][j] * d[j]
             for i, a in enumerate(curve) if a
             for j in range(self.curve_rank) if d[j]),
            Fraction(0),
        )


@lru_cache(maxsize=None)
def load_model(name: str) -> CohRing:
    """The ring model of that name in data/models.json, parsed and validated
    once and shared by every caller."""
    models = read_bundled("models.json")
    if name not in models:
        raise InvalidInputError(f"unknown model {name!r}; bundled: {sorted(models)}")
    return ring_from_json(name, models[name])


def ring_from_json(name: str, raw: dict) -> CohRing:
    labels = tuple(b["label"] for b in raw["basis"])
    degrees = tuple(int(b["degree"]) for b in raw["basis"])
    pairing = tuple(
        tuple(parse_rational(x) for x in row) for row in raw["pairing"]
    )
    curve_labels = None
    imat = None
    dlat = None
    if "curve_classes" in raw:
        curve_labels = tuple(raw["curve_classes"]["labels"])
        imat = tuple(
            tuple(parse_rational(x) for x in row) for row in raw["intersections"]["matrix"]
        )
        dlat = {
            lab: tuple(parse_rational(x) for x in vec)
            for lab, vec in raw["intersections"]["divisors"].items()
        }
    return CohRing(
        name=name,
        labels=labels,
        degrees=degrees,
        pairing=pairing,
        curve_labels=curve_labels,
        intersection_matrix=imat,
        divisor_lattice=dlat,
    )


def kunneth_diagonal(ring: CohRing) -> list[tuple[tuple, tuple]]:
    """Pairs (delta_j, delta_j dual) whose sum of tensor products is the
    diagonal class; the duals satisfy pair(delta_i, dual_j) = kronecker."""
    return [(ring.basis_vector(j), dual) for j, dual in enumerate(ring.duals)]


class Insertion(Frozen):
    __slots__ = ("coords", "psi")

    def __init__(self, coords, psi=0):
        self._set(coords, psi)


class InsertionList(Frozen):
    """An invariant's bookkeeping data: insertions, class, genus, nodes."""

    __slots__ = ("genus", "curve_class", "insertions", "nodes")

    def __init__(self, genus, curve_class, insertions, nodes=0):
        self._set(genus, curve_class, insertions, nodes)


def make_insertions(ring: CohRing, classes, psis=None) -> tuple[Insertion, ...]:
    psis = psis or [0] * len(classes)
    return tuple(
        Insertion(coords=ring.class_coords(c), psi=p) for c, p in zip(classes, psis)
    )


def split_node(parent: InsertionList, ring: CohRing) -> list[tuple[Fraction, InsertionList]]:
    """Replace one imposed node by the diagonal's dual-basis pairs.

    Returns one child per basis class, each with two extra insertions and
    coefficient 1: the duals carry all pairing coefficients and signs.
    Graph prefactors (such as 1/2 for a symmetric loop) belong to the
    caller; adding them here would double-count.
    """
    if parent.nodes < 1:
        raise InvalidInputError("no marked node to split")
    children = []
    for delta, dual in kunneth_diagonal(ring):
        child = InsertionList(
            genus=parent.genus - 1,
            curve_class=parent.curve_class,
            insertions=parent.insertions + (Insertion(delta), Insertion(dual)),
            nodes=parent.nodes - 1,
        )
        children.append((Fraction(1), child))
    return children


def divisor_reduce(term: InsertionList, divisor, ring: CohRing):
    """Remove one psi-free insertion equal to the divisor class.

    Returns (factor, reduced term) with factor the intersection number of
    the term's curve class with the divisor.  psi-decorated insertions
    would need string-equation corrections and are rejected.
    """
    coords = ring.class_coords(divisor)
    if ring.degree_of(coords) != 2:
        raise InvalidInputError("divisor equation needs a degree-2 class")
    for idx, ins in enumerate(term.insertions):
        if ins.coords == coords:
            if ins.psi != 0:
                raise UnsupportedCaseError(
                    "divisor equation with a psi power is out of scope"
                )
            factor = ring.intersect(term.curve_class, coords)
            reduced = term.replace(insertions=term.insertions[:idx] + term.insertions[idx + 1 :])
            return factor, reduced
    raise InvalidInputError(
        f"no psi-free insertion of class {ring.label_of(coords)} to remove"
    )


def middle_diagonal_divisor_factor(ring: CohRing, curve_class) -> Fraction:
    """Divisor factor of a split node on a surface: sum over middle-degree
    diagonal terms of (beta . delta)(beta . dual).

    Recomputed from intersection data on purpose; the worked example's
    factor list depends on these numbers coming out of the lattice, not a
    table.
    """
    total = Fraction(0)
    for delta, dual in kunneth_diagonal(ring):
        if ring.degree_of(delta) != 2:
            continue
        total += ring.intersect(curve_class, delta) * ring.intersect(curve_class, dual)
    return total


def kunneth_reorder_sign(degrees, sides) -> int:
    """Sign from reordering insertions into side-1-then-side-2 blocks.

    Only odd-degree classes anticommute: the sign is (-1)^count where
    count is the number of odd-class pairs that swap past each other.
    """
    if len(degrees) != len(sides):
        raise InvalidInputError("degrees and sides must align")
    count = 0
    for i in range(len(degrees)):
        for j in range(i + 1, len(degrees)):
            if sides[i] == 2 and sides[j] == 1 and degrees[i] % 2 and degrees[j] % 2:
                count += 1
    return -1 if count % 2 else 1
