"""Finite graded cohomology models with exact Poincare pairing.

Provides the dual-basis diagonal decomposition, the node-splitting
expansion of an imposed-node invariant, and the divisor-equation
reduction.  Models are data: a labeled basis with degrees, the pairing
matrix, and (for surfaces) the curve-class lattice with its intersection
form.  No cup products are stored; the bundled computations never need
them.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType

from . import linalg, read_bundled
from .errors import InvalidInputError, InvalidModelError, UnsupportedCaseError
from .frozen import Frozen
from .rationals import (as_rational, exact_sequence, format_rational, instance_argument,
                        integer_argument, integer_sequence, over_common_denominator, sequence_argument)


def _join_terms(terms) -> str:
    """Join signed terms as 'a+b-c'; an empty sum is '0'."""
    if not terms:
        return "0"
    return terms[0] + "".join(t if t.startswith("-") else "+" + t for t in terms[1:])


def _not_text(name, what, row):
    """A row of model data as given; a string is refused, not read as its characters."""
    if isinstance(row, str):
        raise InvalidModelError(
            f"model {name}: {what} entries must be rationals: refusing the string row {row!r}"
        )
    return row


def _rational_rows(name, what, rows) -> tuple[tuple[Fraction, ...], ...]:
    """Model data as rows of Fractions; a refusal names the model."""
    try:
        return tuple(tuple(map(as_rational, _not_text(name, what, row))) for row in rows)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidModelError(f"model {name}: {what} entries must be rationals: {exc}") from exc


def _distinct_strings(name, values, what, each, of=""):
    """A sequence of distinct `str` labels; each refusal names the model."""
    values = sequence_argument(f"model {name}: {what}", values, of, InvalidModelError)
    for value in values:
        instance_argument(f"model {name}: a {each}", value, str, "a string", InvalidModelError)
    if len(set(values)) != len(values):
        raise InvalidModelError(f"model {name}: {each}s must be distinct, got {values}")
    return values


def _curve_rank(name, curve_labels) -> int:
    if curve_labels is None:
        raise InvalidModelError(f"model {name} carries no curve-class lattice")
    return len(curve_labels)


def _divisor_refusal(name, labels, rows, coords, degree):
    """The refusal `intersect` gives a class of that degree over that divisor table,
    in its order, or None when the table covers the class."""
    if degree != 2:
        return InvalidInputError("divisor classes must have degree 2")
    if rows is None:
        return InvalidModelError(f"model {name} carries no divisor lattice data")
    for lab, c, row in zip(labels, coords, rows):
        if c and row is None:
            return InvalidModelError(f"model {name}: no lattice vector for divisor {lab!r}")
    return None


class CohRing(Frozen, derived=("duals", "units", "divisor_den", "divisor_rows", "middle_rows")):
    """A finite model of a cohomology ring with Poincare pairing.

    Everything the node-splitting path reads is composed once, at construction.
    `duals[j]` is the class with pair(delta_i, duals[j]) = kronecker(i, j), and
    `units[j]` is delta_j itself.  The divisor table holds integers over one
    ring-wide denominator `divisor_den`: a curve class meets basis class i in its
    dot product with `divisor_rows[i]` = den * I . L_i.  For each degree-2 class j,
    `middle_rows` holds, over the same denominator, the row of delta_j and the row
    of its dual, sum_i duals[j][i] * I . L_i; where the data cannot fill them it
    holds the refusal `intersect` would give instead.
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
        "units",
        "divisor_den",
        "divisor_rows",
        "middle_rows",
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
        labels = _distinct_strings(name, labels, "labels", "basis label", " of strings")
        if not labels:
            raise InvalidModelError(f"model {name}: the basis needs at least one label")
        size = len(labels)
        degrees = integer_sequence("degrees", degrees, "degree", 0)
        pairing = sequence_argument(f"model {name}: pairing", pairing, " of rows", InvalidModelError)
        if len(degrees) != size or len(pairing) != size:
            raise InvalidModelError(f"model {name}: inconsistent basis data")
        rows = [sequence_argument(f"model {name}: pairing row", _not_text(name, "pairing", row),
                                  error=InvalidModelError)
                for row in pairing]
        if any(len(row) != size for row in rows):
            raise InvalidModelError(
                f"model {name}: pairing must be {size} x {size}, one entry per basis label"
            )
        pairing = _rational_rows(name, "pairing", rows)
        if curve_labels is not None:
            curve_labels = _distinct_strings(name, curve_labels, "curve labels", "curve label")
        if intersection_matrix is not None:
            intersection_matrix = _rational_rows(name, "intersection matrix", intersection_matrix)
            r = _curve_rank(name, curve_labels)
            if len(intersection_matrix) != r or any(len(row) != r for row in intersection_matrix):
                raise InvalidModelError(
                    f"model {name}: intersection matrix must be {r} x {r}, one entry per curve label"
                )
        lattice_rows = None
        if divisor_lattice is not None:
            if not isinstance(divisor_lattice, Mapping):
                raise InvalidModelError(
                    f"model {name}: the divisor lattice must be a mapping, got {divisor_lattice!r}"
                )
            vectors = _rational_rows(name, "divisor lattice", divisor_lattice.values())
            divisor_lattice = MappingProxyType(dict(zip(divisor_lattice, vectors)))
            for lab, vec in divisor_lattice.items():
                r = _curve_rank(name, curve_labels)
                if lab not in labels or len(vec) != r:
                    raise InvalidModelError(
                        f"model {name}: the divisor lattice must map basis labels to vectors "
                        f"of length {r}, got length {len(vec)} for {lab!r}"
                    )
            if intersection_matrix is None:
                raise InvalidModelError(f"model {name}: a divisor lattice needs an intersection matrix")
            lattice_rows = tuple(
                None if (vec := divisor_lattice.get(lab)) is None
                else tuple(sum(map(mul, row, vec)) for row in intersection_matrix)
                for lab in labels
            )
        # one kernel of [G | -I] both proves G nonsingular and inverts it: its
        # basis vector with free part e_j is (G^-1 e_j, e_j)
        units = tuple(tuple(Fraction(int(i == j)) for j in range(size)) for i in range(size))
        kernel = linalg.nullspace([[*row, *(-e for e in unit)] for row, unit in zip(pairing, units)])
        if [v[size:] for v in kernel] != list(units):
            raise InvalidModelError(f"model {name}: pairing is singular")
        top = max(degrees)
        for i in range(size):
            for j in range(size):
                if pairing[i][j] and degrees[i] + degrees[j] != top:
                    raise InvalidModelError(f"model {name}: pairing violates degree complementarity")
        duals = tuple(v[:size] for v in kernel)
        # each degree-2 class j: the refusal its pair of rows meets first, or the rows
        # of delta_j and of its dual, which has degree top - 2 by complementarity
        middle = [
            _divisor_refusal(name, labels, lattice_rows, units[j], 2)
            or _divisor_refusal(name, labels, lattice_rows, duals[j], top - 2)
            or (lattice_rows[j], [sum(c * row[a] for c, row in zip(duals[j], lattice_rows) if c)
                                  for a in range(len(curve_labels))])
            for j in range(size) if degrees[j] == 2
        ]
        # then every row as integers over one denominator
        filled = [rows for rows in (lattice_rows or (), *middle) if rows.__class__ is tuple]
        _, den = over_common_denominator([x for rows in filled for row in rows if row for x in row])

        def scaled(row):
            return None if row is None else tuple((x * den).numerator for x in row)

        divisor_rows = lattice_rows and tuple(map(scaled, lattice_rows))
        middle_rows = tuple(m if m.__class__ is not tuple else tuple(map(scaled, m)) for m in middle)
        self._set(name, labels, degrees, pairing, curve_labels, intersection_matrix,
                  divisor_lattice, duals, units, den, divisor_rows, middle_rows)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        if integer_argument("basis index", i) not in range(self.size):
            raise InvalidInputError(f"basis index {i} out of range 0..{self.size - 1}")
        return self.units[i]

    def class_coords(self, cls) -> tuple[Fraction, ...]:
        """Resolve a label or a sequence of rational coordinates."""
        if isinstance(cls, str):
            try:
                return self.units[self.labels.index(cls)]
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

    def degree_of(self, cls) -> int:
        return self._degree(self.class_coords(cls))

    def _degree(self, coords) -> int:
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
        return _curve_rank(self.name, self.curve_labels)

    def curve_label(self, curve) -> str:
        curve = self._curve_argument(curve)
        return _join_terms(
            [lab if c == 1 else f"{c}{lab}" for c, lab in zip(curve, self.curve_labels) if c]
        )

    def _curve_argument(self, curve) -> tuple[int, ...]:
        """A curve class of this ring: a sequence of curve-rank integers."""
        curve = integer_sequence("curve class", curve, "class entry", within=self.name)
        if len(curve) != self.curve_rank:
            raise InvalidInputError(
                f"curve class must have {self.curve_rank} coordinates in {self.name}"
            )
        return curve

    def intersect(self, curve, divisor) -> Fraction:
        """Intersection number of a curve class with a degree-2 class."""
        curve = self._curve_argument(curve)
        coords = self.class_coords(divisor)
        degree = self._degree(coords)
        refusal = _divisor_refusal(self.name, self.labels, self.divisor_rows, coords, degree)
        if refusal is not None:
            raise refusal
        numerators, den = over_common_denominator(coords)
        total = sum(c * sum(map(mul, curve, row)) for c, row in zip(numerators, self.divisor_rows) if c)
        return Fraction(total, den * self.divisor_den)


def load_model(name: str) -> CohRing:
    """The ring model of that name in data/models.json, parsed and validated
    once and shared by every caller."""
    return _load_model(instance_argument("model name", name, str, "a string"))


@lru_cache(maxsize=None)
def _load_model(name: str) -> CohRing:
    models = read_bundled("models.json")
    if name not in models:
        raise InvalidInputError(f"unknown model {name!r}; bundled: {sorted(models)}")
    return ring_from_json(name, models[name])


def ring_from_json(name: str, raw: dict) -> CohRing:
    """A ring from its JSON form; a raw model that is not a mapping, or that
    misses a key, raises InvalidModelError naming the model."""
    if not isinstance(raw, Mapping):
        raise InvalidModelError(f"model {name}: the model must be a mapping, got {raw!r}")
    try:
        curve_labels = imat = dlat = None
        if "curve_classes" in raw:
            curve_labels = tuple(raw["curve_classes"]["labels"])
            imat = raw["intersections"]["matrix"]
            dlat = raw["intersections"]["divisors"]
        labels = tuple(b["label"] for b in raw["basis"])
        degrees = tuple(b["degree"] for b in raw["basis"])
        pairing = raw["pairing"]
    except KeyError as exc:
        raise InvalidModelError(f"model {name}: missing key {exc}") from exc
    except TypeError as exc:
        raise InvalidModelError(f"model {name}: malformed model: {exc}") from exc
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
    return list(zip(ring.units, ring.duals))


class Insertion(Frozen):
    __slots__ = ("coords", "psi")

    def __init__(self, coords, psi=0):
        coords = exact_sequence("coordinates", coords, "coordinate", " of ints and Fractions")
        self._set(coords, integer_argument("psi power", psi, 0))


class InsertionList(Frozen):
    """An invariant's bookkeeping data: insertions, class, genus, nodes."""

    __slots__ = ("genus", "curve_class", "insertions", "nodes")

    def __init__(self, genus, curve_class, insertions, nodes=0):
        integer_argument("genus", genus, 0)
        curve_class = integer_sequence("curve class", curve_class, "class entry")
        self._set(genus, curve_class, insertions, integer_argument("node count", nodes, 0))


def make_insertions(ring: CohRing, classes, psis=None) -> tuple[Insertion, ...]:
    classes = sequence_argument("classes", classes)
    psis = [0] * len(classes) if psis is None else sequence_argument("psis", psis, " of psi powers")
    if len(psis) != len(classes):
        raise InvalidInputError(
            f"psis must give one psi power per class: {len(psis)} for {len(classes)} classes"
        )
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

    Computed on every call, as integer dot products of the curve class with the
    rows `ring.middle_rows` composed from the lattice at construction, over the
    square of the ring's one denominator; nothing is remembered per curve class.
    The worked example's factor list depends on these numbers coming out of the
    lattice, not a table.  A row the ring's data could not fill raises the
    refusal `intersect` gives.
    """
    curve = instance_argument("ring", ring, CohRing)._curve_argument(curve_class)
    total = 0
    for rows in ring.middle_rows:
        if rows.__class__ is not tuple:
            raise rows.__class__(*rows.args)
        delta, dual = rows
        total += sum(map(mul, curve, delta)) * sum(map(mul, curve, dual))
    return Fraction(total, ring.divisor_den ** 2)


def kunneth_reorder_sign(degrees, sides) -> int:
    """Sign from reordering insertions into side-1-then-side-2 blocks.

    Only odd-degree classes anticommute: the sign is (-1)^count where
    count is the number of odd-class pairs that swap past each other.
    """
    degrees = integer_sequence("degrees", degrees, "degree", 0)
    sides = integer_sequence("sides", sides, "side")
    if len(degrees) != len(sides):
        raise InvalidInputError("degrees and sides must align")
    for side in sides:
        if side not in (1, 2):
            raise InvalidInputError(f"side must be 1 or 2, got {side}")
    count = 0
    for i in range(len(degrees)):
        for j in range(i + 1, len(degrees)):
            if sides[i] == 2 and sides[j] == 1 and degrees[i] % 2 and degrees[j] % 2:
                count += 1
    return -1 if count % 2 else 1
