"""Enumerative inputs: the genus-0 plane-curve recursion, the pencil
Euler-characteristic count, and the bundled table of quoted counts.

The recursion makes the headline count of rational cubics reproducible
instead of hardcoded; tangency and relative counts that cannot be derived
at this scale ship in data/counts.json, each entry with a provenance note.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from . import read_bundled
from .errors import InvalidInputError, InvalidModelError, MissingDataError, ResourceLimitError
from .frozen import Frozen
from .rationals import parse_rational

# The recursion nests d calls deep, so the ceiling stays well inside the
# interpreter's recursion limit; d = 100 takes tens of milliseconds cold.
KONTSEVICH_MAX_D = 100


@lru_cache(maxsize=None)
def kontsevich_nd(d: int) -> int:
    """Number of rational degree-d plane curves through 3d-1 general points.

    Genus-0 recursion seeded with one line through two points:

      N_d = sum over d1+d2=d, d1,d2>=1 of
            N_d1 N_d2 d1^2 d2 (d2 C(3d-4, 3d1-2) - d1 C(3d-4, 3d1-1))

    Exact with big integers, for an int 1 <= d <= KONTSEVICH_MAX_D; past
    the ceiling it raises ResourceLimitError.
    """
    if d.__class__ is not int:
        raise InvalidInputError(f"degree must be an integer, got {d!r}")
    if d < 1:
        raise InvalidInputError(f"degree must be >= 1, got {d}")
    if d > KONTSEVICH_MAX_D:
        raise ResourceLimitError(
            f"degree {d} exceeds the plane-count ceiling d <= {KONTSEVICH_MAX_D}"
        )
    if d == 1:
        return 1
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        total += (
            kontsevich_nd(d1)
            * kontsevich_nd(d2)
            * d1 ** 2
            * d2
            * (d2 * comb(3 * d - 4, 3 * d1 - 2) - d1 * comb(3 * d - 4, 3 * d1 - 1))
        )
    return total


def pencil_reducible_count(chi_surface: int, num_basepoints: int) -> int:
    """Reducible two-component members of a pencil of rational curves.

    Blowing up the base points gives a P1-fibration over P1 whose Euler
    characteristic is (2-k)*2 + k*3 = k+4 when k fibers break into two
    components, so k = chi(surface) + #basepoints - 4.
    """
    if num_basepoints < 0:
        raise InvalidInputError("base point count must be >= 0")
    k = chi_surface + num_basepoints - 4
    if k < 0:
        raise InvalidModelError(
            f"chi={chi_surface} with {num_basepoints} base points gives a negative "
            "reducible-fiber count; the pencil model does not apply"
        )
    return k


class OracleTable(Frozen):
    """String-keyed exact rationals, each with a provenance note."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self._set({} if entries is None else entries)

    def with_entry(self, key: str, value, provenance: str) -> "OracleTable":
        new = dict(self.entries)
        new[key] = (Fraction(value), provenance)
        return OracleTable(new)

    def keys(self):
        return self.entries.keys()


def lookup(key: str, table: OracleTable | None = None) -> Fraction:
    """Tabled value for a key; absent keys raise naming the key."""
    value, _ = lookup_with_provenance(key, table)
    return value


def lookup_with_provenance(key: str, table: OracleTable | None = None):
    table = table if table is not None else bundled_table()
    entry = table.entries.get(key)
    if entry is None:
        raise MissingDataError(key)
    return entry


@lru_cache(maxsize=None)
def bundled_table() -> OracleTable:
    return OracleTable({
        key: (parse_rational(item["value"]), item["provenance"])
        for key, item in read_bundled("counts.json").items()
    })
