from fractions import Fraction

import pytest

from nodaltrade.errors import InvalidInputError, InvalidModelError, MissingDataError
from nodaltrade.plane_counts import (
    OracleTable,
    bundled_table,
    kontsevich_nd,
    lookup,
    lookup_with_provenance,
    pencil_reducible_count,
)


def test_recursion_fixtures():
    assert kontsevich_nd(1) == 1
    assert kontsevich_nd(2) == 1
    assert kontsevich_nd(3) == 12
    assert kontsevich_nd(4) == 620
    assert kontsevich_nd(5) == 87304


def test_recursion_runs_to_degree_eight():
    values = [kontsevich_nd(d) for d in range(1, 9)]
    assert values[-1] > 0
    # strictly increasing from degree 2 on
    assert all(values[i] < values[i + 1] for i in range(1, 7))


def test_recursion_rejects_bad_degree():
    with pytest.raises(InvalidInputError):
        kontsevich_nd(0)
    with pytest.raises(InvalidInputError):
        kontsevich_nd(-3)


def test_recursion_summation_order_is_immaterial():
    # re-run the defining sum in reversed order with fresh arithmetic
    from math import comb

    for d in range(2, 9):
        total = 0
        for d1 in reversed(range(1, d)):
            d2 = d - d1
            total += (
                kontsevich_nd(d1)
                * kontsevich_nd(d2)
                * d1**2
                * d2
                * (d2 * comb(3 * d - 4, 3 * d1 - 2) - d1 * comb(3 * d - 4, 3 * d1 - 1))
            )
        assert total == kontsevich_nd(d)


def test_pencil_counts():
    # conic pencil in the plane through 4 points: 3 reducible members
    assert pencil_reducible_count(3, 4) == 3
    # the degree-(1,3) pencil on the blown-up surface through 5 points: 5
    assert pencil_reducible_count(4, 5) == 5
    assert pencil_reducible_count(4, 0) == 0
    with pytest.raises(InvalidModelError):
        pencil_reducible_count(2, 1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((4.0, 5), "chi must be an integer, got 4.0"),
        ((True, 5), "chi must be an integer, got True"),
        ((4, 5.0), "base point count must be an integer, got 5.0"),
        ((4, False), "base point count must be an integer, got False"),
    ],
    ids=["float-chi", "bool-chi", "float-basepoints", "bool-basepoints"],
)
def test_pencil_count_refuses_a_float_or_a_bool(args, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        pencil_reducible_count(*args)
    with pytest.raises(InvalidInputError, match="^base point count must be >= 0, got -1$"):
        pencil_reducible_count(4, -1)


def test_pencil_count_affine_in_each_argument():
    for chi in range(3, 7):
        for bp in range(1, 6):
            assert pencil_reducible_count(chi + 1, bp) == pencil_reducible_count(chi, bp) + 1
            assert pencil_reducible_count(chi, bp + 1) == pencil_reducible_count(chi, bp) + 1


def test_lookup_fixtures():
    assert lookup("p2.conic.4pts.tangentL") == 2
    assert lookup("f1.D0+3F.4pts.tangentD0.fixedpt") == 1
    assert lookup("f1.D0+3F.6pts") == 1
    assert lookup("p2.cubic.9pts") == 0


def test_lookup_missing_key_names_it():
    with pytest.raises(MissingDataError) as info:
        lookup("p2.quartic.11pts")
    assert "p2.quartic.11pts" in str(info.value)


def test_every_entry_has_provenance():
    table = bundled_table()
    for key in table.keys():
        value, provenance = lookup_with_provenance(key, table)
        assert isinstance(value, Fraction)
        assert len(provenance) > 20


def test_conic_count_matches_recursion():
    # the tabled 5-point conic count is the degree-2 recursion value
    assert lookup("p2.conic.5pts") == kontsevich_nd(2)


def test_reducible_refinement_sums_to_pencil_count():
    total = lookup("f1.reducible.fiber_through_interior") + lookup(
        "f1.reducible.fiber_through_boundary"
    )
    assert total == pencil_reducible_count(4, 5)


def test_with_entry_does_not_mutate():
    table = bundled_table()
    bigger = table.with_entry("toy.key", Fraction(7, 2), "synthetic test entry")
    assert lookup("toy.key", bigger) == Fraction(7, 2)
    with pytest.raises(MissingDataError):
        lookup("toy.key", table)
