from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodaltrade.rationals import as_rational, format_rational, over_common_denominator


class Tagged(Fraction):
    pass


def test_an_exact_fraction_is_kept_as_it_is():
    f = Fraction(-7, 3)
    assert as_rational(f) is f
    assert format_rational(f) == "-7/3"


@pytest.mark.parametrize(
    "value, text",
    [(5, "5"), (True, "1"), ("6/4", "3/2"), (Tagged(6, 4), "3/2")],
    ids=["int", "bool", "string", "subclass"],
)
def test_other_values_become_a_new_fraction(value, text):
    f = as_rational(value)
    assert f.__class__ is Fraction and f is not value
    assert format_rational(f) == text
    if not isinstance(value, str):
        assert format_rational(value) == text


def test_floats_are_still_refused():
    with pytest.raises(TypeError, match="refusing the float 0.5"):
        as_rational(0.5)


def test_over_common_denominator():
    mixed = (Fraction(1, 2), Fraction(0), Fraction(-2, 3), 5)
    assert over_common_denominator(mixed) == ([3, 0, -4, 30], 6)
    assert over_common_denominator((Fraction(1, 3), 1)) == ([1, 3], 3)
    numerators, den = over_common_denominator((4, Fraction(3), -1))
    assert (numerators, den) == ([4, 3, -1], 1)
    assert {type(a) for a in numerators} == {int}
    assert over_common_denominator(()) == ([], 1)


@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30)), max_size=12))
def test_over_common_denominator_is_exact_and_in_lowest_terms(values):
    numerators, den = over_common_denominator(values)
    assert den > 0 and gcd(den, *numerators) == 1
    assert {type(a) for a in numerators} <= {int}
    assert [Fraction(a, den) for a in numerators] == values
