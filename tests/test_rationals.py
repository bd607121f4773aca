from fractions import Fraction

import pytest

from nodaltrade.rationals import as_rational, format_rational


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
