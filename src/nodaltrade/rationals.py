"""Exact rationals: the argument gates, parsing and formatting as "p/q"
strings, one common denominator, and one division of integers by their gcd,
which `new_in_lowest_terms` applies to build every value kept over one denominator.

All machine-readable output renders numbers this way so that no consumer
ever sees a float.  One gate here alone decides each kind of argument:
`integer_argument` an integer, `sequence_argument` a sequence, `integer_sequence`
one of integers, `exact_sequence` one of ints and Fractions, `rational_argument`
a rational and `instance_argument` a value of one class; see the README.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidInputError


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"malformed rational {text!r}: {exc}") from exc


def as_rational(value) -> Fraction:
    """An int, a Fraction or a rational string as a Fraction; a float raises
    TypeError, since its binary value is not the decimal it was written as.
    An exact Fraction comes back as it is."""
    if value.__class__ is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing the float {value!r}")
    return Fraction(value)


def rational_argument(name: str, value) -> Fraction:
    """`as_rational` for an argument: a refusal is an input error naming it."""
    try:
        return as_rational(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"{name} must be a rational: {exc}") from exc


def integer_argument(name: str, value, minimum=None) -> int:
    """An int argument, never a bool or a float, at least `minimum` if one is
    given; a refusal is an input error naming the argument."""
    if value.__class__ is not int:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return value


def sequence_argument(name: str, values, of: str = "", error=InvalidInputError) -> tuple:
    """A sequence argument as a tuple; a value that cannot be iterated is an
    `error` naming the argument and, in `of`, what it is a sequence of."""
    try:
        return tuple(values)
    except TypeError as exc:
        raise error(f"{name} must be a sequence{of}, got {values!r}") from exc


def instance_argument(name: str, value, cls, what=None, error=InvalidInputError):
    """A value of exactly the class `cls`, never a subclass; a refusal is an `error`
    naming the argument and what it must be: `what`, else "a" and the class name."""
    if value.__class__ is not cls:
        raise error(f"{name} must be {what or 'a ' + cls.__name__}, got {value!r}")
    return value


def integer_sequence(name: str, values, entry: str, minimum=None, within=None) -> tuple:
    """`sequence_argument` whose every entry passes `integer_argument` under the
    name `entry`; a refusal of the sequence names the model it is read
    `within`, if one is given."""
    values = sequence_argument(name, values, f" of integers in {within}" if within else " of integers")
    for value in values:
        integer_argument(entry, value, minimum)
    return values


def exact_sequence(name: str, values, entry: str, of: str = "") -> tuple:
    """`sequence_argument` whose every entry is an int or a Fraction, checked by
    type, so never a bool, a float or a string; a refused entry is named `entry`."""
    values = sequence_argument(name, values, of)
    if not set(map(type, values)) <= {int, Fraction}:
        value = next(v for v in values if type(v) not in (int, Fraction))
        raise InvalidInputError(f"{entry} must be an int or a Fraction, got {value!r}")
    return values


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of a sequence of ints and Fractions over their least
    common denominator, and that denominator: value i is numerators[i] /
    denominator, and gcd(denominator, *numerators) is 1; ([], 1) for no values."""
    den = lcm(*{v.denominator for v in values})
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def divided_by_gcd(ints: list[int]) -> list[int]:
    """The integers divided by their gcd: the list itself if that is 0 or 1."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def new_in_lowest_terms(cls, fields, numerators, denominator):
    """A new `cls`, built without its `__init__` for a caller that has checked every
    field and that denominator >= 1: its slots hold `fields`, then the numerators and
    the denominator divided by their gcd.  The numerators stay a list, never changed:
    CPython 3.11 never reuses a freed 20-item tuple (it keeps 2,000)."""
    *numerators, denominator = divided_by_gcd([*numerators, denominator])
    value = cls.__new__(cls)
    setattr_ = object.__setattr__  # not `Frozen._set`: this runs a few times per roundtrip
    for name, field in zip(cls.__slots__, (*fields, numerators, denominator)):
        setattr_(value, name, field)
    return value


def format_rational(value) -> str:
    """Render an int or Fraction as "p" or "p/q" in lowest terms."""
    f = value if value.__class__ is Fraction else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
