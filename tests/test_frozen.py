"""Value semantics of the frozen base, checked against real dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodaltrade
from nodaltrade.case_study import CaseReport
from nodaltrade.cohomology import load_model
from nodaltrade.errors import InvalidInputError
from nodaltrade.frozen import Frozen
from nodaltrade.partitions import Partition
from nodaltrade.stable_graphs import INTERIOR, RELATIVE, Leg, Vertex
from nodaltrade.tensor_oracle import BilinearSpace, Tensor


def test_importing_the_cli_loads_no_dataclasses():
    src = str(Path(nodaltrade.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, nodaltrade.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


SMALL = st.integers(0, 3)
RATIONAL = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
).filter(bool)


@st.composite
def tensor_fields(draw):
    dim = draw(st.integers(1, 3))
    flats = tuple(sorted(draw(st.lists(st.integers(0, dim * dim - 1), unique=True, max_size=4))))
    values = tuple(draw(RATIONAL) for _ in flats)
    return {"n": 1, "dim": dim, "flats": flats, "values": values}


# each class with a strategy for valid constructor keywords and one change that
# its checks refuse
CASES = {
    Leg: (
        st.one_of(
            st.fixed_dictionaries(
                {"vertex": SMALL, "marking": SMALL, "kind": st.just(INTERIOR),
                 "multiplicity": st.none()}
            ),
            st.fixed_dictionaries(
                {"vertex": SMALL, "marking": SMALL, "kind": st.just(RELATIVE),
                 "multiplicity": st.integers(1, 2)}
            ),
        ),
        {"kind": "bogus"},
    ),
    Vertex: (
        st.fixed_dictionaries({"genus": SMALL, "cls": st.tuples(SMALL, SMALL)}),
        {"genus": -1},
    ),
    Partition: (
        st.fixed_dictionaries(
            {"parts": st.lists(st.integers(1, 3), max_size=3).map(
                lambda p: tuple(sorted(p, reverse=True)))}
        ),
        {"parts": (1, 2)},
    ),
    BilinearSpace: (
        st.fixed_dictionaries(
            {"flavor": st.sampled_from(["orthogonal", "symplectic"]), "k": st.integers(1, 2)}
        ),
        {"k": 0},
    ),
    Tensor: (tensor_fields(), {"flats": (0,), "values": (0.5,)}),
}


def twin_of(names):
    """Another Frozen class with the same fields, set in the same order."""

    def __init__(self, *values):
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    return type("Twin", (Frozen,), {"__slots__": names, "__init__": __init__})


@st.composite
def value_pairs(draw):
    cls = draw(st.sampled_from(list(CASES)))
    fields = CASES[cls][0]
    a = draw(fields)
    b = draw(st.one_of(st.just(a), fields))
    changed = draw(st.sets(st.sampled_from(list(b))))
    return cls, a, b, changed


def shown(cls, fields):
    """The constructor's fields as the value shows them: a Tensor keeps its values
    over one denominator, so it shows ints where that is 1 and Fractions otherwise."""
    if cls is not Tensor:
        return fields
    values = tuple(map(Fraction, fields["values"]))
    if all(v.denominator == 1 for v in values):
        values = tuple(v.numerator for v in values)
    return {**fields, "values": values}


@settings(max_examples=300, deadline=None)
@given(value_pairs())
def test_frozen_values_behave_like_frozen_dataclasses(case):
    cls, a, b, changed = case
    x, y = cls(**a), cls(**b)
    names = cls._fields  # the constructor's fields in declaration order (views for Tensor)

    # equal fields <=> equal values, and equal values hash alike
    assert (x == y) == (a == b) and (x != y) == (a != b)
    if x == y:
        assert hash(x) == hash(y)

    # a different class with the same field values is a different value
    twin = twin_of(names)(*(a[name] for name in names))
    assert x != twin and not x == twin

    reference = make_dataclass(cls.__name__, names, frozen=True)
    assert repr(x) == repr(reference(**shown(cls, a)))

    for name in (*names, "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert x == cls(**a)
    assert copy.copy(x) == pickle.loads(pickle.dumps(x)) == x

    # replace changes just the named fields and reruns the constructor's checks
    merged = {**a, **{name: b[name] for name in changed}}
    try:
        expected = cls(**merged)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            x.replace(**{name: b[name] for name in changed})
    else:
        new = x.replace(**{name: b[name] for name in changed})
        assert new == expected and type(new) is cls
        assert all(getattr(new, name) == merged[name] for name in names)
    with pytest.raises(InvalidInputError):
        x.replace(**CASES[cls][1])


def test_derived_and_uncompared_fields():
    # a derived field is neither shown nor passed on; every other field is compared
    ring = load_model("p1")
    assert "duals" not in repr(ring) and ring.replace() == ring
    assert ring.replace(name="copy").duals == ring.duals
    report = CaseReport(Fraction(1), {"i": Fraction(1)}, breakdowns={"i": 1})
    assert (report.rhs_total, report.agreement) == (Fraction(1), True)
    assert "rhs_total" not in repr(report) and "agreement" not in repr(report)
    assert report != report.replace(breakdowns={}) and "breakdowns={'i': 1}" in repr(report)
    assert report == report.replace()
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
