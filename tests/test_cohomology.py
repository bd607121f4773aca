import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nodaltrade
from nodaltrade.cohomology import (
    CohRing,
    InsertionList,
    divisor_reduce,
    kunneth_diagonal,
    kunneth_reorder_sign,
    load_model,
    make_insertions,
    middle_diagonal_divisor_factor,
    split_node,
)
from nodaltrade.errors import (
    InvalidInputError,
    InvalidModelError,
    UnsupportedCaseError,
)
from nodaltrade.linalg import mat_vec, rank


def test_bundled_models_load_and_validate():
    for name in ("p2", "f1", "p1", "elliptic", "point"):
        ring = load_model(name)
        assert ring.size >= 1
    with pytest.raises(InvalidInputError):
        load_model("p3")


def test_reading_the_bundled_data_imports_no_resource_machinery():
    # -S: a site .pth file may import importlib.resources at every start-up
    script = (
        "import sys, nodaltrade.cli\n"
        "from nodaltrade.cohomology import load_model\n"
        "from nodaltrade.plane_counts import bundled_table\n"
        "for name in ('p2', 'f1', 'p1', 'elliptic', 'point'):\n"
        "    load_model(name)\n"
        "bundled_table()\n"
        "print(sorted({'importlib.resources', 'pathlib'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(nodaltrade.__file__))
    run = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout == "[]\n"


def test_bundled_models_are_shared_and_read_only():
    for name in ("p2", "f1", "p1", "elliptic", "point"):
        assert load_model(name) is load_model(name)
    f1 = load_model("f1")
    lattice = dict(f1.divisor_lattice)
    with pytest.raises(TypeError):
        f1.divisor_lattice["D0"] = (Fraction(9), Fraction(9))
    with pytest.raises(FrozenInstanceError):
        f1.divisor_lattice = {}
    assert dict(load_model("f1").divisor_lattice) == lattice


def test_duals_are_computed_once_at_construction(monkeypatch):
    from nodaltrade import linalg

    calls = []
    original = linalg.nullspace

    def counted(matrix):
        calls.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(linalg, "nullspace", counted)
    ring = CohRing(
        name="p1-copy",
        labels=("1", "pt"),
        degrees=(0, 2),
        pairing=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
    )
    assert calls == [2]
    parent = InsertionList(genus=1, curve_class=(1,), insertions=(), nodes=1)
    for _ in range(3):
        kunneth_diagonal(ring)
        split_node(parent, ring)
    assert calls == [2]
    assert [dual for _, dual in kunneth_diagonal(ring)] == [
        ring.basis_vector(1),
        ring.basis_vector(0),
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda size: st.lists(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=size,
                max_size=size,
            ),
            min_size=size,
            max_size=size,
        )
    )
)
def test_duals_invert_a_random_pairing(pairing):
    # with every basis degree 0, any nonsingular matrix is an admissible pairing
    assume(rank(pairing) == len(pairing))
    size = len(pairing)
    ring = CohRing(
        name="random",
        labels=tuple(f"b{i}" for i in range(size)),
        degrees=(0,) * size,
        pairing=tuple(tuple(row) for row in pairing),
    )
    for j, (delta, dual) in enumerate(kunneth_diagonal(ring)):
        assert delta == ring.basis_vector(j)
        assert mat_vec(ring.pairing, dual) == ring.basis_vector(j)


def test_duality_kronecker_everywhere():
    for name in ("p2", "f1", "p1", "elliptic", "point"):
        ring = load_model(name)
        pairs = kunneth_diagonal(ring)
        for i in range(ring.size):
            for j, (_, dual) in enumerate(pairs):
                expected = Fraction(1) if i == j else Fraction(0)
                assert ring.pair(ring.basis_vector(i), dual) == expected


@pytest.mark.parametrize("cls", [{"H": 1}, ("1", "x", "0"), 5])
def test_class_coords_refuses_non_rationals(cls):
    with pytest.raises(InvalidInputError, match="class coordinates must be rationals in model p2"):
        load_model("p2").class_coords(cls)


def test_class_coords_refuses_floats():
    ring = load_model("p2")
    with pytest.raises(InvalidInputError, match="rationals in model p2, got \\(0.1, 0, 0\\)"):
        ring.class_coords((0.1, 0, 0))
    assert ring.class_coords((1, Fraction(1, 10), "-3/7")) == (1, Fraction(1, 10), Fraction(-3, 7))


def test_p2_diagonal():
    ring = load_model("p2")
    pairs = kunneth_diagonal(ring)
    labels = [(ring.label_of(d), ring.label_of(u)) for d, u in pairs]
    assert labels == [("1", "p"), ("H", "H"), ("p", "1")]


def test_point_diagonal():
    ring = load_model("point")
    pairs = kunneth_diagonal(ring)
    assert [(ring.label_of(d), ring.label_of(u)) for d, u in pairs] == [("1", "1")]


def test_f1_middle_diagonal():
    ring = load_model("f1")
    pairs = kunneth_diagonal(ring)
    middle = {
        ring.label_of(d): ring.label_of(u)
        for d, u in pairs
        if ring.degree_of(d) == 2
    }
    assert middle == {"D0": "F", "F": "D0+F"}


def test_elliptic_diagonal_antisymmetry():
    ring = load_model("elliptic")
    pairs = kunneth_diagonal(ring)
    named = {ring.label_of(d): u for d, u in pairs}
    assert ring.label_of(named["a"]) == "b"
    assert ring.label_of(named["b"]) == "-a"
    # odd-degree middle part changes sign under swapping tensor factors:
    # sum_j delta_j x dual_j restricted to degree 1 equals a x b - b x a
    a = ring.class_coords("a")
    b = ring.class_coords("b")
    assert named["a"] == b
    assert named["b"] == tuple(-x for x in a)


def test_surface_diagonal_symmetry():
    # even-degree diagonals are symmetric: the matrix sum_j delta_j (x) dual_j
    # in middle degree equals its transpose
    for name in ("p2", "f1"):
        ring = load_model(name)
        mid = [i for i in range(ring.size) if ring.degrees[i] == 2]
        matrix = [[Fraction(0)] * ring.size for _ in range(ring.size)]
        for d, u in kunneth_diagonal(ring):
            if ring.degree_of(d) != 2:
                continue
            i = d.index(Fraction(1))
            for j, c in enumerate(u):
                matrix[i][j] += c
        for i in mid:
            for j in mid:
                assert matrix[i][j] == matrix[j][i]


def test_f1_lattice_numbers():
    ring = load_model("f1")
    d03f = (1, 3)  # D0 + 3F
    assert ring.intersect(d03f, "D0") == 2
    assert ring.intersect(d03f, "F") == 1
    assert ring.intersect(d03f, ring.class_coords((0, 1, 1, 0))) == 3  # D0 + F
    assert ring.intersect((1, 0), "D0") == -1  # D0 . D0 = -1 follows


def test_split_node_counts_and_degrees():
    for name in ("p2", "f1", "elliptic", "point"):
        ring = load_model(name)
        parent = InsertionList(
            genus=1,
            curve_class=(1,) if name == "p2" else (0,) * max(1, ring.size - ring.size + 1),
            insertions=(),
            nodes=1,
        )
        children = split_node(parent, ring)
        assert len(children) == ring.size
        for coeff, child in children:
            assert coeff == 1
            assert child.genus == 0
            assert child.nodes == 0
            extra = child.insertions[-2:]
            total = ring.degree_of(extra[0].coords) + ring.degree_of(extra[1].coords)
            assert total == ring.top_degree


def test_split_node_needs_a_node():
    ring = load_model("p2")
    with pytest.raises(InvalidInputError):
        split_node(InsertionList(genus=0, curve_class=(1,), insertions=(), nodes=0), ring)


def test_elliptic_split_terms():
    ring = load_model("elliptic")
    parent = InsertionList(genus=1, curve_class=(1,), insertions=(), nodes=1)
    children = split_node(parent, ring)
    got = [
        (ring.label_of(child.insertions[-2].coords), ring.label_of(child.insertions[-1].coords))
        for _, child in children
    ]
    assert got == [("1", "p"), ("a", "b"), ("b", "-a"), ("p", "1")]


def test_divisor_reduce_fixtures():
    p2 = load_model("p2")
    term = InsertionList(
        genus=0,
        curve_class=(3,),
        insertions=make_insertions(p2, ["H", "p", "p"]),
        nodes=0,
    )
    factor, reduced = divisor_reduce(term, "H", p2)
    assert factor == 3
    assert len(reduced.insertions) == 2

    f1 = load_model("f1")
    term = InsertionList(
        genus=0,
        curve_class=(1, 3),
        insertions=make_insertions(f1, ["F"]),
        nodes=0,
    )
    factor, _ = divisor_reduce(term, "F", f1)
    assert factor == 1

    zero_class = InsertionList(
        genus=0, curve_class=(0,), insertions=make_insertions(p2, ["H"]), nodes=0
    )
    factor, _ = divisor_reduce(zero_class, "H", p2)
    assert factor == 0


def test_divisor_reduce_rejections():
    p2 = load_model("p2")
    with_psi = InsertionList(
        genus=0,
        curve_class=(2,),
        insertions=make_insertions(p2, ["H"], [1]),
        nodes=0,
    )
    with pytest.raises(UnsupportedCaseError):
        divisor_reduce(with_psi, "H", p2)
    no_match = InsertionList(
        genus=0, curve_class=(2,), insertions=make_insertions(p2, ["p"]), nodes=0
    )
    with pytest.raises(InvalidInputError):
        divisor_reduce(no_match, "H", p2)
    with pytest.raises(InvalidInputError):
        divisor_reduce(no_match, "p", p2)  # degree 4 is not a divisor


def test_middle_divisor_factors():
    p2 = load_model("p2")
    f1 = load_model("f1")
    assert middle_diagonal_divisor_factor(p2, (2,)) == 4
    assert middle_diagonal_divisor_factor(p2, (1,)) == 1
    assert middle_diagonal_divisor_factor(p2, (3,)) == 9
    assert middle_diagonal_divisor_factor(f1, (1, 3)) == 5
    assert middle_diagonal_divisor_factor(f1, (1, 2)) == 3
    assert middle_diagonal_divisor_factor(f1, (0, 1)) == 0


def test_reorder_sign():
    # all even degrees: always +1
    assert kunneth_reorder_sign((4, 4, 4, 4), (1, 2, 1, 2)) == 1
    # two odd classes crossing each other: -1
    assert kunneth_reorder_sign((1, 1), (2, 1)) == -1
    assert kunneth_reorder_sign((1, 1), (1, 2)) == 1
    # odd past even: no sign
    assert kunneth_reorder_sign((1, 2), (2, 1)) == 1
    with pytest.raises(InvalidInputError):
        kunneth_reorder_sign((1, 2), (1,))


def test_singular_model_rejected():
    with pytest.raises(InvalidModelError):
        CohRing(
            name="bad",
            labels=("1", "x"),
            degrees=(0, 2),
            pairing=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        )
    with pytest.raises(InvalidModelError):
        CohRing(
            name="bad2",
            labels=("1", "x"),
            degrees=(0, 2),
            pairing=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )


@pytest.mark.parametrize(
    "pairing",
    [((0, 1), (1,)), ((0, 1, 0), (1, 0, 0))],
    ids=["ragged", "two-by-three"],
)
def test_misshapen_pairing_names_model_and_shape(pairing):
    # a short row used to end in an IndexError, a wide one in "singular"
    with pytest.raises(InvalidModelError, match=r"model warped: pairing must be 2 x 2"):
        CohRing(name="warped", labels=("1", "x"), degrees=(0, 0), pairing=pairing)
