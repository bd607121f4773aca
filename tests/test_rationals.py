import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nodaltrade
from nodaltrade.case_study import (
    _cubic_options,
    compute_lhs,
    cubic_scenario,
    elliptic_demo,
    evaluate_plane_invariant,
    parent_graph,
)
from nodaltrade.cohomology import (
    CohRing,
    Insertion,
    InsertionList,
    divisor_reduce,
    kunneth_reorder_sign,
    load_model,
    make_insertions,
    middle_diagonal_divisor_factor,
)
from nodaltrade.errors import InvalidInputError, InvalidModelError, UnsupportedCaseError
from nodaltrade.loop_matrix import (
    PairingVector,
    build_loop_matrix,
    flavor_dimension,
    isotypic_component,
    restricted_inverse_apply,
)
from nodaltrade.node_trade import primitive_insertion_pairs, recover
from nodaltrade.pairings import Pairing, act_permutation
from nodaltrade.partitions import Partition, all_partitions, even_row_partitions
from nodaltrade.plane_counts import OracleTable, kontsevich_nd, pencil_reducible_count
from nodaltrade.rationals import as_rational, format_rational, over_common_denominator
from nodaltrade.stable_graphs import Leg, StableGraph, Vertex, enumerate_splittings
from nodaltrade.tensor_oracle import BilinearSpace, all_form_tensors, diagonal_row


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


def _integer(argument, below=None, refusal=None):
    """The gate's refusals of 2.0 and True, and of a value below the bound:
    by the gate itself unless another check names the bound."""
    cases = [(value, f"{argument} must be an integer, got {value!r}") for value in (2.0, True)]
    if below is not None:
        cases.append((below, refusal or f"{argument} must be >= {below + 1}, got {below}"))
    return cases


POINT = (Vertex(0, (1,)),)
SYMPLECTIC_DIM_2 = BilinearSpace("symplectic", 1)
N1_VECTOR = PairingVector(1, (1,))

# every gated argument, with the value it is given in and what each refused
# value must raise: an InvalidInputError unless a third entry names the error
GATED = {
    "Pairing": (lambda v: Pairing(((v, 1),)),
                _integer("pairing entry", 0, "pairs must cover 1..2 exactly once, got ((0, 1),)")),
    "Pairing.pairs": (Pairing, [((("1", 2),), "pairing entry must be an integer, got '1'"),
                                (((1, 2, 3),), "a pair must have two entries, got (1, 2, 3)"),
                                (((1,),), "a pair must have two entries, got (1,)"),
                                ((1, 2), "a pair must have two entries, got 1")]),
    "Pairing.pairs.iterable": (Pairing, [(None, "pairs must be a sequence of pairs, got None"),
                                         (5, "pairs must be a sequence of pairs, got 5")]),
    "act_permutation": (lambda v: act_permutation((v, 1, 3, 4), Pairing(((1, 2), (3, 4)))),
                        _integer("permutation entry", 0, "not a bijection on 1..4: (0, 1, 3, 4)")),
    "Partition": (lambda v: Partition((v,)), _integer("partition part", 0)),
    "all_partitions": (all_partitions, _integer("m", -1)),
    "even_row_partitions": (even_row_partitions, _integer("m", 1)),
    "Vertex.genus": (lambda v: Vertex(v, (1,)), _integer("genus", -1)),
    "Vertex.cls": (lambda v: Vertex(0, (1, v)), _integer("class entry")),
    "Leg.vertex": (lambda v: StableGraph(POINT, (), (Leg(v, 1),)),
                   _integer("leg vertex", -1, "leg 1 attached out of range")),
    "Leg.multiplicity": (lambda v: Leg(0, 1, "relative", v),
                         _integer("multiplicity", 0, "relative legs need a positive multiplicity")),
    "StableGraph.edges": (lambda v: StableGraph(POINT, ((0, v),), ()),
                          _integer("edge end", -1, "edge (0,-1) out of vertex range")),
    "CohRing.intersect": (lambda v: load_model("p2").intersect((v,), "H"),
                          [(0.1, "class entry must be an integer, got 0.1"), *_integer("class entry")]),
    "CohRing.intersect.curve": (
        lambda v: load_model("p2").intersect(v, "H"),
        [(v, f"curve class must be a sequence of integers in p2, got {v!r}") for v in (5, None)]),
    "CohRing.intersect.f1": (lambda v: load_model("f1").intersect((v, 2), "F"),
                             _integer("class entry")),
    "middle_diagonal_divisor_factor": (
        lambda v: middle_diagonal_divisor_factor(load_model("p2"), (v,)),
        [(0.1, "class entry must be an integer, got 0.1")]),
    "middle_diagonal_divisor_factor.point": (
        lambda v: middle_diagonal_divisor_factor(load_model("point"), v),
        [("x", "class entry must be an integer, got 'x'"),
         ((1.5,), "class entry must be an integer, got 1.5"),
         (None, "curve class must be a sequence of integers in point, got None")]),
    "middle_diagonal_divisor_factor.lattice": (
        lambda v: middle_diagonal_divisor_factor(load_model("point"), v),
        [((1,), "model point carries no curve-class lattice")], InvalidModelError),
    "middle_diagonal_divisor_factor.rank": (
        lambda v: middle_diagonal_divisor_factor(load_model("f1"), v),
        [((1,), "curve class must have 2 coordinates in f1")]),
    "divisor_reduce": (
        lambda v: divisor_reduce(
            InsertionList(0, (v,), make_insertions(load_model("p2"), ["H"])), "H", load_model("p2")),
        _integer("class entry")),
    "flavor_dimension": (lambda v: flavor_dimension("symplectic", v), _integer("k", 0)),
    "kontsevich_nd": (kontsevich_nd, _integer("degree", 0)),
    "CohRing.degrees": (lambda v: CohRing("model", ("1", "x"), (0, v), ((0, 1), (1, 0))),
                        _integer("degree", -1)),
    "pencil_reducible_count.chi": (lambda v: pencil_reducible_count(v, 5), _integer("chi")),
    "pencil_reducible_count.basepoints":
        (lambda v: pencil_reducible_count(4, v), _integer("base point count", -1)),
    "primitive_insertion_pairs": (primitive_insertion_pairs, _integer("insertion count", -1)),
    "parent_graph": (parent_graph, _integer("num_points", -1)),
    "compute_lhs": (compute_lhs, _integer("num_points", -1)),
    "elliptic_demo": (lambda v: elliptic_demo(1, 0, v, 1),
                      [(0.1, "u2 must be a rational: refusing the float 0.1")]),
    "OracleTable.with_entry": (lambda v: OracleTable().with_entry("k", v, "p"),
                               [(0.1, "value must be a rational: refusing the float 0.1")]),
    "OracleTable": (lambda v: OracleTable({"a": (v, "x")}),
                    [(0.5, "value must be a rational: refusing the float 0.5")]),
    "InsertionList.genus": (lambda v: InsertionList(v, (1,), ()), _integer("genus", -1)),
    "InsertionList.curve_class": (lambda v: InsertionList(0, (v,), ()),
                                  [(3.5, "class entry must be an integer, got 3.5"),
                                   *_integer("class entry")]),
    "InsertionList.nodes": (lambda v: InsertionList(1, (1,), (), v), _integer("node count", -1)),
    "Insertion.psi": (lambda v: Insertion((1,), v),
                      [(0.5, "psi power must be an integer, got 0.5"), *_integer("psi power", -1)]),
    "kunneth_reorder_sign.degrees": (lambda v: kunneth_reorder_sign((v, 1), (2, 1)),
                                     _integer("degree", -1)),
    "kunneth_reorder_sign.sides": (lambda v: kunneth_reorder_sign((1, 1), (v, 1)),
                                   [(1.0, "side must be an integer, got 1.0"), *_integer("side"),
                                    (3, "side must be 1 or 2, got 3"),
                                    (0, "side must be 1 or 2, got 0")]),
    "CohRing.basis_vector": (lambda v: load_model("p2").basis_vector(v),
                             [(1.0, "basis index must be an integer, got 1.0"),
                              *_integer("basis index"),
                              (7, "basis index 7 out of range 0..2"),
                              (-1, "basis index -1 out of range 0..2")]),
    "Pairing.partner": (lambda v: Pairing(((1, 2),)).partner(v),
                        [(1.0, "pairing entry must be an integer, got 1.0"),
                         *_integer("pairing entry")]),
    "Leg.marking": (lambda v: Leg(0, v),
                    [(v, f"marking {v!r} is not an integer or a string") for v in (1.5, True)]),
    "Vertex.cls.sequence": (lambda v: Vertex(0, v),
                            [(5, "curve class must be a sequence of integers, got 5")]),
    "InsertionList.curve_class.sequence": (
        lambda v: InsertionList(0, v, ()), [(5, "curve class must be a sequence of integers, got 5")]),
    "Partition.sequence": (Partition, [(5, "parts must be a sequence of integers, got 5")]),
    "kunneth_reorder_sign.degrees.sequence": (
        lambda v: kunneth_reorder_sign(v, (1,)), [(5, "degrees must be a sequence of integers, got 5")]),
    "kunneth_reorder_sign.sides.sequence": (
        lambda v: kunneth_reorder_sign((1,), v), [(5, "sides must be a sequence of integers, got 5")]),
    "act_permutation.sequence": (
        lambda v: act_permutation(v, Pairing(((1, 2),))),
        [(5, "permutation must be a sequence of integers, got 5")]),
    "CohRing.degrees.sequence": (
        lambda v: CohRing("model", ("1",), v, ((1,),)),
        [(5, "degrees must be a sequence of integers, got 5")]),
    "OracleTable.entry": (lambda v: OracleTable({"a": v}),
                          [(5, "entry 'a' must be a (value, provenance) pair, got 5"),
                           ((1, "x", "y"), "entry 'a' must be a (value, provenance) pair, got (1, 'x', 'y')")]),
    "OracleTable.entries": (OracleTable,
                            [(5, "entries must map keys to (value, provenance) pairs, got 5")]),
    "StableGraph.vertices": (lambda v: StableGraph(v, (), ()),
                             [(5, "vertices must be a sequence, got 5"),
                              ((5,), "vertex must be a Vertex, got 5")]),
    "StableGraph.edges.sequence": (lambda v: StableGraph(POINT, v, ()),
                                   [(5, "edges must be a sequence, got 5")]),
    "StableGraph.edge": (lambda v: StableGraph(POINT, (v,), ()),
                         [(v, f"edge must be a pair of vertex indices, got {v!r}")
                          for v in (5, (0,), (0, 0, 0), [0, 0])]),
    "StableGraph.legs": (lambda v: StableGraph(POINT, (), v),
                         [(5, "legs must be a sequence, got 5"),
                          ((5,), "leg must be a Leg, got 5")]),
    "Insertion.coords": (Insertion,
                         [(5, "coordinates must be a sequence of ints and Fractions, got 5"),
                          ((0.5, 0, 0), "coordinate must be an int or a Fraction, got 0.5"),
                          ((True,), "coordinate must be an int or a Fraction, got True")]),
    "CohRing.labels": (lambda v: CohRing("bad", v, (0,), ((1,),)),
                       [(5, "model bad: labels must be a sequence of strings, got 5"),
                        ((1,), "model bad: a basis label must be a string, got 1"),
                        (("a", "a"), "model bad: basis labels must be distinct, got ('a', 'a')"),
                        ((), "model bad: the basis needs at least one label")],
                       InvalidModelError),
    "CohRing.pairing": (lambda v: CohRing("bad", ("1",), (0,), v),
                        [(5, "model bad: pairing must be a sequence of rows, got 5"),
                         ((5,), "model bad: pairing row must be a sequence, got 5"),
                         (("1",),
                          "model bad: pairing entries must be rationals: refusing the string row '1'")],
                        InvalidModelError),
    "CohRing.curve_labels": (lambda v: CohRing("bad", ("1",), (0,), ((1,),), v),
                             [(5, "model bad: curve labels must be a sequence, got 5"),
                              ((1, 2.5), "model bad: a curve label must be a string, got 1"),
                              (("H", "H"), "model bad: curve labels must be distinct, got ('H', 'H')")],
                             InvalidModelError),
    "CohRing.divisor_lattice": (
        lambda v: CohRing("bad", ("1",), (0,), ((1,),), ("H",), ((1,),), v),
        [(5, "model bad: the divisor lattice must be a mapping, got 5"),
         ((("1", (1,)),), "model bad: the divisor lattice must be a mapping, got (('1', (1,)),)")],
        InvalidModelError),
    "make_insertions.classes": (lambda v: make_insertions(load_model("p2"), v),
                                [(5, "classes must be a sequence, got 5")]),
    "make_insertions.psis": (lambda v: make_insertions(load_model("p2"), ["p"], v),
                             [(5, "psis must be a sequence of psi powers, got 5")]),
    "CohRing.intersect.shape": (lambda v: load_model("p2").intersect(*v),
                                [(((1, 2), "H"), "curve class must have 1 coordinates in p2"),
                                 (((1,), "p"), "divisor classes must have degree 2")]),
    "CohRing.class_coords": (lambda v: load_model("p2").class_coords(v),
                             [("q", "unknown class 'q' in model p2"),
                              ((1, 0), "class coordinates must have length 3 in model p2")]),
    "CohRing.degree_of": (
        lambda v: load_model("p2").degree_of(v),
        [((1, 1, 0), "class is not homogeneous: (Fraction(1, 1), Fraction(1, 1), Fraction(0, 1))")]),
    "LoopMatrix.apply": (lambda v: build_loop_matrix(2, 1).apply(v),
                         [(N1_VECTOR, "vector size does not match matrix")]),
    "restricted_inverse_apply": (lambda v: restricted_inverse_apply(2, "symplectic", 1, v),
                                 [(N1_VECTOR, "vector has n=1, expected 2")]),
    "recover": (lambda v: recover(v, 2, SYMPLECTIC_DIM_2),
                [(N1_VECTOR, "contraction vector size does not match n")]),
    "isotypic_component": (lambda v: isotypic_component(PairingVector(2, (1, 0, 0)), v),
                           [(Partition((3,)), "(3) does not index a block for n=2")]),
    "diagonal_row": (lambda v: diagonal_row(v, SYMPLECTIC_DIM_2),
                     [(all_form_tensors(1, BilinearSpace("symplectic", 2))[0],
                       "tensor has dim 4, the space has dim 2")]),
    "evaluate_plane_invariant": (evaluate_plane_invariant,
                                 [(InsertionList(1, (3,), ()),
                                   "the plane evaluator covers genus-0 nodeless terms")]),
    "evaluate_plane_invariant.leftover": (
        lambda v: evaluate_plane_invariant(InsertionList(0, (1,), (Insertion(v),))),
        [((0, 2, 0), "leftover insertions are not point classes")], UnsupportedCaseError),
    "_cubic_options": (_cubic_options, [((2,), "the bundled splitter only covers class (3,)")]),
    "enumerate_splittings": (
        lambda v: enumerate_splittings(StableGraph(v, ((0, 1),), ()), cubic_scenario()),
        [((Vertex(0, (1,)), Vertex(0, (2,))), "splitting enumeration expects a one-vertex parent")]),
}


@pytest.mark.parametrize("name", list(GATED))
def test_every_number_argument_is_refused_by_its_gate(name):
    call, refusals, *error = GATED[name]
    for value, message in refusals:
        with pytest.raises(error[0] if error else InvalidInputError, match=f"^{re.escape(message)}$"):
            call(value)


def test_a_generator_gives_what_its_tuple_gives():
    # the pair-shape check used to use up a generator, leaving Pairing(pairs=())
    pairs = ((1, 2), (3, 4))
    assert Pairing(p for p in pairs) == Pairing(pairs)
    assert Pairing(p for p in pairs).n == 2
    p2 = load_model("p2")
    assert p2.intersect((a for a in (2,)), "H") == p2.intersect((2,), "H") == 2


def test_only_the_integer_gate_decides_what_an_integer_is():
    package = Path(nodaltrade.__file__).parent
    holders = sorted(f.name for f in package.glob("*.py") if "must be an integer" in f.read_text())
    assert holders == ["rationals.py"]


def test_only_the_sequence_gate_decides_what_a_sequence_is():
    package = Path(nodaltrade.__file__).parent
    holders = sorted(f.name for f in package.glob("*.py") if "must be a sequence" in f.read_text())
    assert holders == ["rationals.py"]
