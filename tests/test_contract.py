"""The argument contract, drawn: junk in any gated argument is refused by name.

Each row puts the drawn value into one argument of a public entry point, all
other arguments valid.  The call must return, or raise a `NodalTradeError`
whose message starts with the argument's name as its refusals write it.  A
row may name more starts where a value of the right class is refused for
what it holds: an unknown model, an absent key, a vector of another length.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade.cohomology import Insertion, load_model, middle_diagonal_divisor_factor
from nodaltrade.errors import NodalTradeError
from nodaltrade.linalg import left_kernel, mat_vec, nullspace, rank
from nodaltrade.loop_matrix import PairingVector
from nodaltrade.node_trade import InvariantTensor, recover
from nodaltrade.pairings import Pairing, crossing_number, loop_type
from nodaltrade.partitions import hook_dimension
from nodaltrade.plane_counts import OracleTable, lookup, lookup_with_provenance
from nodaltrade.stable_graphs import StableGraph, Vertex, contract_edges
from nodaltrade.tensor_oracle import (BilinearSpace, Tensor, all_diagonal_multivectors,
                                      all_form_tensors, diagonal_insertion_matrix, diagonal_row,
                                      form_combination, invariant_map_rank, pairing_supports,
                                      permute_slots)

P = Pairing(((1, 2),))
POINT = (Vertex(0, (1,)),)
SPACE = BilinearSpace("symplectic", 1)
TENSOR = Tensor(1, 2, (1,), (1,))
KEY = "p2.conic.4pts.tangentL"

# entry point and argument: the call with the drawn value there, and how its refusals start
CONTRACT = {
    "crossing_number.p": (crossing_number, "pairing"),
    "loop_type.p1": (lambda v: loop_type(v, P), "pairing"),
    "loop_type.p2": (lambda v: loop_type(P, v), "pairing"),
    "hook_dimension.lam": (hook_dimension, "partition"),
    "StableGraph.vertices": (lambda v: StableGraph(v, (), ()), ("vertices", "vertex")),
    "StableGraph.vertex": (lambda v: StableGraph((v,), (), ()), "vertex"),
    "StableGraph.edges": (lambda v: StableGraph(POINT, v, ()), "edge"),
    "StableGraph.leg": (lambda v: StableGraph(POINT, (), (v,)), "leg"),
    "contract_edges.graph": (contract_edges, "graph"),
    "middle_diagonal_divisor_factor.ring": (lambda v: middle_diagonal_divisor_factor(v, (1,)), "ring"),
    "load_model.name": (load_model, ("model name", "unknown model")),
    "lookup.key": (lookup, ("key", "no oracle entry for key")),
    "lookup_with_provenance.key": (lookup_with_provenance, ("key", "no oracle entry for key")),
    "lookup.table": (lambda v: lookup(KEY, v), "table"),
    "OracleTable.with_entry.key": (lambda v: OracleTable().with_entry(v, 1, "p"), "key"),
    "OracleTable.with_entry.provenance": (lambda v: OracleTable().with_entry("k", 1, v), "provenance"),
    "OracleTable.provenance": (lambda v: OracleTable({"k": (1, v)}), "provenance"),
    "Insertion.coords": (Insertion, "coordinate"),
    "rank.matrix": (rank, "matrix"),
    "nullspace.matrix": (nullspace, "matrix"),
    "left_kernel.matrix": (left_kernel, "matrix"),
    "mat_vec.matrix": (lambda v: mat_vec(v, (1,)), ("matrix", "vector has")),
    "mat_vec.vector": (lambda v: mat_vec(((1,),), v), "vector"),
    "pairing_supports.p": (lambda v: pairing_supports(v, SPACE), "pairing"),
    "pairing_supports.space": (lambda v: pairing_supports(P, v), "space"),
    "all_form_tensors.space": (lambda v: all_form_tensors(1, v), "space"),
    "all_diagonal_multivectors.space": (lambda v: all_diagonal_multivectors(1, v), "space"),
    "form_combination.space": (lambda v: form_combination(PairingVector(1, (1,)), v), "space"),
    "diagonal_row.space": (lambda v: diagonal_row(TENSOR, v), "space"),
    "diagonal_insertion_matrix.space": (lambda v: diagonal_insertion_matrix(1, v), "space"),
    "invariant_map_rank.space": (lambda v: invariant_map_rank(1, v), "space"),
    "InvariantTensor.space": (lambda v: InvariantTensor(1, v, (1,)), "space"),
    "recover.space": (lambda v: recover((1,), 1, v), "space"),
    "permute_slots.t": (lambda v: permute_slots(v, (1, 2)), "tensor"),
    "permute_slots.basis": (lambda v: permute_slots(TENSOR, (1, 2), v), "basis map"),
}

ATOMS = st.one_of(
    st.none(), st.integers(), st.floats(), st.just(math.nan), st.booleans(),
    st.text(max_size=3), st.binary(max_size=3), st.builds(object),
)
JUNK = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers()), inner, max_size=2),
    ),
    max_leaves=6,
)


@settings(max_examples=250, deadline=None)
@given(value=JUNK)
def test_junk_is_refused_by_the_name_of_its_argument(value):
    # every row takes every drawn value
    for name, (call, starts) in CONTRACT.items():
        try:
            call(value)
        except NodalTradeError as exc:
            assert str(exc).startswith(starts), f"{name}({value!r}) raised {exc!r}"
