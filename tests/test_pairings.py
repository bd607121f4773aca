import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade import loop_matrix, pairings, partitions, plane_counts, tensor_oracle
from nodaltrade.errors import InvalidInputError, ResourceLimitError
from nodaltrade.loop_matrix import (
    PairingVector,
    admissible_partitions,
    build_loop_matrix,
    eigenspace_decomposition,
    eigenvalues_at,
    find_generic_specialization,
    restricted_inverse_apply,
)
from nodaltrade.node_trade import InvariantTensor, recover
from nodaltrade.pairings import (
    Pairing,
    act_permutation,
    crossing_number,
    double_factorial_odd,
    enumerate_pairings,
    loop_number,
    loop_type,
    permutation_sign,
)
from nodaltrade.plane_counts import kontsevich_nd
from nodaltrade.tensor_oracle import (
    BilinearSpace,
    Tensor,
    all_diagonal_multivectors,
    all_form_tensors,
    check_brute_force_budget,
    diagonal_insertion_matrix,
    invariant_map_rank,
)


P1 = Pairing(((1, 4), (2, 5), (3, 7), (6, 8)))
P2 = Pairing(((1, 2), (3, 4), (5, 7), (6, 8)))


def test_canonical_form():
    p = Pairing(((5, 2), (4, 3), (1, 6)))
    assert p.pairs == ((1, 6), (2, 5), (3, 4))
    assert p.key() == "(1,6)(2,5)(3,4)"


def test_invalid_pairings():
    with pytest.raises(InvalidInputError):
        Pairing(((1, 1), (2, 3)))
    with pytest.raises(InvalidInputError):
        Pairing(((1, 2), (2, 3)))
    with pytest.raises(InvalidInputError):
        Pairing(((1, 2), (4, 5)))


def test_enumeration_counts():
    assert [q.pairs for q in enumerate_pairings(2)] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]
    assert len(enumerate_pairings(1)) == 1
    assert len(enumerate_pairings(4)) == 105
    for n in range(1, 5):
        assert len(enumerate_pairings(n)) == double_factorial_odd(n)


def test_enumeration_is_lexicographic_and_indexable():
    for n in (2, 3):
        ps = enumerate_pairings(n)
        flat = [tuple(x for pair in q.pairs for x in pair) for q in ps]
        assert flat == sorted(flat)


def test_enumeration_bounds():
    with pytest.raises(InvalidInputError):
        enumerate_pairings(0)
    with pytest.raises(ResourceLimitError):
        enumerate_pairings(7)


SPACE = BilinearSpace("orthogonal", 2)
# zero coordinates and a unit vector at the two warmed sizes; a refused n reads
# the entry of the n it hashes like, or none
ZEROS = {1: (0,), 2: (0, 0, 0)}
VECTORS = {n: PairingVector(n, (1, *zeros[1:])) for n, zeros in ZEROS.items()}

# every public entry point that takes a pairing size n, and kontsevich_nd's degree
GATED = {
    "enumerate_pairings": enumerate_pairings,
    "double_factorial_odd": double_factorial_odd,
    "PairingVector": lambda n: PairingVector(n, ZEROS.get(n, ())),
    "PairingVector.zero": PairingVector.zero,
    "build_loop_matrix": lambda n: build_loop_matrix(n, 2),
    "eigenvalues_at": lambda n: eigenvalues_at(n, 7),
    "find_generic_specialization": find_generic_specialization,
    "eigenspace_decomposition": eigenspace_decomposition,
    "admissible_partitions": lambda n: admissible_partitions(n, "orthogonal", 2),
    "restricted_inverse_apply":
        lambda n: restricted_inverse_apply(n, "orthogonal", 2, VECTORS.get(n, VECTORS[2])),
    "Tensor": lambda n: Tensor(n, 2, (), ()),
    "check_brute_force_budget": lambda n: check_brute_force_budget(n, 2),
    "all_form_tensors": lambda n: all_form_tensors(n, SPACE),
    "all_diagonal_multivectors": lambda n: all_diagonal_multivectors(n, SPACE),
    "diagonal_insertion_matrix": lambda n: diagonal_insertion_matrix(n, SPACE),
    "invariant_map_rank": lambda n: invariant_map_rank(n, SPACE),
    "InvariantTensor.from_coordinates":
        lambda n: InvariantTensor.from_coordinates(n, SPACE, ZEROS.get(n, ())),
    "InvariantTensor.from_coordinates-vector":
        lambda n: InvariantTensor.from_coordinates(n, SPACE, VECTORS.get(n, VECTORS[2])),
    "InvariantTensor.zero": lambda n: InvariantTensor.zero(n, SPACE),
    "recover": lambda n: recover(ZEROS.get(n, ()), n, SPACE),
    "kontsevich_nd": kontsevich_nd,
}


CACHED = [
    value
    for module in (pairings, partitions, loop_matrix, tensor_oracle, plane_counts)
    for value in vars(module).values()
    if hasattr(value, "cache_info")
]


def _refuses_bad_values(call, argument):
    for value in (1.0, 2.0, True, 0, -1):
        if value.__class__ is int:
            message = f"{argument} must be >= 1, got {value}"
        else:
            message = f"{argument} must be an integer, got {value!r}"
        hits = [f.cache_info().hits for f in CACHED]
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call(value)
        assert [f.cache_info().hits for f in CACHED] == hits, "a cache was read first"


@pytest.mark.parametrize("name", list(GATED))
def test_every_entry_point_refuses_a_bad_n_before_any_cache(name):
    # caches keyed by n take 1.0, 2.0 and True for 1, 2 and 1, so each entry
    # point must refuse them before reading any cache: cold, then with n=1 and
    # n=2 cached
    argument = "degree" if name == "kontsevich_nd" else "n"
    for f in CACHED:
        f.cache_clear()
    _refuses_bad_values(GATED[name], argument)
    for n in (1, 2):
        for call in GATED.values():
            call(n)
    _refuses_bad_values(GATED[name], argument)


def test_ceiling_override(monkeypatch, capsys):
    monkeypatch.setenv("NODAL_TRADE_MAX_N", "3")
    with pytest.raises(ResourceLimitError):
        enumerate_pairings(4)
    monkeypatch.setenv("NODAL_TRADE_MAX_N", "not-an-int")
    with pytest.raises(InvalidInputError):
        enumerate_pairings(2)
    # raising the ceiling works but warns on stderr
    monkeypatch.setenv("NODAL_TRADE_MAX_N", "6")
    assert len(enumerate_pairings(6)) == 10395
    assert "warning" in capsys.readouterr().err


def test_ceiling_warning_once_per_value(monkeypatch, capsys):
    from nodaltrade import pairings

    monkeypatch.setattr(pairings, "_warned_ceilings", set())
    monkeypatch.setenv("NODAL_TRADE_MAX_N", "6")
    enumerate_pairings(2)
    enumerate_pairings(3)
    assert capsys.readouterr().err.count("warning") == 1
    # a different raised value warns once more; the default never warns
    monkeypatch.setenv("NODAL_TRADE_MAX_N", "7")
    enumerate_pairings(2)
    enumerate_pairings(2)
    assert capsys.readouterr().err.count("warning") == 1
    monkeypatch.delenv("NODAL_TRADE_MAX_N")
    enumerate_pairings(2)
    assert capsys.readouterr().err == ""


def test_crossing_fixtures():
    assert crossing_number(P1) == 4
    assert crossing_number(P2) == 1
    for n in (1, 2, 3, 4):
        nested = Pairing(tuple((2 * i + 1, 2 * i + 2) for i in range(n)))
        assert crossing_number(nested) == 0


def test_loop_number_fixtures():
    assert loop_number(P1, P2) == 2
    assert loop_number(P2, P1) == 2
    for n in (1, 2, 3):
        for p in enumerate_pairings(n):
            assert loop_number(p, p) == n


def test_loop_number_symmetry_and_range():
    for n in (2, 3, 4):
        ps = enumerate_pairings(n)
        for p, q in itertools.combinations(ps, 2):
            l = loop_number(p, q)
            assert l == loop_number(q, p)
            assert 1 <= l <= n


def test_product_has_2l_cycles():
    # cycle consistency restated: loop_type has exactly L parts summing to n
    for n in (2, 3):
        ps = enumerate_pairings(n)
        for p in ps:
            for q in ps:
                lt = loop_type(p, q)
                assert len(lt) == loop_number(p, q)
                assert sum(lt) == n


def test_loop_number_size_mismatch():
    with pytest.raises(InvalidInputError):
        loop_number(enumerate_pairings(1)[0], enumerate_pairings(2)[0])


def test_loop_type_fixture():
    # glued diagram of the figure example: two loops of half-lengths 3 and 1
    assert loop_type(P1, P2) == (3, 1)


def test_action_fixtures():
    p = Pairing(((1, 2), (3, 4)))
    tau12 = (2, 1, 3, 4)
    moved, sign = act_permutation(tau12, p, "plain")
    assert moved == p and sign == 1
    moved, sign = act_permutation(tau12, p, "signed")
    assert moved == p and sign == -1
    tau23 = (1, 3, 2, 4)
    moved, _ = act_permutation(tau23, p)
    assert moved.pairs == ((1, 3), (2, 4))
    identity = (1, 2, 3, 4)
    for q in enumerate_pairings(2):
        moved, sign = act_permutation(identity, q, "signed")
        assert moved == q and sign == 1


def test_action_rejects_non_bijections():
    with pytest.raises(InvalidInputError):
        act_permutation((1, 1, 2, 3), Pairing(((1, 2), (3, 4))))
    with pytest.raises(InvalidInputError):
        act_permutation((1, 2), Pairing(((1, 2), (3, 4))), "twisted")


@settings(max_examples=60, deadline=None)
@given(
    g=st.permutations(tuple(range(1, 7))),
    h=st.permutations(tuple(range(1, 7))),
    idx=st.integers(min_value=0, max_value=14),
)
def test_group_action_composition(g, h, idx):
    p = enumerate_pairings(3)[idx]
    gh = tuple(g[h[i] - 1] for i in range(6))
    via_product, sign_product = act_permutation(gh, p, "signed")
    via_h, sign_h = act_permutation(h, p, "signed")
    via_gh, sign_g = act_permutation(g, via_h, "signed")
    assert via_product == via_gh
    assert sign_product == sign_g * sign_h
    assert sign_product == permutation_sign(gh)


def test_adjacent_transposition_changes_crossings_by_one():
    # when i, i+1 sit in different pairs, exactly one crossing appears or
    # disappears under their swap
    for n in (2, 3):
        for p in enumerate_pairings(n):
            for i in range(1, 2 * n):
                if p.partner(i) == i + 1:
                    continue
                tau = list(range(1, 2 * n + 1))
                tau[i - 1], tau[i] = i + 1, i
                moved, _ = act_permutation(tuple(tau), p)
                assert abs(crossing_number(moved) - crossing_number(p)) == 1


def test_serialization_round_trip():
    assert P1.to_json() == [[1, 4], [2, 5], [3, 7], [6, 8]]
    assert Pairing(P1.to_json()) == P1
