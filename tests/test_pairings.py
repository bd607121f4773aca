import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade.errors import InvalidInputError, ResourceLimitError
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


@pytest.mark.parametrize("n", [2.0, True], ids=["float", "bool"])
def test_enumeration_refuses_a_non_int_n(n):
    # the enumeration is cached by n, and 2.0 and True hash like 2 and 1
    enumerate_pairings(1), enumerate_pairings(2)
    with pytest.raises(InvalidInputError, match=f"n must be an integer, got {n!r}"):
        enumerate_pairings(n)


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
