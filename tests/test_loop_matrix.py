import pickle
import random
import re
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade import loop_matrix
from nodaltrade.errors import (
    EigenvalueCollisionError,
    InvalidInputError,
    SubspaceError,
)
from nodaltrade.linalg import nullspace
from nodaltrade.loop_matrix import (
    PairingVector,
    _multiply,
    _projectors,
    _type_table,
    admissible_partitions,
    build_loop_matrix,
    decompose_isotypic,
    eigenspace_decomposition,
    eigenvalues_at,
    find_generic_specialization,
    flavor_dimension,
    flavor_specialization,
    isotypic_component,
    project_invariant,
    restricted_inverse_apply,
)
from nodaltrade.pairings import double_factorial_odd, enumerate_pairings, loop_number, loop_type
from nodaltrade.partitions import (
    Partition,
    all_partitions,
    content_product,
    even_row_partitions,
    hook_dimension,
)
from nodaltrade.tensor_oracle import (
    BilinearSpace,
    diagonal_insertion_matrix,
    diagonal_row,
    form_combination,
)

CELLS = [(flavor, k) for flavor in ("orthogonal", "symplectic") for k in (1, 2, 3)]


def test_matrix_fixtures():
    m = build_loop_matrix(2, 2)
    assert m.entries == (
        (4, 2, 2),
        (2, 4, 2),
        (2, 2, 4),
    )
    m1 = build_loop_matrix(1, Fraction(7, 3))
    assert m1.entries == ((Fraction(7, 3),),)
    m3 = build_loop_matrix(3, 1)
    assert all(e == 1 for row in m3.entries for e in row)
    assert m3.size == 15


def test_matrix_symmetry():
    for n in (2, 3):
        m = build_loop_matrix(n, 5)
        for i in range(m.size):
            for j in range(m.size):
                assert m.entries[i][j] == m.entries[j][i]


XS = [2, -2, Fraction(7, 3), 0, 1]


@cache
def _dense_loop_matrix(n, x):
    """x^L(P, Q) entry by entry, from the loop numbers alone."""
    ps = enumerate_pairings(n)
    return tuple(tuple(Fraction(x) ** loop_number(p, q) for q in ps) for p in ps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_entries_are_powers_of_loop_numbers(n):
    for x in XS:
        entries = build_loop_matrix(n, x).entries
        reference = _dense_loop_matrix(n, x)
        assert len(entries) == len(reference)
        for i, row in enumerate(reference):
            assert entries[i] == row
        assert entries == reference and list(entries) == list(reference)
        assert entries != _dense_loop_matrix(n, 5)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), x=st.sampled_from(XS), data=st.data())
def test_apply_is_the_dense_product(n, x, data):
    reference = _dense_loop_matrix(n, x)
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    coords = data.draw(st.lists(rationals, min_size=len(reference), max_size=len(reference)))
    w = build_loop_matrix(n, x).apply(PairingVector(n, coords))
    assert w.coords == tuple(sum(map(mul, row, coords), Fraction(0)) for row in reference)


def test_loop_matrix_at_n1():
    m = build_loop_matrix(1, Fraction(-7, 3))
    assert m.size == 1 and m.entries == ((Fraction(-7, 3),),)
    assert m.apply(PairingVector(1, [Fraction(3, 2)])).coords == (Fraction(-7, 2),)


def test_loop_matrix_keeps_one_power_per_type():
    m = build_loop_matrix(4, 3)
    assert m.powers == tuple(Fraction(3) ** mu.length for mu in all_partitions(4))
    assert {id(e) for row in m.entries for e in row} == set(map(id, m.powers))
    assert m == build_loop_matrix(4, Fraction(3)) and hash(m) == hash(build_loop_matrix(4, 3))
    assert repr(m) == "LoopMatrix(n=4, x=Fraction(3, 1))"


@pytest.mark.parametrize(
    "call, argument, value",
    [
        (lambda: build_loop_matrix(2, 0.1), "x", "0.1"),
        (lambda: eigenspace_decomposition(2, 7.5), "x0", "7.5"),
        (lambda: eigenvalues_at(2, 0.5), "x0", "0.5"),
        (lambda: content_product(Partition((4, 2)), 0.5), "x", "0.5"),
    ],
    ids=["build_loop_matrix", "eigenspace_decomposition", "eigenvalues_at", "content_product"],
)
def test_loop_matrix_entry_points_refuse_floats(call, argument, value):
    message = f"{argument} must be a rational: refusing the float {value}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_pairing_vector_validation():
    with pytest.raises(InvalidInputError):
        PairingVector(2, (1, 2))
    v = PairingVector(2, (1, 2, 3))
    assert (v + v).coords == (2, 4, 6)
    assert v.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 1, Fraction(3, 2))


def in_lowest_terms(v):
    return (
        {type(a) for a in v.numerators} == {int} and type(v.denominator) is int
        and v.denominator >= 1 and gcd(v.denominator, *v.numerators) == 1
    )


# a coordinate as an int, a Fraction or a "p/q" string not necessarily in lowest terms
coordinates = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), cell=st.sampled_from(CELLS), data=st.data())
def test_pairing_vectors_are_integer_numerators_over_one_denominator(n, cell, data):
    assert PairingVector.__slots__ == ("n", "numerators", "denominator")
    drawn = data.draw(st.lists(coordinates, min_size=double_factorial_odd(n),
                               max_size=double_factorial_odd(n)))
    v = PairingVector(n, drawn)
    assert in_lowest_terms(v)
    assert v.coords == tuple(map(Fraction, drawn))
    again = PairingVector(n, v.coords)
    assert v == again and hash(v) == hash(again) and repr(v) == repr(again)
    assert pickle.loads(pickle.dumps(v)) == v and v.replace(n=n) == v
    # the producers' vectors: M(x) v at the flavor point lies in the invariant
    # subspace, and it is v's row of diagonal contractions
    space = BilinearSpace(*cell)
    image = build_loop_matrix(n, flavor_specialization(*cell)).apply(v)
    row = diagonal_row(form_combination(v, space), space)
    solved = restricted_inverse_apply(n, *cell, image)
    assert row.__class__ is PairingVector and row == image
    assert solved == project_invariant(v, *cell)
    assert all(map(in_lowest_terms, (image, row, solved, v.scale(data.draw(coordinates)))))


def test_pairing_vectors_reduce_sums_that_share_a_factor_with_the_scale():
    assert repr(PairingVector(2, (1, "-3/6", Fraction(4, 2)))) == (
        "PairingVector(n=2, coords=(Fraction(1, 1), Fraction(-1, 2), Fraction(2, 1)))"
    )
    half = PairingVector(2, (Fraction(1, 2),) * 3)
    assert (list(half.numerators), half.denominator) == ([1, 1, 1], 2)
    # each row sums 4 + 2 + 2 halves, 8 over the scale 2
    image = build_loop_matrix(2, 2).apply(half)
    assert (list(image.numerators), image.denominator) == ([4, 4, 4], 1)
    # the inverse at x = 2 divides by 8: 2/8 is 1/4
    solved = restricted_inverse_apply(2, "orthogonal", 2, PairingVector(2, (2, 2, 2)))
    assert (list(solved.numerators), solved.denominator) == ([1, 1, 1], 4)
    # three form tensors of weight 1/2 against each diagonal: 4/2 + 2/2 + 2/2 at dim 2
    space = BilinearSpace("orthogonal", 2)
    row = diagonal_row(form_combination(half, space), space)
    assert (list(row.numerators), row.denominator) == ([4, 4, 4], 1)
    assert PairingVector(2, (6, -4, 2)).scale(Fraction(1, 2)).denominator == 1


def test_exact_coordinates_are_not_boxed_again(monkeypatch):
    def boxed(value):
        raise AssertionError(f"{value!r} went through as_rational")

    monkeypatch.setattr(loop_matrix, "as_rational", boxed)
    ints = PairingVector(3, list(range(-7, 8)))
    fractions = PairingVector(3, [Fraction(i, 6) for i in range(15)])
    assert ints.coords == tuple(range(-7, 8)) and ints.denominator == 1
    assert fractions.coords == tuple(Fraction(i, 6) for i in range(15)) and fractions.denominator == 6
    with pytest.raises(AssertionError, match="'1/2' went through"):
        PairingVector(3, [1] * 14 + ["1/2"])


def test_a_bool_or_a_fraction_subclass_coordinate_is_converted():
    class Half(Fraction):
        pass

    v = PairingVector(2, (True, Half(1, 2), 0))
    assert v.coords == (1, Fraction(1, 2), 0) and {type(a) for a in v.numerators} == {int}
    assert (v.numerators, v.denominator) == ([2, 1, 0], 2)


def test_a_pairing_vector_adds_only_a_pairing_vector_of_its_size():
    v = PairingVector(2, (1, 2, 3))
    for other in (3, Fraction(1, 2), (1, 2, 3), None):
        with pytest.raises(TypeError):
            v + other
        with pytest.raises(TypeError):
            other + v
    with pytest.raises(InvalidInputError, match="mismatched pairing sizes"):
        v + PairingVector(1, (1,))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_pairing_vector_sums_are_exact_and_in_lowest_terms(n, data):
    size = double_factorial_odd(n)
    a, b = (
        data.draw(st.lists(st.fractions(max_denominator=30), min_size=size, max_size=size))
        for _ in "ab"
    )
    total = PairingVector(n, a) + PairingVector(n, b)
    assert total.coords == tuple(x + y for x, y in zip(a, b))
    assert in_lowest_terms(total) and total == PairingVector(n, total.coords)


@pytest.mark.parametrize("n", [0, -1])
def test_pairing_vector_refuses_n_below_1(n):
    with pytest.raises(InvalidInputError, match=f"n must be >= 1, got {n}"):
        PairingVector(n, (1,))


def test_pairing_vector_refuses_floats():
    with pytest.raises(InvalidInputError, match="n=2 .*float 0.1"):
        PairingVector(2, (0.1, 0, 0))
    v = PairingVector(2, (1, Fraction(1, 10), "-3/7"))
    assert v.coords == (1, Fraction(1, 10), Fraction(-3, 7))


def test_pairing_vector_scale_refuses_floats():
    v = PairingVector(2, (1, 2, 3))
    with pytest.raises(InvalidInputError, match="scale factor .*float 0.1"):
        v.scale(0.1)
    assert v.scale("1/10").coords == (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))


def test_collision_detection():
    # at x0 = 0 both blocks of n=2 have eigenvalue 0
    with pytest.raises(EigenvalueCollisionError) as info:
        eigenspace_decomposition(2, 0)
    assert len(info.value.partitions) == 2


def test_generic_specialization_found():
    for n in (1, 2, 3, 4):
        x0 = find_generic_specialization(n)
        assert x0 >= 2 * n + 1
        values = list(eigenvalues_at(n, x0).values())
        assert len(set(values)) == len(values)


def test_eigenspace_n2_fixture():
    blocks = eigenspace_decomposition(2)
    line = blocks[Partition((4,))]
    plane = blocks[Partition((2, 2))]
    assert len(line) == 1 and len(plane) == 2
    # trivial block is the line x = y = z
    (v,) = line
    assert v.coords[0] == v.coords[1] == v.coords[2] != 0
    # complement block is the plane x + y + z = 0
    for w in plane:
        assert sum(w.coords) == 0


def test_block_dimensions_match_hooks():
    for n in (1, 2, 3, 4):
        blocks = eigenspace_decomposition(n)
        total = 0
        for lam, basis in blocks.items():
            assert len(basis) == hook_dimension(lam)
            total += len(basis)
        assert total == double_factorial_odd(n)


def test_blocks_are_eigenspaces_at_many_specializations():
    for n in (2, 3):
        blocks = eigenspace_decomposition(n)
        for x0 in range(-8, 9):
            m = build_loop_matrix(n, x0)
            for lam, basis in blocks.items():
                c = content_product(lam, x0)
                for v in basis:
                    assert m.apply(v).coords == v.scale(c).coords


def test_blocks_are_eigenspaces_n4():
    # same identity at n=4, on denominator-cleared integer vectors so the
    # 105x105 products stay in plain integer arithmetic
    from math import lcm

    blocks = eigenspace_decomposition(4)
    int_blocks = {}
    for lam, basis in blocks.items():
        cleared = []
        for v in basis:
            scale = lcm(*(c.denominator for c in v.coords))
            cleared.append(tuple(int(c * scale) for c in v.coords))
        int_blocks[lam] = cleared
    for x0 in range(-8, 9):
        m = build_loop_matrix(4, x0)
        rows = [tuple(int(e) for e in row) for row in m.entries]
        for lam, basis in int_blocks.items():
            c = int(content_product(lam, x0))
            for v in basis:
                image = tuple(sum(a * x for a, x in zip(row, v) if x) for row in rows)
                assert image == tuple(c * x for x in v)


def test_eigenvalue_fixtures_n3():
    # eigenvalues x(x+2)(x+4), x(x+2)(x-1), x(x-1)(x-2)
    for x in (2, 3, 5):
        values = eigenvalues_at(3, x)
        assert values[Partition((6,))] == x * (x + 2) * (x + 4)
        assert values[Partition((4, 2))] == x * (x + 2) * (x - 1)
        assert values[Partition((2, 2, 2))] == x * (x - 1) * (x - 2)


def test_invariant_subspace_dimensions():
    # the invariant subspace is spanned by the admissible eigenblocks, which
    # project_invariant fixes while it kills the others
    def dimension(n, flavor, k):
        blocks = eigenspace_decomposition(n)
        admissible = admissible_partitions(n, flavor, k)
        for lam, basis in blocks.items():
            for v in basis:
                expected = v if lam in admissible else PairingVector.zero(n)
                assert project_invariant(v, flavor, k) == expected
        return sum(len(blocks[lam]) for lam in admissible)

    assert dimension(2, "orthogonal", 1) == 1
    assert dimension(2, "symplectic", 1) == 2
    for n in (1, 2, 3):
        assert dimension(n, "orthogonal", 2 * n) == double_factorial_odd(n)


def test_kernel_dimension_of_specialized_matrix():
    # rank deficiency of M(n, k) matches the inadmissible multiplicity
    from nodaltrade.linalg import nullspace

    for n in (2, 3):
        for k in (1, 2, 3):
            for flavor in ("orthogonal", "symplectic"):
                x = flavor_specialization(flavor, k)
                m = build_loop_matrix(n, x)
                kernel = nullspace([list(row) for row in m.entries])
                inadmissible = [
                    lam
                    for lam in even_row_partitions(2 * n)
                    if lam not in admissible_partitions(n, flavor, k)
                ]
                assert len(kernel) == sum(hook_dimension(lam) for lam in inadmissible)


def test_isotypic_projection_is_idempotent_decomposition():
    rng = random.Random(7)
    for n in (2, 3):
        lams = even_row_partitions(2 * n)
        for _ in range(5):
            v = PairingVector(
                n, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(double_factorial_odd(n)))
            )
            parts = decompose_isotypic(v)
            total = PairingVector.zero(n)
            for lam in lams:
                total = total + parts[lam]
                again = isotypic_component(parts[lam], lam)
                assert again.coords == parts[lam].coords
            assert total.coords == v.coords


def test_restricted_inverse_fixtures():
    # orthogonal, n=1, k=3: M = (3)
    v = PairingVector(1, (Fraction(5),))
    w = restricted_inverse_apply(1, "orthogonal", 3, v)
    assert w.coords == (Fraction(5, 3),)

    # symplectic, n=2, 2k=2: on the plane x+y+z=0 the matrix acts by 6
    v = PairingVector(2, (1, -1, 0))
    w = restricted_inverse_apply(2, "symplectic", 1, v)
    assert w.coords == (Fraction(1, 6), Fraction(-1, 6), 0)

    # orthogonal, n=2, k=1: the line x=y=z scales by content((4), 1) = 3
    v = PairingVector(2, (2, 2, 2))
    w = restricted_inverse_apply(2, "orthogonal", 1, v)
    assert w.coords == (Fraction(2, 3),) * 3


def test_restricted_inverse_rejects_outside_vectors():
    # (1, 0, 0) has a component in the inadmissible block for orthogonal k=1
    v = PairingVector(2, (1, 0, 0))
    with pytest.raises(SubspaceError):
        restricted_inverse_apply(2, "orthogonal", 1, v)


def test_subspace_error_names_the_first_nonzero_inadmissible_block():
    # orthogonal k=1 at n=3 admits (6) only; blocks come in reverse-lex order
    blocks = eigenspace_decomposition(3)
    first, second = blocks[Partition((4, 2))][0], blocks[Partition((2, 2, 2))][0]
    for v, named in ((second, "(2,2,2)"), (first, "(4,2)"), (first + second, "(4,2)")):
        with pytest.raises(SubspaceError, match=re.escape(f"inadmissible block {named}")):
            restricted_inverse_apply(3, "orthogonal", 1, v)


def test_restricted_inverse_roundtrip_random():
    # 100 seeded random rational vectors per (flavor, n, k), exact identity
    rng = random.Random(20240815)
    for n in (1, 2, 3):
        for flavor in ("orthogonal", "symplectic"):
            for k in (1, 2, 3):
                x = flavor_specialization(flavor, k)
                m = build_loop_matrix(n, x)
                for _ in range(100):
                    raw = PairingVector(
                        n,
                        tuple(
                            Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                            for _ in range(double_factorial_odd(n))
                        ),
                    )
                    v = project_invariant(raw, flavor, k)
                    image = m.apply(v)
                    back = restricted_inverse_apply(n, flavor, k, image)
                    assert back.coords == v.coords


# -- k is checked at every entry point, before any cache is read ---------------


def test_restricted_inverse_refuses_k_zero():
    # used to read as an inadmissible block (4) of a valid solve
    with pytest.raises(InvalidInputError, match="k must be >= 1, got 0"):
        restricted_inverse_apply(2, "orthogonal", 0, PairingVector(2, (1, 0, 0)))


def test_negative_k_is_refused_even_for_the_zero_vector():
    zero = PairingVector.zero(2)
    with pytest.raises(InvalidInputError, match="k must be >= 1, got -1"):
        restricted_inverse_apply(2, "symplectic", -1, zero)
    with pytest.raises(InvalidInputError, match="k must be >= 1, got -1"):
        project_invariant(zero, "orthogonal", -1)
    with pytest.raises(InvalidInputError, match="k must be >= 1, got -1"):
        admissible_partitions(2, "orthogonal", -1)


def test_flavor_specialization_refuses_a_fractional_k():
    with pytest.raises(InvalidInputError, match="k must be an integer, got 0.5"):
        flavor_specialization("symplectic", 0.5)
    with pytest.raises(InvalidInputError, match="k must be an integer, got Fraction"):
        flavor_specialization("orthogonal", Fraction(2))


def test_bilinear_space_refuses_a_float_k():
    with pytest.raises(InvalidInputError, match="k must be an integer, got 1.5"):
        BilinearSpace("symplectic", 1.5)
    # a float or bool equal to a valid k must not reach a cache filled for the int
    v = PairingVector(2, (1, 1, 1))
    assert restricted_inverse_apply(2, "orthogonal", 2, v).coords == (Fraction(1, 8),) * 3
    assert project_invariant(v, "orthogonal", 2) == v
    for k in (2.0, True):
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            restricted_inverse_apply(2, "orthogonal", k, v)
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            project_invariant(v, "orthogonal", k)
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            flavor_dimension("orthogonal", k)


# -- the coset-type algebra -----------------------------------------------------

SMALL_N = st.integers(1, 4)


def test_type_table_entries_are_loop_types():
    for n in (1, 2, 3, 4):
        ps, types = enumerate_pairings(n), all_partitions(n)
        rows = _type_table(n)
        for p, row in zip(ps, rows):
            assert [types[t].parts for t in row] == [loop_type(p, q) for q in ps]


@settings(max_examples=30, deadline=None)
@given(n=SMALL_N, data=st.data())
def test_projectors_are_orthogonal_idempotents(n, data):
    projectors = _projectors(n)
    lam = data.draw(st.sampled_from(list(projectors)))
    mu = data.draw(st.sampled_from(list(projectors)))
    expected = projectors[lam] if lam == mu else (0,) * len(projectors[lam])
    assert _multiply(n, projectors[lam], projectors[mu]) == expected
    identity = (0,) * (len(all_partitions(n)) - 1) + (1,)
    assert tuple(map(sum, zip(*projectors.values()))) == identity


def test_projector_traces_are_hook_dimensions():
    # every diagonal entry has the identity type, the last one
    for n in (1, 2, 3, 4):
        for lam, e in _projectors(n).items():
            assert double_factorial_odd(n) * e[-1] == hook_dimension(lam)


@settings(max_examples=40, deadline=None)
@given(n=SMALL_N, x0=st.integers(-12, 12), data=st.data())
def test_projectors_are_eigenvectors_of_the_loop_matrix(n, x0, data):
    lam, e = data.draw(st.sampled_from(list(_projectors(n).items())))
    matrix = tuple(x0 ** mu.length for mu in all_partitions(n))
    assert _multiply(n, matrix, e) == tuple(content_product(lam, x0) * a for a in e)


def _second_coefficient(f, n):
    """The x^(n-1) coefficient of a monic degree-n polynomial, from its values:
    the (n-1)-th forward difference at 0 is (n-1)! (a_(n-1) + C(n, 2))."""
    values = [f(x) for x in range(n)]
    for _ in range(n - 1):
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0] / factorial(n - 1) - comb(n, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_swap_eigenvalue_is_the_second_content_coefficient(n):
    # M(x) = sum x^length(mu) A_mu and only (2, 1^(n-2)) has length n - 1
    types = all_partitions(n)
    swap = tuple(int(mu.parts == (2,) + (1,) * (n - 2)) for mu in types)
    for lam, e in _projectors(n).items():
        coefficient = _second_coefficient(lambda x: content_product(lam, x), n)
        assert _multiply(n, swap, e) == tuple(coefficient * a for a in e)


@settings(max_examples=40, deadline=None)
@given(n=SMALL_N, cell=st.sampled_from(CELLS), data=st.data())
def test_restricted_inverse_solves_the_dense_system(n, cell, data):
    flavor, k = cell
    size = double_factorial_odd(n)
    coords = data.draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    matrix = build_loop_matrix(n, flavor_specialization(flavor, k))
    v = matrix.apply(PairingVector(n, coords))
    w = restricted_inverse_apply(n, flavor, k, v)
    assert matrix.apply(w) == v
    assert project_invariant(w, flavor, k) == w
    if n > 3:
        return
    kernel = nullspace([list(row) for row in matrix.entries])
    if kernel:
        u = PairingVector(n, data.draw(st.sampled_from(kernel)))
        with pytest.raises(SubspaceError, match="nonzero component in the inadmissible block"):
            restricted_inverse_apply(n, flavor, k, v + u)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), cell=st.sampled_from(CELLS), data=st.data())
def test_recovery_agrees_with_the_brute_force_oracle(n, cell, data):
    # the contraction matrix and the expansion come from tensor_oracle only
    space = BilinearSpace(*cell)
    size = double_factorial_odd(n)
    c = PairingVector(n, data.draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size)))
    brute = diagonal_insertion_matrix(n, space)
    data_vector = PairingVector(n, [sum(a * b for a, b in zip(row, c.coords)) for row in brute])
    w = restricted_inverse_apply(n, *cell, data_vector)
    assert [sum(a * b for a, b in zip(row, w.coords)) for row in brute] == list(data_vector.coords)
    assert form_combination(w, space) == form_combination(c, space)
