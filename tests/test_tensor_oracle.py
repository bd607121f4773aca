import ast
import gc
import itertools
import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade import tensor_oracle
from nodaltrade.errors import InvalidInputError, ResourceLimitError
from nodaltrade.linalg import left_kernel, rank
from nodaltrade.loop_matrix import PairingVector, build_loop_matrix, flavor_specialization
from nodaltrade.pairings import Pairing, act_permutation, enumerate_pairings
from nodaltrade.partitions import hook_dimension
from nodaltrade.loop_matrix import admissible_partitions
from nodaltrade.tensor_oracle import (
    BilinearSpace,
    Tensor,
    _pairing_tensors,
    all_diagonal_multivectors,
    all_form_tensors,
    contract,
    diagonal_insertion_matrix,
    diagonal_row,
    form_combination,
    invariant_map_rank,
    permute_slots,
)

CELLS = [(flavor, k) for flavor in ("orthogonal", "symplectic") for k in (1, 2, 3)]


def form_tensor(p, space):
    """The form tensor of p, read from its cell's cache."""
    return all_form_tensors(p.n, space)[enumerate_pairings(p.n).index(p)]


def diagonal_multivector(p, space):
    """The diagonal multivector of p, read from its cell's cache."""
    return all_diagonal_multivectors(p.n, space)[enumerate_pairings(p.n).index(p)]


def dense_tensor(n, dim, coeffs):
    """The tensor whose dense view is coeffs."""
    flats = tuple(flat for flat, c in enumerate(coeffs) if c)
    return Tensor(n, dim, flats, tuple(coeffs[flat] for flat in flats))


def test_space_forms():
    o = BilinearSpace("orthogonal", 3)
    assert o.dim == 3
    assert o.form == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    s = BilinearSpace("symplectic", 1)
    assert s.dim == 2
    assert s.form == ((0, 1), (-1, 0))
    assert s.inverse_form == ((0, -1), (1, 0))
    with pytest.raises(InvalidInputError):
        BilinearSpace("unitary", 2)


def test_form_tensor_orthogonal_n1():
    space = BilinearSpace("orthogonal", 1)
    t = form_tensor(Pairing(((1, 2),)), space)
    assert t.coeffs == (1,)


def test_form_tensor_symplectic_n1():
    space = BilinearSpace("symplectic", 1)
    t = form_tensor(Pairing(((1, 2),)), space)
    # slot matrix [[0, 1], [-1, 0]] over basis (e1, f1)
    assert t.coefficient((0, 1)) == 1
    assert t.coefficient((1, 0)) == -1
    assert t.coefficient((0, 0)) == 0


def test_diagonal_multivector_fixtures():
    # orthogonal k=2: coefficient matrix of the diagonal bivector is identity
    space = BilinearSpace("orthogonal", 2)
    d = diagonal_multivector(Pairing(((1, 2),)), space)
    assert d.coefficient((0, 0)) == 1 and d.coefficient((1, 1)) == 1
    assert d.coefficient((0, 1)) == 0

    # symplectic 2k=2: inverse bivector in decreasing slot order
    space = BilinearSpace("symplectic", 1)
    d = diagonal_multivector(Pairing(((1, 2),)), space)
    assert d.coefficient((0, 1)) == -1
    assert d.coefficient((1, 0)) == 1


def test_crossing_sign_carried():
    space = BilinearSpace("symplectic", 2)
    crossed = Pairing(((1, 3), (2, 4)))
    nested = Pairing(((1, 2), (3, 4)))
    tc = form_tensor(crossed, space)
    tn = form_tensor(nested, space)
    # c((13)(24)) = 1 flips the overall sign relative to the plain product
    assert tc.coefficient((0, 0, 2, 2)) == -1  # e1 e1 f1 f1 slots via (1,3),(2,4)
    assert tn.coefficient((0, 2, 0, 2)) == 1


def test_composite_diagonal_is_product_of_factors():
    for flavor, k in (("orthogonal", 2), ("symplectic", 1)):
        space = BilinearSpace(flavor, k)
        single = diagonal_multivector(Pairing(((1, 2),)), space)
        double = diagonal_multivector(Pairing(((1, 2), (3, 4))), space)
        d = space.dim
        for a, b, c, e in itertools.product(range(d), repeat=4):
            assert double.coefficient((a, b, c, e)) == single.coefficient(
                (a, b)
            ) * single.coefficient((c, e))


def test_contract_fixtures():
    for k in (1, 2, 3, 4):
        space = BilinearSpace("orthogonal", k)
        p = Pairing(((1, 2),))
        assert contract(form_tensor(p, space), diagonal_multivector(p, space)) == k
    for k in (1, 2, 3):
        space = BilinearSpace("symplectic", k)
        p = Pairing(((1, 2),))
        assert contract(form_tensor(p, space), diagonal_multivector(p, space)) == -2 * k


def test_contract_shape_mismatch():
    s1 = BilinearSpace("orthogonal", 2)
    t1 = form_tensor(Pairing(((1, 2),)), s1)
    t2 = diagonal_multivector(Pairing(((1, 2), (3, 4))), s1)
    with pytest.raises(InvalidInputError):
        contract(t1, t2)


def _cycle_contraction(space, h):
    """Closed contraction cycle of length 2h.

    In the written index order Delta_{ab} has the same coefficient matrix
    as the form (the inverse matrix only shows up after swapping to the
    decreasing slot order), so both factor kinds read off space.form.
    """
    d = space.dim
    form = space.form
    # omega_{i1 i2} x ... x omega_{i_{2h-1} i_{2h}} against
    # Delta_{i2 i3} x ... x Delta_{i_{2h} i_1}: contract indices directly
    total = Fraction(0)
    for idx in itertools.product(range(d), repeat=2 * h):
        v = Fraction(1)
        for t in range(h):
            v *= form[idx[2 * t]][idx[2 * t + 1]]
            if not v:
                break
        if not v:
            continue
        for t in range(h):
            a = idx[(2 * t + 1) % (2 * h)]
            b = idx[(2 * t + 2) % (2 * h)]
            v *= form[a][b]
            if not v:
                break
        total += v
    return total


def test_symplectic_cycle_contraction():
    for k in (1, 2):
        space = BilinearSpace("symplectic", k)
        for h in (1, 2, 3):
            assert _cycle_contraction(space, h) == (-1) ** h * 2 * k


def test_orthogonal_cycle_gives_k():
    for k in (1, 2, 3):
        space = BilinearSpace("orthogonal", k)
        for h in (1, 2):
            assert _cycle_contraction(space, h) == k


def test_oracle_equivalence_small():
    # the anti-drift anchor: brute-force contraction matrix vs loop matrix
    for n in (1, 2):
        for flavor in ("orthogonal", "symplectic"):
            for k in (1, 2, 3):
                space = BilinearSpace(flavor, k)
                brute = diagonal_insertion_matrix(n, space)
                spec = build_loop_matrix(n, flavor_specialization(flavor, k))
                assert brute == spec.entries


def test_oracle_equivalence_displayed_matrices():
    assert diagonal_insertion_matrix(2, BilinearSpace("orthogonal", 3)) == (
        (9, 3, 3),
        (3, 9, 3),
        (3, 3, 9),
    )
    assert diagonal_insertion_matrix(2, BilinearSpace("symplectic", 1)) == (
        (4, -2, -2),
        (-2, 4, -2),
        (-2, -2, 4),
    )
    assert diagonal_insertion_matrix(1, BilinearSpace("orthogonal", 1)) == ((1,),)


def test_resource_ceiling():
    with pytest.raises(ResourceLimitError):
        diagonal_insertion_matrix(4, BilinearSpace("orthogonal", 2))
    with pytest.raises(ResourceLimitError):
        invariant_map_rank(2, BilinearSpace("symplectic", 4))
    with pytest.raises(ResourceLimitError, match="n <= 3"):
        all_form_tensors(4, BilinearSpace("orthogonal", 4))
    with pytest.raises(ResourceLimitError, match="dim <= 6"):
        all_diagonal_multivectors(1, BilinearSpace("orthogonal", 7))
    with pytest.raises(ResourceLimitError):
        all_form_tensors(1, BilinearSpace("symplectic", 4))


def test_dense_tensors_are_their_supports():
    for n in (1, 2, 3):
        for flavor, k in CELLS:
            space = BilinearSpace(flavor, k)
            for dense in (*all_form_tensors(n, space), *all_diagonal_multivectors(n, space)):
                nonzero = tuple((flat, c) for flat, c in enumerate(dense.coeffs) if c)
                assert nonzero == dense.support
                assert len(dense.support) == space.dim ** n


def test_building_tensors_leaves_no_reference_cycles():
    # a self-referencing helper would keep every dense array alive until
    # the cyclic collector runs
    _pairing_tensors.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for flavor, k in CELLS:
            space = BilinearSpace(flavor, k)
            all_form_tensors(3, space)
            all_diagonal_multivectors(3, space)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "support, fragment",
    [
        (((3, 1), (2, 1)), "strictly increase"),
        (((2, 1), (2, 5)), "strictly increase"),
        (((-1, 1),), "within 0..15"),
        (((16, 1),), "within 0..15"),
        (((0, 1), (5, Fraction(0))), "zero value"),
        (((0, 1), (5, 0.5)), "0.5 at flat 5 is not an int or Fraction"),
    ],
    ids=["unsorted", "repeated-flat", "negative-flat", "flat-past-end", "zero-value", "float-value"],
)
def test_tensor_rejects_malformed_support(support, fragment):
    flats, values = tuple(f for f, _ in support), tuple(v for _, v in support)
    with pytest.raises(InvalidInputError, match=fragment):
        Tensor(2, 2, flats, values)


def test_tensor_refuses_a_value_that_only_claims_to_be_an_int():
    class Impostor:
        __class__ = int

    with pytest.raises(InvalidInputError, match="at flat 3 is not an int or Fraction"):
        Tensor(2, 2, (0, 3), (1, Impostor()))


def test_tensor_refuses_flats_and_values_of_different_lengths():
    with pytest.raises(InvalidInputError, match="2 flats but 1 values"):
        Tensor(2, 2, (0, 3), (1,))


def test_tensor_reads_its_support():
    t = Tensor(1, 3, (1, 8), (Fraction(1, 2), -4))
    assert t.coeffs == (0, Fraction(1, 2), 0, 0, 0, 0, 0, 0, -4)
    assert t.coefficient((0, 1)) == Fraction(1, 2) and t.coefficient((1, 0)) == 0
    assert t.support == ((1, Fraction(1, 2)), (8, -4))
    assert t == Tensor(1, 3, (1, 8), (Fraction(1, 2), Fraction(-4)))
    assert not t.is_zero() and Tensor(1, 3, (), ()).is_zero()


def test_invariant_map_rank_fixtures():
    r, kernel = invariant_map_rank(2, BilinearSpace("orthogonal", 1))
    assert r == 1
    assert len(kernel) == 2
    for v in kernel:
        assert sum(v.coords) == 0

    r, kernel = invariant_map_rank(2, BilinearSpace("symplectic", 1))
    assert r == 2
    assert len(kernel) == 1
    (v,) = kernel
    assert v.coords[0] == v.coords[1] == v.coords[2] != 0

    r, kernel = invariant_map_rank(2, BilinearSpace("orthogonal", 4))
    assert r == 3 and kernel == []


def test_invariant_map_rank_matches_admissible_blocks():
    for n in (1, 2, 3):
        for flavor in ("orthogonal", "symplectic"):
            for k in (1, 2, 3):
                space = BilinearSpace(flavor, k)
                r, kernel = invariant_map_rank(n, space)
                expected = sum(
                    hook_dimension(lam) for lam in admissible_partitions(n, flavor, k)
                )
                assert r == expected
                assert len(kernel) + r == len(enumerate_pairings(n))


def test_kernel_coincides_with_inadmissible_blocks():
    # stacking the kernel with the inadmissible eigenbases must not raise rank
    from nodaltrade.loop_matrix import eigenspace_decomposition

    for flavor, k in (("orthogonal", 1), ("symplectic", 1)):
        space = BilinearSpace(flavor, k)
        _, kernel = invariant_map_rank(2, space)
        blocks = eigenspace_decomposition(2)
        inadmissible = [
            v
            for lam, basis in blocks.items()
            if lam not in admissible_partitions(2, flavor, k)
            for v in basis
        ]
        stacked = [list(v.coords) for v in kernel] + [list(v.coords) for v in inadmissible]
        assert rank(stacked) == len(kernel) == len(inadmissible)


def test_equivariance_exhaustive_n2():
    for flavor in ("orthogonal", "symplectic"):
        space = BilinearSpace(flavor, 2)
        for p in enumerate_pairings(2):
            base = form_tensor(p, space)
            for g in itertools.permutations(range(1, 5)):
                moved, sign = act_permutation(g, p, "signed")
                lhs = form_tensor(moved, space)
                rhs = permute_slots(base, g)
                if flavor == "symplectic" and sign == -1:
                    assert lhs.coeffs == tuple(-x for x in rhs.coeffs)
                else:
                    assert lhs.coeffs == rhs.coeffs


def test_equivariance_random_n3():
    rng = random.Random(99)
    for flavor in ("orthogonal", "symplectic"):
        space = BilinearSpace(flavor, 2)
        ps = enumerate_pairings(3)
        for _ in range(6):
            p = ps[rng.randrange(len(ps))]
            g = list(range(1, 7))
            rng.shuffle(g)
            g = tuple(g)
            moved, sign = act_permutation(g, p, "signed")
            lhs = form_tensor(moved, space)
            rhs = permute_slots(form_tensor(p, space), g)
            expected = tuple(
                (x if flavor == "orthogonal" or sign == 1 else -x) for x in rhs.coeffs
            )
            assert lhs.coeffs == expected


def test_odd_tensor_vanishing():
    # averaging a random odd-order tensor over {Id, -Id} kills it
    rng = random.Random(5)
    for dim in (2, 3):
        order = 3
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(dim**order)]
        negated = [(-1) ** order * c for c in coeffs]
        averaged = [(a + b) / 2 for a, b in zip(coeffs, negated)]
        assert all(x == 0 for x in averaged)


def test_contract_bilinearity_random():
    rng = random.Random(13)
    space = BilinearSpace("orthogonal", 2)
    size = space.dim**4
    for _ in range(5):
        a = dense_tensor(2, space.dim, tuple(Fraction(rng.randint(-4, 4)) for _ in range(size)))
        b = dense_tensor(2, space.dim, tuple(Fraction(rng.randint(-4, 4)) for _ in range(size)))
        c = dense_tensor(2, space.dim, tuple(Fraction(rng.randint(-4, 4)) for _ in range(size)))
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        scaled = dense_tensor(2, space.dim, tuple(lam * x + y for x, y in zip(a.coeffs, b.coeffs)))
        assert contract(scaled, c) == lam * contract(a, c) + contract(b, c)
        scaled2 = dense_tensor(2, space.dim, tuple(lam * x + y for x, y in zip(b.coeffs, c.coeffs)))
        assert contract(a, scaled2) == lam * contract(a, b) + contract(a, c)


def test_permute_slots_refuses_a_basis_map_that_is_no_signed_permutation():
    t = Tensor(1, 2, (1,), (1,))
    for basis in (((0, 1), (0, 1)), ((0, 1), (1, 2)), ((0, 1),)):
        with pytest.raises(InvalidInputError, match="signed permutation"):
            permute_slots(t, (1, 2), basis)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 2), dim=st.integers(1, 4), data=st.data())
def test_signed_basis_map_then_its_inverse_returns_the_tensor(n, dim, data):
    order = 2 * n
    entries = data.draw(
        st.dictionaries(
            st.integers(0, dim**order - 1),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            max_size=12,
        )
    )
    flats = tuple(sorted(flat for flat, c in entries.items() if c))
    t = Tensor(n, dim, flats, tuple(entries[flat] for flat in flats))
    images = data.draw(st.permutations(range(dim)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    g = tuple(data.draw(st.permutations(range(1, order + 1))))
    basis = tuple(zip(images, signs))
    inverse_basis = [None] * dim
    for b, (image, sign) in enumerate(basis):
        inverse_basis[image] = (b, sign)
    inverse_g = [0] * order
    for i, image in enumerate(g, start=1):
        inverse_g[image - 1] = i
    moved = permute_slots(t, g, basis)
    assert permute_slots(moved, inverse_g, inverse_basis) == t
    assert permute_slots(t, range(1, order + 1)) == t


# -- the class table: form_combination, diagonal_row and invariant_map_rank
# read the distinct columns of the pairing tensors; each is checked here
# against a route that walks every coefficient or support entry


@cache
def dense_forms(n, flavor, k):
    return tuple(form.coeffs for form in all_form_tensors(n, BilinearSpace(flavor, k)))


@cache
def kernel_coords(n, flavor, k):
    return [v.coords for v in invariant_map_rank(n, BilinearSpace(flavor, k))[1]]


small_rationals = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


def drawn_coords(n, cell, data):
    """Small rationals, plus a kernel vector half the time where there is one:
    its own combination is zero on every class, so adding it makes totals cancel."""
    size = len(enumerate_pairings(n))
    coords = data.draw(st.lists(small_rationals, min_size=size, max_size=size))
    kernel = kernel_coords(n, *cell)
    if kernel and data.draw(st.booleans()):
        scale = data.draw(small_rationals)
        extra = kernel[data.draw(st.integers(0, len(kernel) - 1))]
        coords = [c + scale * e for c, e in zip(coords, extra)]
    return PairingVector(n, coords)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), cell=st.sampled_from(CELLS), data=st.data())
def test_form_combination_is_the_dense_sum(n, cell, data):
    space = BilinearSpace(*cell)
    coords = drawn_coords(n, cell, data).coords
    den = lcm(*(c.denominator for c in coords))
    totals = [0] * space.dim ** (2 * n)
    for c, dense in zip(coords, dense_forms(n, *cell)):
        scale = c.numerator * (den // c.denominator)
        totals = [t + scale * x for t, x in zip(totals, dense)]
    expected = dense_tensor(n, space.dim, [Fraction(t, den) for t in totals])
    assert form_combination(PairingVector(n, coords), space) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), cell=st.sampled_from(CELLS), data=st.data())
def test_a_combination_is_stored_in_lowest_terms_and_reads_as_the_dense_sum(n, cell, data):
    space = BilinearSpace(*cell)
    size = len(enumerate_pairings(n))
    coords = data.draw(st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=size, max_size=size
    ))
    t = form_combination(PairingVector(n, coords), space)
    assert {type(a) for a in t.numerators} <= {int} and type(t.denominator) is int
    assert t.denominator >= 1 and gcd(t.denominator, *t.numerators) == 1
    # sum c_P * T_P over the dense form tensors, over the coordinates' common denominator
    den = lcm(*(c.denominator for c in coords))
    totals = [0] * space.dim ** (2 * n)
    for c, form in zip(coords, all_form_tensors(n, space)):
        scale = c.numerator * (den // c.denominator)
        totals = [total + scale * x for total, x in zip(totals, form.coeffs)]
    assert t.coeffs == tuple(Fraction(total, den) for total in totals)
    # the values are ints over the denominator 1 and Fractions over any other
    assert {type(v) for v in t.values} <= ({int} if t.denominator == 1 else {Fraction})
    rebuilt = Tensor(n, space.dim, t.flats, t.values)
    assert rebuilt == t and t == rebuilt and hash(rebuilt) == hash(t)


@pytest.mark.parametrize(
    "n, flavor, k", [(1, "orthogonal", 2), (2, "symplectic", 1), (2, "orthogonal", 3)]
)
def test_coefficient_reads_the_dense_view_at_every_index(n, flavor, k):
    space = BilinearSpace(flavor, k)
    coords = [Fraction(i - 2, 3) for i in range(len(enumerate_pairings(n)))]
    for t in (*all_form_tensors(n, space), form_combination(PairingVector(n, coords), space)):
        # itertools.product yields the indices in flat order (see slot_weights)
        indices = itertools.product(range(space.dim), repeat=2 * n)
        assert [t.coefficient(index) for index in indices] == list(t.coeffs)


def test_coefficient_refuses_an_index_entry_that_is_not_an_int_in_range():
    t = all_form_tensors(1, BilinearSpace("orthogonal", 2))[0]
    assert t.coefficient((0, 0)) == t.coefficient((1, 1)) == 1 and t.coefficient((0, 1)) == 0
    for index in ((0.0, 0.0), (True, True), (0.5, 0.5), (0, Fraction(1)), ("0", 0)):
        with pytest.raises(InvalidInputError, match="index entry must be an integer"):
            t.coefficient(index)
    for index, entry in (((0, 2), 2), ((-1, 0), -1)):
        with pytest.raises(InvalidInputError, match=f"index entry {entry} out of range 0..1"):
            t.coefficient(index)
    for index in ((0,), (0, 0, 0)):
        with pytest.raises(InvalidInputError, match="index must have 2 slots"):
            t.coefficient(index)


def test_form_combination_drops_the_classes_whose_totals_vanish():
    space = BilinearSpace("symplectic", 3)
    union = _pairing_tensors(3, space)[2][0]
    coords = (1, -1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, -2)
    t = form_combination(PairingVector(3, coords), space)
    assert len(t.flats) == 750 and set(t.flats) < set(union)
    for n, cell in itertools.product((2, 3), (("orthogonal", 1), ("symplectic", 1))):
        for v in kernel_coords(n, *cell):
            assert form_combination(PairingVector(n, v), BilinearSpace(*cell)).is_zero()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), cell=st.sampled_from(CELLS),
       kind=st.sampled_from(("form", "combination", "moved", "random")), data=st.data())
def test_diagonal_row_is_the_contraction_with_every_diagonal(n, cell, kind, data):
    space = BilinearSpace(*cell)
    forms = all_form_tensors(n, space)
    t = forms[data.draw(st.integers(0, len(forms) - 1))]
    if kind == "combination":
        # on the cell's table, with fractions and, from kernel vectors, zero classes
        t = form_combination(drawn_coords(n, cell, data), space)
    elif kind == "moved":
        # slots and a signed basis map move the support off the union
        g = data.draw(st.permutations(range(1, 2 * n + 1)))
        images = data.draw(st.permutations(range(space.dim)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=space.dim, max_size=space.dim))
        t = permute_slots(t, g, zip(images, signs))
    elif kind == "random":
        entries = data.draw(st.dictionaries(
            st.integers(0, space.dim ** (2 * n) - 1),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            max_size=40,
        ))
        flats = tuple(sorted(flat for flat, c in entries.items() if c))
        t = Tensor(n, space.dim, flats, tuple(entries[flat] for flat in flats))
    # the dense sum: the off-table kinds go through `contract`, which it does not call
    expected = tuple(sum(map(mul, t.coeffs, d.coeffs)) for d in all_diagonal_multivectors(n, space))
    assert diagonal_row(t, space).coords == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), cell=st.sampled_from(CELLS), data=st.data())
def test_a_table_tensor_equals_its_view_rebuilt(n, cell, data):
    space = BilinearSpace(*cell)
    t = form_combination(drawn_coords(n, cell, data), space)
    rebuilt = Tensor(n, space.dim, t.flats, t.values)
    assert t == rebuilt and rebuilt == t and not t != rebuilt and not rebuilt != t
    assert hash(t) == hash(rebuilt)
    assert t.is_zero() == rebuilt.is_zero() == (not t.flats)
    assert repr(t) == repr(rebuilt)
    # the same combination on the same table, and a different one
    again = form_combination(drawn_coords(n, cell, data), space)
    assert (again == t) == (again.flats == t.flats and again.values == t.values)
    assert (again == t) == (Tensor(n, space.dim, again.flats, again.values) == rebuilt)


def test_equal_class_values_on_different_tables_are_different_tensors():
    assert Tensor(1, 2, (0,), (1,)) != Tensor(1, 2, (3,), (1,))
    # one class of value 1 on each of these tables: e1e1 + e2e2 against e1e1 + e2e2 + e3e3
    two, three = (all_form_tensors(1, BilinearSpace("orthogonal", k))[0] for k in (2, 3))
    assert (two.numerators, two.denominator) == (three.numerators, three.denominator)
    assert two != three
    sym = all_form_tensors(2, BilinearSpace("symplectic", 1))
    assert sym[0] != sym[1] and sym[0] == Tensor(2, 2, sym[0].flats, sym[0].values)


RANK_CELLS = [("orthogonal", k) for k in range(1, 7)] + [("symplectic", k) for k in (1, 2, 3)]


@pytest.mark.parametrize("flavor, k", RANK_CELLS)
def test_invariant_map_rank_is_the_left_kernel_of_the_union_rows(flavor, k):
    for n in (1, 2, 3):
        space = BilinearSpace(flavor, k)
        forms = all_form_tensors(n, space)
        union = sorted({flat for form in forms for flat in form.flats})
        rows = [[at.get(flat, 0) for flat in union] for at in map(dict, (f.support for f in forms))]
        kernel = left_kernel(rows)
        r, vectors = invariant_map_rank(n, space)
        assert [v.coords for v in vectors] == kernel
        assert r == len(rows) - len(kernel)


LOOP_MATRIX_ROUTE = {
    "_type_table", "_buckets", "_apply", "_projectors", "build_loop_matrix", "LoopMatrix",
    "loop_type", "loop_number", "act_permutation",
}


def test_oracle_shares_no_code_with_the_loop_matrix_route():
    # `oracle --check-loop-matrix` compares this module with the type table, which
    # is a genuine check only while the oracle computes without it
    tree = ast.parse(Path(tensor_oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert not names & LOOP_MATRIX_ROUTE
