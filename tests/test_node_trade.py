import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodaltrade.errors import InconsistentDataError, InvalidInputError, ResourceLimitError
from nodaltrade.loop_matrix import (
    PairingVector,
    build_loop_matrix,
    flavor_specialization,
    project_invariant,
)
from nodaltrade.node_trade import (
    InvariantTensor,
    _monomial_generators,
    contract_with_all_diagonals,
    primitive_insertion_pairs,
    recover,
    recover_batch,
    spot_check_invariance,
)
from nodaltrade.pairings import double_factorial_odd
from nodaltrade.tensor_oracle import BilinearSpace, Tensor, all_form_tensors


def test_odd_insertions_refused():
    assert primitive_insertion_pairs(4) == 2
    assert primitive_insertion_pairs(0) == 0
    with pytest.raises(InvalidInputError):
        primitive_insertion_pairs(3)
    with pytest.raises(InvalidInputError):
        primitive_insertion_pairs(-2)


@pytest.mark.parametrize("a", [4.0, True, 2.5], ids=["float", "bool", "half"])
def test_insertion_count_refuses_a_float_or_a_bool(a):
    with pytest.raises(InvalidInputError, match=f"^insertion count must be an integer, got {a!r}$"):
        primitive_insertion_pairs(a)
    with pytest.raises(InvalidInputError, match="^insertion count must be >= 0, got -2$"):
        primitive_insertion_pairs(-2)


def test_invariant_tensor_derives_its_tensor_from_its_coordinates():
    space = BilinearSpace("orthogonal", 1)
    with pytest.raises(TypeError):
        InvariantTensor(1, space, Tensor(1, 1, (0,), (5,)), PairingVector(1, [1]))
    omega = InvariantTensor(1, space, PairingVector(1, [1]))
    assert omega.tensor == Tensor(1, 1, (0,), (1,))
    assert contract_with_all_diagonals(omega).coords == (1,)
    assert omega == InvariantTensor.from_coordinates(1, space, (1,))
    assert "tensor" not in repr(omega) and omega.replace() == omega
    assert omega.replace(coordinates=PairingVector(1, [5])).tensor == Tensor(1, 1, (0,), (5,))
    with pytest.raises(InvalidInputError, match="coordinates are for n=2, not n=1"):
        InvariantTensor(1, space, PairingVector(2, (1, 2, 3)))


def test_recover_scales_only_for_a_negative_sign(monkeypatch):
    space = BilinearSpace("symplectic", 1)
    data = PairingVector(1, (Fraction(2),))
    with monkeypatch.context() as patch:
        patch.setattr(PairingVector, "scale", lambda self, c: pytest.fail("scaled by +1"))
        assert recover(data, 1, space).coordinates.coords == (-1,)
    assert recover(data, 1, space, sign=-1).coordinates.coords == (1,)
    for sign in (2, 0, 1.0, -1.0, True, False, Fraction(-1)):
        message = f"sign must be +1 or -1, got {sign!r}"  # the repr names a bool or a Fraction
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            recover(data, 1, space, sign=sign)


def test_symplectic_form_contraction_is_minus_two():
    # the invariant built from the single 1-pairing is the form itself
    space = BilinearSpace("symplectic", 1)
    omega = InvariantTensor.from_coordinates(1, space, (1,))
    assert contract_with_all_diagonals(omega).coords == (Fraction(-2),)


def test_zero_tensor_contracts_to_zero():
    space = BilinearSpace("orthogonal", 2)
    omega = InvariantTensor.zero(2, space)
    assert contract_with_all_diagonals(omega).is_zero()
    assert omega.tensor.is_zero()


def test_coordinates_for_another_n_refused():
    space = BilinearSpace("orthogonal", 2)
    with pytest.raises(InvalidInputError):
        InvariantTensor.from_coordinates(2, space, PairingVector(3, range(15)))


def test_first_row_fixture():
    # coordinates (1, 0, 0) give the product form; contractions read off
    # the first row of the diagonal-insertion matrix at k=2
    space = BilinearSpace("orthogonal", 2)
    omega = InvariantTensor.from_coordinates(2, space, (1, 0, 0))
    assert contract_with_all_diagonals(omega).coords == (4, 2, 2)


def test_contractions_match_loop_matrix_route():
    # dual route: tensor contractions vs matrix-times-coordinates
    rng = random.Random(11)
    for flavor in ("orthogonal", "symplectic"):
        for n in (1, 2):
            for k in (1, 2):
                space = BilinearSpace(flavor, k)
                m = build_loop_matrix(n, flavor_specialization(flavor, k))
                for _ in range(4):
                    coords = PairingVector(
                        n,
                        tuple(
                            Fraction(rng.randint(-5, 5))
                            for _ in range(double_factorial_odd(n))
                        ),
                    )
                    omega = InvariantTensor.from_coordinates(n, space, coords)
                    assert contract_with_all_diagonals(omega).coords == m.apply(coords).coords


def test_recover_elliptic_warmup():
    # symplectic 2k=2, n=1: data (-2 lambda) recovers lambda times the form
    space = BilinearSpace("symplectic", 1)
    lam = Fraction(7, 3)
    omega = recover(PairingVector(1, (-2 * lam,)), 1, space)
    expected = InvariantTensor.from_coordinates(1, space, (lam,))
    assert omega.tensor == expected.tensor
    assert omega.coordinates.coords == (lam,)


def test_recover_zero():
    space = BilinearSpace("orthogonal", 3)
    omega = recover(PairingVector.zero(2), 2, space)
    assert omega.tensor.is_zero()


def test_recover_sign_parameter():
    space = BilinearSpace("symplectic", 1)
    omega = recover(PairingVector(1, (Fraction(2),)), 1, space, sign=-1)
    assert omega.coordinates.coords == (Fraction(1),)
    with pytest.raises(InvalidInputError):
        recover(PairingVector(1, (1,)), 1, space, sign=2)


def test_contraction_data_always_lands_in_invariant_subspace():
    # the monodromy filter: contraction vectors of invariant tensors have
    # no component in the inadmissible blocks
    rng = random.Random(777)
    for flavor, n, k in (("orthogonal", 2, 1), ("symplectic", 2, 1), ("symplectic", 3, 1)):
        space = BilinearSpace(flavor, k)
        from nodaltrade.pairings import double_factorial_odd as dfo

        for _ in range(5):
            coords = PairingVector(
                n, tuple(Fraction(rng.randint(-6, 6)) for _ in range(dfo(n)))
            )
            omega = InvariantTensor.from_coordinates(n, space, coords)
            data = contract_with_all_diagonals(omega)
            assert project_invariant(data, flavor, k) == data


def test_recover_rejects_non_invariant_data():
    # orthogonal k=1 at n=2: valid data must be proportional to (1, 1, 1)
    space = BilinearSpace("orthogonal", 1)
    with pytest.raises(InconsistentDataError):
        recover(PairingVector(2, (1, 0, 0)), 2, space)
    outside, inside = PairingVector(2, (1, 0, 0)), PairingVector(2, (5, 5, 5))
    assert project_invariant(outside, "orthogonal", 1) != outside
    assert project_invariant(inside, "orthogonal", 1) == inside


def test_roundtrip_seeded_random():
    rng = random.Random(424242)
    for flavor in ("orthogonal", "symplectic"):
        for n in (1, 2):
            for k in (1, 2, 3):
                space = BilinearSpace(flavor, k)
                for _ in range(10):
                    raw = PairingVector(
                        n,
                        tuple(
                            Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                            for _ in range(double_factorial_odd(n))
                        ),
                    )
                    omega = InvariantTensor.from_coordinates(n, space, raw)
                    data = contract_with_all_diagonals(omega)
                    back = recover(data, n, space)
                    # tensors agree exactly; coordinates agree after projecting
                    # away the kernel of the pairing map
                    assert back.tensor == omega.tensor
                    projected = project_invariant(raw, flavor, k)
                    assert back.coordinates.coords == projected.coords


def test_recover_batch_componentwise():
    space = BilinearSpace("orthogonal", 2)
    vectors = [PairingVector(2, (4, 2, 2)), PairingVector.zero(2)]
    tensors = recover_batch(vectors, 2, space)
    assert tensors[0].coordinates.coords == (1, 0, 0) or not tensors[0].tensor.is_zero()
    assert tensors[1].tensor.is_zero()
    # first vector is the first matrix row, so it recovers the pure form
    expected = InvariantTensor.from_coordinates(2, space, (1, 0, 0))
    assert tensors[0].tensor == expected.tensor


def test_spot_check_invariance():
    for flavor, k in (("orthogonal", 2), ("symplectic", 2)):
        space = BilinearSpace(flavor, k)
        omega = InvariantTensor.from_coordinates(2, space, (2, -1, 3))
        assert spot_check_invariance(omega.tensor, space)
    # a non-invariant tensor fails the generator check
    from nodaltrade.tensor_oracle import Tensor

    space = BilinearSpace("orthogonal", 2)
    # the bare monomial e1 x e1 x e1 x e1 (flat 0) is not O(V)-invariant
    assert not spot_check_invariance(Tensor(2, space.dim, (0,), (1,)), space)


@settings(max_examples=60, deadline=None)
@given(
    cell=st.sampled_from(
        [(flavor, n, k) for flavor in ("orthogonal", "symplectic") for n in (1, 2, 3) for k in (1, 2, 3)]
    ),
    data=st.data(),
)
def test_roundtrip_rational_coordinates(cell, data):
    # denominators other than 1 exercise the common-denominator expansion
    flavor, n, k = cell
    space = BilinearSpace(flavor, k)
    rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    coords = PairingVector(
        n, data.draw(st.lists(rational, min_size=double_factorial_odd(n), max_size=double_factorial_odd(n)))
    )
    omega = InvariantTensor.from_coordinates(n, space, coords)
    contractions = contract_with_all_diagonals(omega)
    assert contractions == build_loop_matrix(n, flavor_specialization(flavor, k)).apply(coords)
    back = recover(contractions, n, space)
    assert back.tensor == omega.tensor
    assert back.coordinates == project_invariant(coords, flavor, k)


@settings(max_examples=40, deadline=None)
@given(
    cell=st.sampled_from(
        [(flavor, n, k) for flavor in ("orthogonal", "symplectic") for n in (1, 2, 3) for k in (1, 2, 3)]
    ),
    data=st.data(),
)
def test_expansion_is_the_sorted_nonzero_support(cell, data):
    # small rationals make cancelling totals likely where the form tensors
    # are dependent (orthogonal k=1), so zeros must be dropped, not stored
    flavor, n, k = cell
    space = BilinearSpace(flavor, k)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    size = double_factorial_odd(n)
    coords = data.draw(st.lists(rational, min_size=size, max_size=size))
    tensor = InvariantTensor.from_coordinates(n, space, coords).tensor
    flats = [flat for flat, _ in tensor.support]
    assert flats == sorted(set(flats))
    assert all(value for _, value in tensor.support)
    expected = [Fraction(0)] * space.dim ** (2 * n)
    for c, form in zip(coords, all_form_tensors(n, space)):
        for flat, value in enumerate(form.coeffs):
            if value:
                expected[flat] += c * value
    assert tensor.coeffs == tuple(expected)


def test_no_dense_view_off_the_output_path(monkeypatch):
    from nodaltrade import tensor_oracle

    def refuse(self):
        raise AssertionError("a dense coefficient array was built")

    monkeypatch.setattr(tensor_oracle.Tensor, "coeffs", property(refuse))
    space = BilinearSpace("symplectic", 3)
    omega = InvariantTensor.from_coordinates(3, space, range(15))
    assert recover(contract_with_all_diagonals(omega), 3, space).tensor == omega.tensor
    assert spot_check_invariance(omega.tensor, space)
    tensor_oracle.permute_slots(omega.tensor, (2, 1, 3, 4, 5, 6))
    tensor_oracle.all_form_tensors(3, space)
    tensor_oracle.all_diagonal_multivectors(3, space)
    tensor_oracle.diagonal_insertion_matrix(2, space)
    tensor_oracle.invariant_map_rank(2, space)


def test_roundtrip_reads_no_view_of_a_tensor(monkeypatch):
    # expansion, contraction, recovery and comparison stay on the class values
    from nodaltrade import tensor_oracle

    def refuse(self):
        raise AssertionError("a tensor view was built")

    for view in ("flats", "values", "support", "coeffs"):
        monkeypatch.setattr(tensor_oracle.Tensor, view, property(refuse))
    monkeypatch.setattr(tensor_oracle.Tensor, "coefficient", refuse)
    monkeypatch.setattr(tensor_oracle.Tensor, "to_json", refuse)
    space = BilinearSpace("symplectic", 3)
    coords = (Fraction(1, 2), -1, 0, 0, 0, 0, 0, Fraction(2, 3), 0, 0, 0, 0, 0, 0, -2)
    omega = InvariantTensor.from_coordinates(3, space, coords)
    back = recover(contract_with_all_diagonals(omega), 3, space)
    assert back.tensor == omega.tensor and back.tensor != InvariantTensor.zero(3, space).tensor


def test_brute_force_budget_on_every_entry_point():
    space = BilinearSpace("orthogonal", 4)
    with pytest.raises(ResourceLimitError, match="n <= 3"):
        InvariantTensor.from_coordinates(4, space, PairingVector.zero(4))
    with pytest.raises(ResourceLimitError, match="n <= 3"):
        recover(PairingVector.zero(4), 4, space)
    wide = BilinearSpace("symplectic", 4)
    with pytest.raises(ResourceLimitError, match="dim <= 6"):
        InvariantTensor.from_coordinates(1, wide, (1,))
    with pytest.raises(ResourceLimitError, match="dim <= 6"):
        recover(PairingVector(1, (1,)), 1, wide)


def _dense_fixed_by_generators(tensor, space):
    """Reference for spot_check_invariance on the dense view: every index,
    decoded with itertools.product, against its image under each generator."""
    coeffs = tensor.coeffs
    for mapping in _monomial_generators(space):
        for flat, index in enumerate(itertools.product(range(space.dim), repeat=tensor.order)):
            image, sign = 0, 1
            for a in index:
                b, s = mapping[a]
                image = image * space.dim + b
                sign *= s
            if coeffs[image] * sign != coeffs[flat]:
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(
    cell=st.sampled_from(
        [("orthogonal", k) for k in (1, 2, 3, 4)] + [("symplectic", k) for k in (1, 2)]
    ),
    n=st.integers(1, 2),
    data=st.data(),
)
def test_spot_check_matches_a_dense_reference(cell, n, data):
    # an invariant tensor, a random support, or an invariant tensor with a
    # few entries overwritten, so both answers occur
    space = BilinearSpace(*cell)
    size = double_factorial_odd(n)
    entries = {}
    if data.draw(st.booleans()):
        coords = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        entries.update(InvariantTensor.from_coordinates(n, space, coords).tensor.support)
    entries.update(
        data.draw(
            st.dictionaries(st.integers(0, space.dim ** (2 * n) - 1), st.integers(-3, 3), max_size=3)
        )
    )
    flats = tuple(sorted(f for f, v in entries.items() if v))
    tensor = Tensor(n, space.dim, flats, tuple(entries[f] for f in flats))
    assert spot_check_invariance(tensor, space) == _dense_fixed_by_generators(tensor, space)
