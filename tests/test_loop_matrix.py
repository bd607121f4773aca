import random
from fractions import Fraction

import pytest

from nodaltrade.errors import (
    EigenvalueCollisionError,
    InvalidInputError,
    SubspaceError,
)
from nodaltrade.loop_matrix import (
    PairingVector,
    admissible_partitions,
    build_loop_matrix,
    decompose_isotypic,
    eigenspace_decomposition,
    eigenvalues_at,
    find_generic_specialization,
    flavor_specialization,
    invariant_subspace,
    isotypic_component,
    project_invariant,
    restricted_inverse_apply,
)
from nodaltrade.pairings import double_factorial_odd
from nodaltrade.partitions import Partition, content_product, even_row_partitions, hook_dimension


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


def test_pairing_vector_validation():
    with pytest.raises(InvalidInputError):
        PairingVector(2, (1, 2))
    v = PairingVector(2, (1, 2, 3))
    assert (v + v).coords == (2, 4, 6)
    assert v.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 1, Fraction(3, 2))


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
    assert len(invariant_subspace(2, "orthogonal", 1)) == 1
    assert len(invariant_subspace(2, "symplectic", 1)) == 2
    for n in (1, 2, 3):
        assert len(invariant_subspace(n, "orthogonal", 2 * n)) == double_factorial_odd(n)


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
