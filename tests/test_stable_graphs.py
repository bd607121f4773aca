from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodaltrade.cohomology import load_model
from nodaltrade.errors import InvalidInputError, ResourceLimitError
from nodaltrade.stable_graphs import (
    DegenerationScenario,
    RELATIVE,
    Leg,
    SideVertexSpec,
    SplitOption,
    StableGraph,
    Vertex,
    contract_edges,
    degeneration_rhs,
    enumerate_splittings,
    graph_from_json,
    graph_isomorphic,
)


def one_vertex(genus, cls, legs=(), edges=()):
    return StableGraph(
        vertices=(Vertex(genus, cls),),
        edges=tuple(edges),
        legs=tuple(Leg(0, m) for m in legs),
    )


def test_contract_loop_adds_genus():
    g = one_vertex(0, (1,), edges=[(0, 0)])
    c = contract_edges(g)
    assert len(c.vertices) == 1
    assert c.vertices[0].genus == 1
    assert c.edges == ()


def test_contract_edgeless_unchanged():
    g = one_vertex(2, (5,), legs=[1, 2])
    c = contract_edges(g)
    assert c.vertices == g.vertices
    assert c.legs == g.legs


def test_contract_tree_sums_classes():
    g = StableGraph(
        vertices=(Vertex(0, (1, 0)), Vertex(0, (0, 2))),
        edges=((0, 1),),
        legs=(Leg(0, "x"), Leg(1, "y")),
    )
    c = contract_edges(g)
    assert len(c.vertices) == 1
    assert c.vertices[0].genus == 0
    assert c.vertices[0].cls == (1, 2)
    assert {l.marking for l in c.legs} == {"x", "y"}


def test_contract_idempotent_and_leg_preserving():
    g = StableGraph(
        vertices=(Vertex(1, (1,)), Vertex(0, (2,)), Vertex(0, (1,))),
        edges=((0, 1), (1, 2), (0, 2), (2, 2)),
        legs=(Leg(0, 1), Leg(2, 2)),
    )
    c = contract_edges(g)
    # two independent cycles (triangle plus a loop) raise the genus by 2
    assert c.vertices[0].genus == 1 + 2
    assert contract_edges(c) == c
    assert sorted(l.marking for l in c.legs) == [1, 2]


def test_stability():
    unstable = one_vertex(0, (0,), legs=[1, 2])
    assert not unstable.is_stable()
    stable = one_vertex(0, (0,), legs=[1, 2, 3])
    assert stable.is_stable()
    nonzero_class = one_vertex(0, (1,))
    assert nonzero_class.is_stable()


def test_isomorphism_respects_markings():
    g1 = StableGraph(
        vertices=(Vertex(0, (1,)), Vertex(0, (1,))),
        edges=((0, 1),),
        legs=(Leg(0, 1), Leg(1, 2)),
    )
    g2 = StableGraph(
        vertices=(Vertex(0, (1,)), Vertex(0, (1,))),
        edges=((0, 1),),
        legs=(Leg(1, 1), Leg(0, 2)),
    )
    assert graph_isomorphic(g1, g2)  # swap the two vertices
    g3 = StableGraph(
        vertices=(Vertex(0, (1,)), Vertex(0, (2,))),
        edges=((0, 1),),
        legs=(Leg(0, 1), Leg(1, 2)),
    )
    g4 = StableGraph(
        vertices=(Vertex(0, (1,)), Vertex(0, (2,))),
        edges=((0, 1),),
        legs=(Leg(1, 1), Leg(0, 2)),
    )
    assert not graph_isomorphic(g3, g4)  # classes pin the vertices


def test_isomorphism_matches_repeated_legs_as_a_multiset():
    # two copies of one leg on vertex 0 cannot map onto one copy on each
    # vertex, whichever graph is asked first
    v = Vertex(0, (1,))
    g1 = StableGraph((v, v), (), (Leg(0, 1), Leg(0, 1)))
    g2 = StableGraph((v, v), (), (Leg(0, 1), Leg(1, 1)))
    assert not graph_isomorphic(g1, g2)
    assert not graph_isomorphic(g2, g1)


@st.composite
def decorated_graphs(draw):
    """Graphs with at most 3 vertices, small decorations and unique markings."""
    nv = draw(st.integers(1, 3))
    vertex = st.integers(0, nv - 1)
    vertices = tuple(
        Vertex(draw(st.integers(0, 1)), (draw(st.integers(0, 2)),)) for _ in range(nv)
    )
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=3)))
    legs = tuple(
        Leg(draw(vertex), m, RELATIVE, draw(st.integers(1, 2)))
        if draw(st.booleans()) else Leg(draw(vertex), m)
        for m in draw(st.lists(st.integers(1, 5), unique=True, max_size=4))
    )
    return StableGraph(vertices, edges, legs)


def renumbered(g, perm):
    """g with vertex v renamed perm[v], and its edges and legs reordered."""
    vertices = [None] * len(g.vertices)
    for v, vert in enumerate(g.vertices):
        vertices[perm[v]] = vert
    edges = tuple((perm[b], perm[a]) for a, b in reversed(g.edges))
    legs = tuple(Leg(perm[l.vertex], l.marking, l.kind, l.multiplicity) for l in reversed(g.legs))
    return StableGraph(tuple(vertices), edges, legs)


@settings(max_examples=150, deadline=None)
@given(st.data(), decorated_graphs(), decorated_graphs())
def test_isomorphism_properties(data, g, other):
    perm = data.draw(st.permutations(range(len(g.vertices))))
    h = renumbered(g, perm)
    assert graph_isomorphic(g, h) and graph_isomorphic(h, g)
    assert graph_isomorphic(g, other) == graph_isomorphic(other, g)
    assume(g.legs)
    i = data.draw(st.integers(0, len(g.legs) - 1))
    leg = g.legs[i]
    elsewhere = [w for w, vert in enumerate(g.vertices) if vert.cls != g.vertices[leg.vertex].cls]
    assume(elsewhere)
    moved = list(g.legs)
    moved[i] = Leg(data.draw(st.sampled_from(elsewhere)), leg.marking, leg.kind, leg.multiplicity)
    broken = StableGraph(g.vertices, g.edges, tuple(moved))
    assert not graph_isomorphic(g, broken) and not graph_isomorphic(broken, g)


def test_json_round_trip():
    g = StableGraph(
        vertices=(Vertex(0, (1, 2)),),
        edges=((0, 0),),
        legs=(Leg(0, 1), Leg(0, "r1", "relative", 2)),
    )
    assert graph_from_json(g.to_json()) == g


def split_once(side1, side2, leg_side=None):
    """A scenario with one split option whose classes push forward unchanged."""
    return DegenerationScenario(
        options=lambda cls: [SplitOption(side1=side1, side2=side2)],
        push1=lambda c: c,
        push2=lambda c: c,
        leg_side=leg_side or {},
    )


LINE = (SideVertexSpec((1,), (1,)),)  # a class-(1,) vertex with one transverse contact
TWICE = (SideVertexSpec((1,), (1, 1)),)  # a class-(1,) vertex with two

# every toy (parent, scenario) that enumerates, by name
TOY_SPLITS = {
    # one edgeless vertex of class (2,) splitting into (1,) + (1,)
    "toy": (one_vertex(0, (2,), legs=[1, 2, 3]), split_once(LINE, LINE, {1: 1, 2: 1, 3: 2})),
    "toy-swapped": (one_vertex(0, (2,), legs=[1, 2, 3]), split_once(LINE, LINE, {1: 2, 2: 1, 3: 1})),
    "tangent-toy": (
        one_vertex(0, (2,), legs=[1, 2]),
        split_once((SideVertexSpec((1,), (2,)),), (SideVertexSpec((1,), (2,)),), {1: 1, 2: 2}),
    ),
    # a genus-1 edgeless parent splitting into two vertices joined twice
    "double-contact": (StableGraph((Vertex(1, (2,)),), (), ()), split_once(TWICE, TWICE)),
    "mixed-contact": (
        StableGraph((Vertex(1, (4,)),), (), ()),
        split_once((SideVertexSpec((1,), (1, 2)),), (SideVertexSpec((3,), (2, 1)),)),
    ),
}


def test_edgeless_parent_single_splitting():
    result = enumerate_splittings(*TOY_SPLITS["toy"])
    assert len(result) == 1
    s = result[0]
    assert s.ell == 1
    assert s.m == 1
    assert s.aut == 1
    assert len(s.variants) == 1
    # re-glued check happened inside; the sides carry the assigned legs
    assert {l.marking for l in s.gamma1.interior_legs()} == {1, 2}
    assert {l.marking for l in s.gamma2.interior_legs()} == {3}


def test_multiplicity_factor_from_contacts():
    (s,) = enumerate_splittings(*TOY_SPLITS["tangent-toy"])
    assert s.m == 2 and s.ell == 1 and s.aut == 1


def test_shape_bound_enforced():
    point = SideVertexSpec((1,), ())
    scenario = split_once((point, point, point), (point,))
    with pytest.raises(ResourceLimitError):
        enumerate_splittings(one_vertex(0, (4,)), scenario)


def test_contact_mismatch_rejected():
    scenario = split_once((SideVertexSpec((1,), (2,)),), (SideVertexSpec((1,), (1,)),))
    with pytest.raises(InvalidInputError):
        enumerate_splittings(one_vertex(0, (2,)), scenario)


def test_symmetric_double_contact_has_stabilizer_two():
    # swapping the matched legs fixes the splitting, so aut = 2
    (s,) = enumerate_splittings(*TOY_SPLITS["double-contact"])
    assert s.ell == 2
    assert s.m == 1
    assert s.aut == 2
    # aut divides ell!
    assert (2 if s.ell == 2 else 1) % s.aut == 0


def test_aut_one_when_contact_triples_distinct():
    # distinct multiplicities pin the matching completely
    (s,) = enumerate_splittings(*TOY_SPLITS["mixed-contact"])
    assert s.ell == 2 and s.m == 2 and s.aut == 1


def shape_from_side_graphs(s):
    """The shape read back off the side graphs: the side-1 vertex classes, the
    side-1 contact multiplicities and each edge's (side, "loop" or "bridge")."""
    return (
        tuple(sorted(v.cls for v in s.gamma1.vertices)),
        tuple(sorted(l.multiplicity for l in s.gamma1.relative_legs())),
        tuple(sorted(
            (side, "loop" if a == b else "bridge")
            for side, g in ((1, s.gamma1), (2, s.gamma2))
            for a, b in g.edges
        )),
    )


@pytest.mark.parametrize("name", ["p2-f1-cubic", *TOY_SPLITS])
def test_recorded_shape_matches_the_side_graphs(name):
    from nodaltrade.case_study import cubic_scenario, parent_graph

    parent, scenario = (
        (parent_graph(), cubic_scenario()) if name == "p2-f1-cubic" else TOY_SPLITS[name]
    )
    splittings = enumerate_splittings(parent, scenario)
    assert splittings
    for s in splittings:
        assert s.shape == shape_from_side_graphs(s)
        # every variant of the bundle has the same shape
        for g1, g2 in s.variants:
            assert shape_from_side_graphs(s.replace(gamma1=g1, gamma2=g2)) == s.shape


def unit_oracle(side, graph, boundary):
    return Fraction(1)


def test_degeneration_rhs_divides_by_stabilizer():
    splittings = enumerate_splittings(*TOY_SPLITS["double-contact"])
    point = load_model("point")
    total = degeneration_rhs(splittings, lambda *a: Fraction(6), point, {})
    # one splitting, m=1, aut=2, single dual pair: 6 * 6 / 2
    assert total == 18


def test_degeneration_rhs_trivial_cases():
    point = load_model("point")
    assert degeneration_rhs([], unit_oracle, point, {}) == 0
    (s,) = enumerate_splittings(*TOY_SPLITS["toy"])
    assert degeneration_rhs([s], unit_oracle, point, {1: 0, 2: 0, 3: 0}) == 1


def test_degeneration_rhs_kunneth_sum_over_p1():
    # over the line model the matched contact sums two dual pairs
    p1 = load_model("p1")
    (s,) = enumerate_splittings(*TOY_SPLITS["toy"])
    calls = []

    def oracle(side, graph, boundary):
        calls.append((side, boundary))
        return Fraction(2) if side == 1 else Fraction(3)

    total = degeneration_rhs([s], oracle, p1, {1: 0, 2: 0, 3: 0})
    # two Kunneth terms, each contributing 2 * 3
    assert total == 12
    assert ((1, ("1",)) in calls) and ((1, ("pt",)) in calls)
    assert ((2, ("pt",)) in calls) and ((2, ("1",)) in calls)


def test_degeneration_rhs_sign_from_odd_legs():
    point = load_model("point")
    # legs 1 and 3 odd, on sides 1 and 2: no swap needed, sign +1
    (s,) = enumerate_splittings(*TOY_SPLITS["toy"])
    assert degeneration_rhs([s], unit_oracle, point, {1: 1, 2: 2, 3: 1}) == 1
    # leg 1 sits on side 2 and must move past the odd leg 2 on side 1: sign -1
    (s,) = enumerate_splittings(*TOY_SPLITS["toy-swapped"])
    assert {l.marking for l in s.gamma2.interior_legs()} == {1}
    assert degeneration_rhs([s], unit_oracle, point, {1: 1, 2: 1, 3: 2}) == -1
    # the sides are the splitting's own: the same degrees on the unswapped toy read +1
    (s,) = enumerate_splittings(*TOY_SPLITS["toy"])
    assert degeneration_rhs([s], unit_oracle, point, {1: 1, 2: 1, 3: 2}) == 1


def test_degeneration_rhs_refuses_a_marking_without_a_degree():
    point = load_model("point")
    (s,) = enumerate_splittings(*TOY_SPLITS["toy"])
    with pytest.raises(InvalidInputError, match="^leg_degrees has no degree for marking 3$"):
        degeneration_rhs([s], unit_oracle, point, {1: 1, 2: 1})
    with pytest.raises(InvalidInputError, match="^leg_degrees must map markings to degrees"):
        degeneration_rhs([s], unit_oracle, point, (1, 1, 2))
