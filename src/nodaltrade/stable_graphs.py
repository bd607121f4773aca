"""Decorated graphs, edge contraction, and degeneration splittings.

A stable graph carries genus and curve-class decorations on vertices,
edges as vertex-index pairs (a loop repeats the index), and labeled legs,
optionally relative with contact multiplicities.  Splittings of a parent
graph into a pair of relative graphs are enumerated under the guidance of
a scenario-supplied class splitter and verified by re-gluing; each
enumerated splitting carries its multiplicity factor, stabilizer order,
and the bundle of parent-edge placements drawn as one case.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import InvalidInputError, ResourceLimitError
from .cohomology import kunneth_diagonal, kunneth_reorder_sign
from .frozen import Frozen
from .rationals import integer_argument, integer_sequence, sequence_argument

INTERIOR = "interior"
RELATIVE = "relative"
SHAPE_BOUND = 2  # most vertices a split option may put on one side


class Vertex(Frozen):
    __slots__ = ("genus", "cls")

    def __init__(self, genus, cls):
        integer_argument("genus", genus, 0)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "cls", integer_sequence("curve class", cls, "class entry"))


class Leg(Frozen):
    __slots__ = ("vertex", "marking", "kind", "multiplicity")

    def __init__(self, vertex, marking, kind=INTERIOR, multiplicity=None):
        if kind not in (INTERIOR, RELATIVE):
            raise InvalidInputError(f"unknown leg kind {kind!r}")
        integer_argument("leg vertex", vertex)
        if marking.__class__ not in (int, str):
            raise InvalidInputError(f"marking {marking!r} is not an integer or a string")
        if multiplicity is not None:
            integer_argument("multiplicity", multiplicity)
        if kind == RELATIVE and (multiplicity is None or multiplicity < 1):
            raise InvalidInputError("relative legs need a positive multiplicity")
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "marking", marking)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "multiplicity", multiplicity)


class StableGraph(Frozen):
    __slots__ = ("vertices", "edges", "legs")

    def __init__(self, vertices, edges, legs):
        vertices = sequence_argument("vertices", vertices)
        edges = sequence_argument("edges", edges)
        legs = sequence_argument("legs", legs)
        for v in vertices:
            if v.__class__ is not Vertex:
                raise InvalidInputError(f"vertex must be a Vertex, got {v!r}")
        nv = len(vertices)
        for edge in edges:
            if edge.__class__ is not tuple or len(edge) != 2:
                raise InvalidInputError(f"edge must be a pair of vertex indices, got {edge!r}")
            a, b = edge
            integer_argument("edge end", a)
            integer_argument("edge end", b)
            if not (0 <= a < nv and 0 <= b < nv):
                raise InvalidInputError(f"edge ({a},{b}) out of vertex range")
        for leg in legs:
            if leg.__class__ is not Leg:
                raise InvalidInputError(f"leg must be a Leg, got {leg!r}")
            if not 0 <= leg.vertex < nv:
                raise InvalidInputError(f"leg {leg.marking} attached out of range")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "legs", legs)

    def valence(self, v: int) -> int:
        ends = sum((1 if a == v else 0) + (1 if b == v else 0) for a, b in self.edges)
        return ends + sum(1 for leg in self.legs if leg.vertex == v)

    def is_stable(self) -> bool:
        for i, vert in enumerate(self.vertices):
            if all(c == 0 for c in vert.cls):
                if 2 * vert.genus - 2 + self.valence(i) <= 0:
                    return False
        return True

    def relative_legs(self) -> tuple[Leg, ...]:
        return tuple(l for l in self.legs if l.kind == RELATIVE)

    def interior_legs(self) -> tuple[Leg, ...]:
        return tuple(l for l in self.legs if l.kind == INTERIOR)

    def to_json(self):
        return {
            "vertices": [{"genus": v.genus, "class": list(v.cls)} for v in self.vertices],
            "edges": [[a, b] for a, b in self.edges],
            "legs": [
                {
                    "vertex": l.vertex,
                    "marking": l.marking,
                    "kind": l.kind,
                    **({"multiplicity": l.multiplicity} if l.multiplicity else {}),
                }
                for l in self.legs
            ],
        }


def graph_from_json(raw: dict) -> StableGraph:
    """Build a graph from its JSON form; any malformed entry raises
    InvalidInputError.  The constructors check the numbers and that each
    marking is an integer or a string; markings must be unique per leg kind."""
    try:
        vertices = tuple(Vertex(v["genus"], tuple(v["class"])) for v in raw["vertices"])
        edges = tuple((a, b) for a, b in raw.get("edges", []))
        legs = tuple(
            Leg(l["vertex"], l["marking"], l.get("kind", INTERIOR), l.get("multiplicity"))
            for l in raw.get("legs", [])
        )
        for i, l in enumerate(legs):
            if any((o.kind, o.marking) == (l.kind, l.marking) for o in legs[:i]):
                raise InvalidInputError(f"two {l.kind} legs share the marking {l.marking!r}")
    except InvalidInputError:
        raise
    except KeyError as exc:
        raise InvalidInputError(f"malformed graph: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed graph: {exc}") from exc
    return StableGraph(vertices, edges, legs)


def _class_sum(classes):
    classes = list(classes)
    if not classes:
        raise InvalidInputError("cannot sum an empty class list")
    width = len(classes[0])
    acc = [0] * width
    for c in classes:
        if len(c) != width:
            raise InvalidInputError("curve classes live in different lattices")
        for i, x in enumerate(c):
            acc[i] += x
    return tuple(acc)


def contract_edges(graph: StableGraph) -> StableGraph:
    """Contract every edge: one vertex per component, genus summed plus the
    component's first Betti number, classes summed, legs preserved."""
    return contract_marked_edges(graph, tuple(range(len(graph.edges))))


def contract_marked_edges(graph: StableGraph, marked: tuple[int, ...]) -> StableGraph:
    """Contract only the edges at the given indices, keeping the others.

    One vertex per component of the marked edges, genus summed plus the
    component's first Betti number, classes summed, legs preserved.  The
    re-gluing check marks only the new gluing edges, so the parent's own
    edges survive.
    """
    marked_set = set(marked)
    sub_edges = [graph.edges[i] for i in marked_set]
    parent = list(range(len(graph.vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in sub_edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for v in range(len(graph.vertices)):
        groups.setdefault(find(v), []).append(v)
    comps = sorted(groups.values(), key=min)
    index_of = {}
    new_vertices = []
    for ci, comp in enumerate(comps):
        comp_set = set(comp)
        inside = sum(1 for a, b in sub_edges if a in comp_set and b in comp_set)
        betti = inside - len(comp) + 1
        genus = sum(graph.vertices[v].genus for v in comp) + betti
        cls = _class_sum(graph.vertices[v].cls for v in comp)
        for v in comp:
            index_of[v] = ci
        new_vertices.append(Vertex(genus, cls))
    kept_edges = tuple(
        (index_of[a], index_of[b])
        for i, (a, b) in enumerate(graph.edges)
        if i not in marked_set
    )
    new_legs = tuple(l.replace(vertex=index_of[l.vertex]) for l in graph.legs)
    return StableGraph(tuple(new_vertices), kept_edges, new_legs)


def graph_isomorphic(g1: StableGraph, g2: StableGraph) -> bool:
    """Brute-force isomorphism of decorated graphs with labeled legs: some
    vertex bijection matches the decorations, the edges, and the legs as
    multisets of (marking, kind, multiplicity, image vertex)."""
    n = len(g1.vertices)
    if (n, len(g1.edges), len(g1.legs)) != (len(g2.vertices), len(g2.edges), len(g2.legs)):
        return False
    target_edges = sorted(tuple(sorted(e)) for e in g2.edges)
    target_legs = [(l.marking, l.kind, l.multiplicity, l.vertex) for l in g2.legs]
    for perm in itertools.permutations(range(n)):
        if any(g1.vertices[v] != g2.vertices[perm[v]] for v in range(n)):
            continue
        if sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g1.edges) != target_edges:
            continue
        unmatched = list(target_legs)
        try:  # each leg of g1 takes one equal leg of g2: the multisets agree
            for l in g1.legs:
                unmatched.remove((l.marking, l.kind, l.multiplicity, perm[l.vertex]))
        except ValueError:
            continue
        return True
    return False


# -- splitting enumeration ------------------------------------------------


class SideVertexSpec(Frozen):
    """One vertex of a splitting side: class plus its contact multiplicities."""

    __slots__ = ("cls", "contacts", "genus")

    def __init__(self, cls, contacts, genus=0):
        self._set(cls, contacts, genus)


class SplitOption(Frozen):
    """One admissible class decomposition from the scenario's splitter."""

    __slots__ = ("side1", "side2")

    def __init__(self, side1, side2):
        self._set(side1, side2)


class DegenerationScenario(Frozen):
    """Scenario data for enumerating splittings of a one-vertex parent.

    options(parent_class) yields the admissible class decompositions with
    per-vertex contacts; push1/push2 send side classes to the parent's
    lattice; legs are pre-assigned to sides (marking -> 1 or 2).
    """

    __slots__ = ("options", "push1", "push2", "leg_side")

    def __init__(self, options, push1, push2, leg_side):
        # options: parent class -> iterable of SplitOption;
        # push1: side-1 class -> parent-lattice class
        self._set(options, push1, push2, leg_side)


class Splitting(Frozen):
    """A splitting case: ordered pair of relative graphs plus its bundle.

    `variants` lists the concrete (gamma1, gamma2) pairs bundled into the
    case (they differ only in where the parent's edges sit on one side);
    gamma1/gamma2 are the first variant.  ell, m, aut follow the matched
    relative legs, identical across the bundle.  `shape` is what the
    enumerator chose: the sorted side-1 classes, the sorted contact
    multiplicities and the sorted (side, "loop" or "bridge") of each
    parent edge.
    """

    __slots__ = ("gamma1", "gamma2", "variants", "ell", "m", "aut", "signature", "shape")

    def __init__(self, gamma1, gamma2, variants, ell, m, aut, signature, shape):
        self._set(gamma1, gamma2, variants, ell, m, aut, signature, shape)


def _relabel_relative(graph: StableGraph, perm: dict) -> StableGraph:
    legs = tuple(
        l.replace(marking=perm[l.marking]) if l.kind == RELATIVE else l
        for l in graph.legs
    )
    return StableGraph(graph.vertices, graph.edges, legs)


def _relabelings(a, b, ell: int):
    """Yield each relabeling of the relative legs 1..ell that carries the
    splitting a = (gamma1, gamma2) onto b, up to graph isomorphism."""
    labels = range(1, ell + 1)
    for perm_tuple in itertools.permutations(labels):
        perm = dict(zip(labels, perm_tuple))
        if graph_isomorphic(_relabel_relative(a[0], perm), b[0]) and graph_isomorphic(
            _relabel_relative(a[1], perm), b[1]
        ):
            yield perm


def _push_graph(graph: StableGraph, push) -> StableGraph:
    vertices = tuple(Vertex(v.genus, tuple(push(v.cls))) for v in graph.vertices)
    return StableGraph(vertices, graph.edges, graph.legs)


def _reglue(gamma1: StableGraph, gamma2: StableGraph, scenario) -> StableGraph:
    """Glue matched relative legs into edges, then contract the new edges."""
    p1 = _push_graph(gamma1, scenario.push1)
    p2 = _push_graph(gamma2, scenario.push2)
    offset = len(p1.vertices)
    vertices = p1.vertices + p2.vertices
    edges = list(p1.edges) + [(a + offset, b + offset) for a, b in p2.edges]
    legs = []
    rel1 = {}
    rel2 = {}
    for l in p1.legs:
        if l.kind == RELATIVE:
            rel1[l.marking] = l.vertex
        else:
            legs.append(l)
    for l in p2.legs:
        if l.kind == RELATIVE:
            rel2[l.marking] = l.vertex + offset
        else:
            legs.append(l.replace(vertex=l.vertex + offset))
    if sorted(rel1) != sorted(rel2):
        raise InvalidInputError("relative legs of the two sides do not match up")
    new_edge_indices = []
    for label in sorted(rel1):
        new_edge_indices.append(len(edges))
        edges.append((rel1[label], rel2[label]))
    glued = StableGraph(tuple(vertices), tuple(edges), tuple(legs))
    return contract_marked_edges(glued, tuple(new_edge_indices))


def _side_graph(specs, side_markings, rel_assignment, extra_edges=()):
    """Build one side's graph: interior legs sit on the first vertex,
    relative legs follow the matching assignment, parent edges as given."""
    vertices = tuple(Vertex(s.genus, s.cls) for s in specs)
    legs = [Leg(vertex=0, marking=m) for m in side_markings]
    for label, (v, mult) in sorted(rel_assignment.items()):
        legs.append(Leg(vertex=v, marking=label, kind=RELATIVE, multiplicity=mult))
    return StableGraph(vertices, tuple(extra_edges), tuple(legs))


def _contact_slots(specs):
    """Flatten per-vertex contacts into (vertex, multiplicity) slots."""
    slots = []
    for v, spec in enumerate(specs):
        for mult in spec.contacts:
            slots.append((v, mult))
    return slots


def _edge_placements(n_vertices: int):
    """All ways one parent edge can sit on a side: loops and bridges."""
    placements = [("loop", (v,)) for v in range(n_vertices)]
    placements += [("bridge", pair) for pair in itertools.combinations(range(n_vertices), 2)]
    return placements


def enumerate_splittings(
    parent: StableGraph,
    scenario: DegenerationScenario,
) -> list[Splitting]:
    """All splitting cases of a one-vertex parent, verified by re-gluing.

    The scenario's splitter bounds the admissible class decompositions;
    for each, matched relative legs are enumerated up to relabeling, and
    each parent edge is placed on either side as a loop or a bridge.
    Placements that differ only in the choice of vertex within one side
    are bundled into a single case, mirroring how such cases are counted
    in one factor list.  Every variant must re-glue to the parent.
    """
    if len(parent.vertices) != 1:
        raise InvalidInputError("splitting enumeration expects a one-vertex parent")
    parent_class = parent.vertices[0].cls
    markings1 = sorted(l.marking for l in parent.legs if scenario.leg_side[l.marking] == 1)
    markings2 = sorted(l.marking for l in parent.legs if scenario.leg_side[l.marking] == 2)

    results: list[Splitting] = []
    for opt in scenario.options(parent_class):
        if len(opt.side1) > SHAPE_BOUND or len(opt.side2) > SHAPE_BOUND:
            raise ResourceLimitError(
                f"split option exceeds shape bound {SHAPE_BOUND}: {opt}"
            )
        slots1 = _contact_slots(opt.side1)
        slots2 = _contact_slots(opt.side2)
        contacts = tuple(sorted(m for _, m in slots1))
        if contacts != tuple(sorted(m for _, m in slots2)):
            raise InvalidInputError(
                f"contact multisets disagree between sides in option {opt}"
            )
        ell = len(slots1)
        classes = tuple(sorted(spec.cls for spec in opt.side1))

        matchings = _distinct_matchings(opt, slots1, slots2, markings1, markings2, ell)
        for rel1, rel2 in matchings:
            bundles = _placement_bundles(parent, opt, rel1, rel2, markings1, markings2, scenario)
            for edge_places, bundle in bundles.items():
                variants = tuple(bundle)
                g1, g2 = variants[0]
                aut = sum(1 for _ in _relabelings((g1, g2), (g1, g2), ell))
                results.append(
                    Splitting(
                        gamma1=g1,
                        gamma2=g2,
                        variants=variants,
                        ell=ell,
                        m=math.prod(contacts),
                        aut=aut,
                        signature=_signature(g1, g2, variants),
                        shape=(classes, contacts, tuple(sorted(edge_places))),
                    )
                )
    return results


def _distinct_matchings(opt, slots1, slots2, markings1, markings2, ell):
    """Mult-preserving bijections between contact slots, up to relabeling."""
    seen = []
    for perm in itertools.permutations(range(ell)):
        if any(slots1[i][1] != slots2[perm[i]][1] for i in range(ell)):
            continue
        rel1 = {i + 1: slots1[i] for i in range(ell)}
        rel2 = {i + 1: slots2[perm[i]] for i in range(ell)}
        g1 = _side_graph(opt.side1, markings1, rel1)
        g2 = _side_graph(opt.side2, markings2, rel2)
        if any(next(_relabelings((g1, g2), old, ell), None) is not None for old, _, _ in seen):
            continue
        seen.append(((g1, g2), rel1, rel2))
    return [(rel1, rel2) for _, rel1, rel2 in seen]


def _placement_bundles(parent, opt, rel1, rel2, markings1, markings2, scenario):
    """Valid parent-edge placements, bundled under their (side, kind) per
    parent edge.  A parent without edges has one, empty, placement."""
    choices = [(1, kind, where) for kind, where in _edge_placements(len(opt.side1))]
    choices += [(2, kind, where) for kind, where in _edge_placements(len(opt.side2))]
    bundles: dict[tuple, list] = {}
    for assignment in itertools.product(choices, repeat=len(parent.edges)):
        extra = {1: [], 2: []}
        for side, kind, where in assignment:
            extra[side].append((where[0], where[0]) if kind == "loop" else where)
        g1 = _side_graph(opt.side1, markings1, rel1, tuple(extra[1]))
        g2 = _side_graph(opt.side2, markings2, rel2, tuple(extra[2]))
        if not (g1.is_stable() and g2.is_stable()):
            continue
        reglued = _reglue(g1, g2, scenario)
        if not graph_isomorphic(reglued, parent):
            continue
        key = tuple((side, kind) for side, kind, _ in assignment)
        bundles.setdefault(key, []).append((g1, g2))
    return bundles


def _signature(g1, g2, variants):
    def side_sig(g):
        classes = "+".join(str(v.cls) for v in sorted(g.vertices, key=lambda v: v.cls))
        loops = sum(1 for a, b in g.edges if a == b)
        bridges = sum(1 for a, b in g.edges if a != b)
        return f"{classes}|loops={loops}|bridges={bridges}"

    mults = ",".join(
        str(l.multiplicity) for l in sorted(g1.relative_legs(), key=lambda l: l.marking)
    )
    return f"side1[{side_sig(g1)}] side2[{side_sig(g2)}] rel({mults}) x{len(variants)}"


def degeneration_rhs(splittings, rel_oracle, ring_d, leg_degrees):
    """Assemble the degeneration sum from splittings and an invariant oracle.

    Each splitting contributes m/|Aut| times the dual-basis sum over the
    double locus: for every tuple of basis indices, side 1 is queried with
    the basis classes and side 2 with their duals, and the products are
    summed over the bundled variants.  `leg_degrees` maps each interior
    marking to the degree of its class; the sign flips once per pair of odd
    classes that swap past each other when the splitting's sides take them.
    """
    if not isinstance(leg_degrees, Mapping):
        raise InvalidInputError(f"leg_degrees must map markings to degrees, got {leg_degrees!r}")
    pairs = kunneth_diagonal(ring_d)
    labels = [
        (ring_d.label_of(delta), ring_d.label_of(dual)) for delta, dual in pairs
    ]
    total = Fraction(0)
    for s in splittings:
        sides = sorted(
            (l.marking, side)
            for side, g in ((1, s.gamma1), (2, s.gamma2))
            for l in g.interior_legs()
        )
        for m, _ in sides:
            if m not in leg_degrees:
                raise InvalidInputError(f"leg_degrees has no degree for marking {m!r}")
        sign = kunneth_reorder_sign([leg_degrees[m] for m, _ in sides], [side for _, side in sides])
        contribution = Fraction(0)
        for g1, g2 in s.variants:
            for combo in itertools.product(range(len(pairs)), repeat=s.ell):
                side1_boundary = tuple(labels[j][0] for j in combo)
                side2_boundary = tuple(labels[j][1] for j in combo)
                v1 = rel_oracle(1, g1, side1_boundary)
                if not v1:
                    continue
                v2 = rel_oracle(2, g2, side2_boundary)
                contribution += sign * v1 * v2
        total += Fraction(s.m, s.aut) * contribution
    return total
