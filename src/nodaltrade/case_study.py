"""The worked example: a one-node plane cubic through 8 points, two ways.

A genus-0 plane cubic with one imposed node and 8 point insertions is
evaluated first by splitting the node (divisor reduction plus the rational
cubic count), then by degenerating the plane to the union of a plane and
the Hirzebruch surface F1 along a line and assembling the eight splitting
contributions.  Both routes must give the same rational number, with every
divisor factor recomputed from intersection data and every quoted count
tracked with provenance.  The elliptic demo exercises the same trade
mechanism in the smallest odd-cohomology model.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import (
    InsertionList,
    load_model,
    make_insertions,
    middle_diagonal_divisor_factor,
    split_node,
)
from .errors import (
    InvalidInputError,
    MissingDataError,
    UnsupportedCaseError,
    VerificationError,
)
from .frozen import Frozen
from .loop_matrix import PairingVector
from .node_trade import recover
from .plane_counts import (
    OracleTable,
    kontsevich_nd,
    lookup_with_provenance,
    pencil_reducible_count,
)
from .rationals import integer_argument, rational_argument
from .stable_graphs import (
    DegenerationScenario,
    Leg,
    SideVertexSpec,
    SplitOption,
    Splitting,
    StableGraph,
    Vertex,
    degeneration_rhs,
    enumerate_splittings,
)
from .tensor_oracle import BilinearSpace

_CUBIC = (3,)
_CONIC = (2,)
_LINE = (1,)
_D03F = (1, 3)
_D02F = (1, 2)
_FIBER = (0, 1)

_SURFACES = {1: "f1", 2: "p2"}  # the side of the double locus -> its surface model

# The eight splittings of the worked example, keyed by the shape each
# splitting records: the sorted side-1 classes, the sorted contact
# multiplicities, and where the parent's edge went: (side, "loop" or "bridge").
_CASES = {
    ((_D03F,), (1, 1), ((2, "bridge"),)): "i",
    ((_FIBER, _D02F), (1, 1), ((1, "bridge"),)): "ii",
    ((_D03F,), (2,), ((2, "loop"),)): "iii",
    ((_D03F,), (2,), ((1, "loop"),)): "iv",
    ((_D03F,), (1, 1), ((2, "loop"),)): "v",
    ((_D03F,), (1, 1), ((1, "loop"),)): "vi",
    ((_FIBER, _D02F), (1, 1), ((1, "loop"),)): "vii",
    ((_FIBER, _D02F), (1, 1), ((2, "loop"),)): "viii",
}
CASE_IDS = tuple(_CASES.values())
_LEG_DEGREES = dict.fromkeys(range(1, 9), 4)  # the eight point insertions: real degree 4


# -- scenario ---------------------------------------------------------------


def parent_graph(num_points: int = 8) -> StableGraph:
    """One genus-0 vertex of degree 3 with a loop and labeled point legs."""
    integer_argument("num_points", num_points, 0)
    return StableGraph(
        vertices=(Vertex(0, _CUBIC),),
        edges=((0, 0),),
        legs=tuple(Leg(0, m) for m in range(1, num_points + 1)),
    )


def _cubic_options(parent_class):
    if parent_class != _CUBIC:
        raise InvalidInputError(f"the bundled splitter only covers class {_CUBIC}")
    return [
        # a conic meeting the double locus twice transversally, against the
        # full F1 class: rejected downstream because regluing creates genus
        SplitOption(
            side1=(SideVertexSpec(_D03F, (1, 1)),),
            side2=(SideVertexSpec(_CONIC, (1, 1)),),
        ),
        # tangency: one contact of multiplicity two on each side
        SplitOption(
            side1=(SideVertexSpec(_D03F, (2,)),),
            side2=(SideVertexSpec(_CONIC, (2,)),),
        ),
        # the conic breaks into two lines
        SplitOption(
            side1=(SideVertexSpec(_D03F, (1, 1)),),
            side2=(SideVertexSpec(_LINE, (1,)), SideVertexSpec(_LINE, (1,))),
        ),
        # the F1 curve breaks into a section-part and a fiber
        SplitOption(
            side1=(SideVertexSpec(_D02F, (1,)), SideVertexSpec(_FIBER, (1,))),
            side2=(SideVertexSpec(_CONIC, (1, 1)),),
        ),
    ]


def cubic_scenario() -> DegenerationScenario:
    """Plane degenerating to plane union F1 along a line; points split 4/4."""
    return DegenerationScenario(
        options=_cubic_options,
        # F1 classes push forward by their fiber degree: a*D0 + b*F -> a
        push1=lambda c: (c[0],),
        push2=lambda c: c,
        leg_side={m: (1 if m <= 4 else 2) for m in range(1, 9)},
    )


def enumerate_cases() -> dict[str, Splitting]:
    """The eight degeneration splittings, keyed by their case id."""
    cases: dict[str, Splitting] = {}
    for s in enumerate_splittings(parent_graph(), cubic_scenario()):
        cid = _CASES.get(s.shape)
        if cid is None:
            raise VerificationError(f"unrecognized splitting shape: {s.signature}")
        if cid in cases:
            raise VerificationError(f"two splittings classify as case {cid}")
        cases[cid] = s
    missing = [cid for cid in CASE_IDS if cid not in cases]
    if missing:
        raise VerificationError(f"splitting enumeration missed cases {missing}")
    return {cid: cases[cid] for cid in CASE_IDS}


# -- relative-invariant oracle ---------------------------------------------


def _count_key(side: int, classes, bridges: int, contacts, points: int) -> str:
    """The text that keys a base count, and that the report records: the
    surface, the sorted vertex classes, the point count, the sorted
    (class, multiplicity, boundary) contacts and the number of bridges."""
    cls = "+".join(str(c) for c in sorted(classes))
    contact_text = ";".join(f"{c}:m{m}:{b}" for c, m, b in sorted(contacts))
    joined = f"|joined={bridges}" if bridges else ""
    return f"{_SURFACES[side]}|{cls}|pts={points}|contacts[{contact_text}]{joined}"


def _base_count_table(table: OracleTable | None) -> dict:
    """Base counts for the bundled scenario, keyed by `_count_key`.

    Nonzero entries come from the bundled table or the pencil counts; the
    zero entries record boundary patterns whose point constraints leave a
    positive-dimensional family or overdetermine it, so the corresponding
    relative invariant vanishes.
    """
    entries: dict = {}

    def put(side, classes, bridges, contacts, value, provenance):
        # every side of the bundled scenario carries four of the eight points
        entries[_count_key(side, classes, bridges, contacts, 4)] = (Fraction(value), provenance)

    zero_note = (
        "boundary pattern leaves a contact unconstrained or pins too many "
        "points; the count vanishes by dimension"
    )

    # full F1 class, two transverse contacts
    v, p = lookup_with_provenance("f1.D0+3F.6pts", table)
    put(1, [_D03F], 0, [(_D03F, 1, "pt"), (_D03F, 1, "pt")], v, p)
    for b1, b2 in (("1", "1"), ("1", "pt")):
        put(1, [_D03F], 0, [(_D03F, 1, b1), (_D03F, 1, b2)], 0, zero_note)

    # full F1 class, one tangency contact
    v, p = lookup_with_provenance("f1.D0+3F.4pts.tangentD0.fixedpt", table)
    put(1, [_D03F], 0, [(_D03F, 2, "pt")], v, p)
    put(1, [_D03F], 0, [(_D03F, 2, "1")], 0, zero_note)

    # reducible F1 side, with or without the connecting node: the boundary
    # classes at the section-part and at the fiber
    vi, pi = lookup_with_provenance("f1.reducible.fiber_through_interior", table)
    vb, pb = lookup_with_provenance("f1.reducible.fiber_through_boundary", table)
    reducible = (("pt", "1", vi, pi), ("1", "pt", vb, pb),
                 ("1", "1", 0, zero_note), ("pt", "pt", 0, zero_note))
    for bridges in (0, 1):
        for b_section, b_fiber, value, provenance in reducible:
            contacts = [(_D02F, 1, b_section), (_FIBER, 1, b_fiber)]
            put(1, [_FIBER, _D02F], bridges, contacts, value, provenance)

    # plane side: pairs of lines, with or without the connecting node
    pairs = pencil_reducible_count(3, 4)
    pair_note = (
        "reducible members of the conic pencil through 4 points, via the "
        "Euler characteristic of the blown-up pencil surface"
    )
    for bridges in (0, 1):
        put(2, [_LINE, _LINE], bridges, [(_LINE, 1, "1"), (_LINE, 1, "1")], pairs, pair_note)

    # plane side: a conic with one tangency contact
    v, p = lookup_with_provenance("p2.conic.4pts.tangentL", table)
    put(2, [_CONIC], 0, [(_CONIC, 2, "1")], v, p)

    # plane side: a conic with two transverse contacts, one matched point
    v, p = lookup_with_provenance("p2.conic.5pts", table)
    put(2, [_CONIC], 0, [(_CONIC, 1, "1"), (_CONIC, 1, "pt")], v, p)

    # sanity: the two reducible-fiber entries refine the pencil count
    if vi + vb != pencil_reducible_count(4, 5):
        raise VerificationError(
            "reducible-member refinement does not sum to the pencil count",
            lhs=vi + vb,
            rhs=pencil_reducible_count(4, 5),
        )
    return entries


def _make_rel_oracle(table: OracleTable | None, recorder: list):
    rings = {side: load_model(name) for side, name in _SURFACES.items()}
    base = _base_count_table(table)

    def oracle(side: int, graph: StableGraph, boundary) -> Fraction:
        loop_vertices = [a for a, b in graph.edges if a == b]
        if len(loop_vertices) > 1:
            raise UnsupportedCaseError("at most one imposed node per side is bundled")
        ring = rings[side]
        factor = Fraction(1)
        notes = []
        for v in loop_vertices:
            beta = graph.vertices[v].cls
            div = middle_diagonal_divisor_factor(ring, beta)
            factor *= Fraction(1, 2) * div
            notes.append(
                {
                    "loop_vertex_class": ring.curve_label(beta),
                    "branch_factor": "1/2",
                    "divisor_factor": div,
                    "correction_term": (
                        "0: the contact points are pinned by the matching, so "
                        "the split node cannot slide into the double locus"
                    ),
                }
            )
        rel = sorted(graph.relative_legs(), key=lambda l: l.marking)
        if len(rel) != len(boundary):
            raise InvalidInputError("boundary tuple does not match the relative legs")
        key = _count_key(
            side,
            [v.cls for v in graph.vertices],
            len(graph.edges) - len(loop_vertices),
            [(graph.vertices[l.vertex].cls, l.multiplicity, b) for l, b in zip(rel, boundary)],
            len(graph.interior_legs()),
        )
        entry = base.get(key)
        if entry is None:
            raise MissingDataError(key)
        value, provenance = entry
        recorder.append(
            {
                "side": side,
                "key": key,
                "base_count": value,
                "provenance": provenance,
                "node_split": notes,
            }
        )
        return factor * value

    return oracle


# -- the two routes ---------------------------------------------------------


def evaluate_plane_invariant(term: InsertionList, table: OracleTable | None = None,
                             recorder: list | None = None) -> Fraction:
    """Genus-0 plane invariant: divisor-reduce line classes, then count.

    Fundamental-class insertions force the tabled vanishing (an extra
    point constraint beyond the finite count); after reduction the value
    is the rational-curve count when the point constraints match the
    moduli dimension and zero otherwise.
    """
    from .cohomology import divisor_reduce

    ring = load_model("p2")
    if term.genus != 0 or term.nodes != 0:
        raise InvalidInputError("the plane evaluator covers genus-0 nodeless terms")
    if recorder is None:
        recorder = []
    degrees = [ring.degree_of(i.coords) for i in term.insertions]
    if any(d == 0 for d in degrees):
        value, provenance = lookup_with_provenance("p2.cubic.9pts", table)
        recorder.append({"key": "p2.cubic.9pts", "value": value, "provenance": provenance})
        return value
    factor = Fraction(1)
    h, p = ring.class_coords("H"), ring.class_coords("p")
    while any(i.coords == h for i in term.insertions):
        f, term = divisor_reduce(term, "H", ring)
        factor *= f
    d = term.curve_class[0]
    points = len(term.insertions)
    if any(i.coords != p for i in term.insertions):
        raise UnsupportedCaseError("leftover insertions are not point classes")
    if points != 3 * d - 1:
        recorder.append(
            {
                "key": f"p2.deg{d}.{points}pts",
                "value": Fraction(0),
                "provenance": "point count does not match the moduli dimension",
            }
        )
        return Fraction(0)
    count = kontsevich_nd(d)
    recorder.append(
        {
            "key": f"p2.deg{d}.{points}pts",
            "value": Fraction(count),
            "provenance": "genus-0 recursion for rational plane curves",
        }
    )
    return factor * count


def compute_lhs_with_breakdown(num_points: int = 8, table: OracleTable | None = None):
    """Split the imposed node directly on the plane and evaluate each term."""
    integer_argument("num_points", num_points, 0)
    ring = load_model("p2")
    parent = InsertionList(
        genus=1,
        curve_class=_CUBIC,
        insertions=make_insertions(ring, ["p"] * num_points),
        nodes=1,
    )
    recorder: list = []
    total = Fraction(0)
    branch_factor = Fraction(1, 2)  # the two branches of the split node swap
    for coeff, child in split_node(parent, ring):
        total += coeff * evaluate_plane_invariant(child, table, recorder)
    value = branch_factor * total
    return value, {"branch_factor": branch_factor, "terms": recorder}


def compute_lhs(num_points: int = 8, table: OracleTable | None = None) -> Fraction:
    return compute_lhs_with_breakdown(num_points, table)[0]


def _contribution(case_id: str, s: Splitting, oracle, recorder: list):
    """Assemble one splitting; its breakdown takes the oracle calls it adds."""
    start = len(recorder)
    value = degeneration_rhs([s], oracle, load_model("p1"), _LEG_DEGREES)
    breakdown = {
        "case": case_id,
        "signature": s.signature,
        "multiplicity": s.m,
        "aut": s.aut,
        "matched_legs": s.ell,
        "variants": len(s.variants),
        "oracle_calls": recorder[start:],
        "value": value,
    }
    return value, breakdown


def compute_contribution(case_id: str, table: OracleTable | None = None):
    """One degeneration contribution with its factor breakdown."""
    if case_id not in CASE_IDS:
        raise InvalidInputError(f"case id must be one of {CASE_IDS}, got {case_id!r}")
    recorder: list = []
    oracle = _make_rel_oracle(table, recorder)
    return _contribution(case_id, enumerate_cases()[case_id], oracle, recorder)


class CaseReport(Frozen, derived=("rhs_total", "agreement")):
    """Both routes' values; the total and the agreement derive from the contributions."""

    __slots__ = ("lhs", "contributions", "rhs_total", "agreement", "breakdowns", "lhs_breakdown")

    def __init__(self, lhs, contributions, breakdowns=None, lhs_breakdown=None):
        rhs_total = sum(contributions.values(), Fraction(0))
        self._set(
            lhs,
            contributions,
            rhs_total,
            rhs_total == lhs,
            {} if breakdowns is None else breakdowns,
            {} if lhs_breakdown is None else lhs_breakdown,
        )


def compute_rhs_total(table: OracleTable | None = None) -> CaseReport:
    """Assemble all eight contributions and compare against the direct route."""
    lhs, lhs_breakdown = compute_lhs_with_breakdown(table=table)
    recorder: list = []
    oracle = _make_rel_oracle(table, recorder)
    contributions = {}
    breakdowns = {}
    for cid, s in enumerate_cases().items():
        contributions[cid], breakdowns[cid] = _contribution(cid, s, oracle, recorder)
    return CaseReport(lhs, contributions, breakdowns, lhs_breakdown)


# -- elliptic warm-up --------------------------------------------------------


def elliptic_demo(u1, v1, u2, v2) -> dict:
    """Trade one node for two odd insertions on the elliptic model.

    Reports (a) the reduction of the four bilinear constants to the single
    skew invariant via the deformation relations, and (b) the coefficient
    with which that invariant enters the split of a nodal invariant,
    recovered both by direct expansion and through the trade solver.
    """
    u1, v1, u2, v2 = map(rational_argument, ("u1", "v1", "u2", "v2"), (u1, v1, u2, v2))
    ring = load_model("elliptic")
    a = ring.class_coords("a")
    b = ring.class_coords("b")

    pairing_coefficient = ring.pair(
        tuple(u1 * ai + v1 * bi for ai, bi in zip(a, b)),
        tuple(u2 * ai + v2 * bi for ai, bi in zip(a, b)),
    )

    parent = InsertionList(genus=1, curve_class=(1,), insertions=(), nodes=1)
    nodal_coefficient = Fraction(0)
    for coeff, child in split_node(parent, ring):
        x, y = child.insertions[-2].coords, child.insertions[-1].coords
        if ring.degree_of(x) == 1 and ring.degree_of(y) == 1:
            nodal_coefficient += coeff * ring.pair(x, y)

    # trade route: the diagonal's primitive part is minus the decreasing-slot
    # diagonal multivector, so the solver runs with sign -1
    space = BilinearSpace("symplectic", 1)
    lam = Fraction(5, 7)
    nodal_primitive_value = nodal_coefficient * lam
    recovered = recover(
        PairingVector(1, (nodal_primitive_value,)), 1, space, sign=-1
    ).coordinates.coords[0]

    return {
        "relations": {"<a,a>": 0, "<b,b>": 0, "<b,a>": "-<a,b>"},
        "pairing_coefficient": pairing_coefficient,
        "invariant": "<a,b>",
        "nodal_coefficient": nodal_coefficient,
        "trade_recovers_invariant": recovered == lam,
    }
