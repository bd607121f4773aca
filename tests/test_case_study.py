from fractions import Fraction

import pytest

from nodaltrade.case_study import (
    _SURFACES,
    CASE_IDS,
    _base_count_table,
    _count_key,
    compute_contribution,
    compute_lhs,
    compute_lhs_with_breakdown,
    compute_rhs_total,
    cubic_scenario,
    elliptic_demo,
    enumerate_cases,
    evaluate_plane_invariant,
    parent_graph,
)
from nodaltrade.cohomology import (
    InsertionList,
    load_model,
    make_insertions,
    middle_diagonal_divisor_factor,
)
from nodaltrade.errors import InvalidInputError, MissingDataError, UnsupportedCaseError
from nodaltrade.plane_counts import bundled_table
from nodaltrade.stable_graphs import (
    RELATIVE,
    Leg,
    StableGraph,
    Vertex,
    enumerate_splittings,
    graph_isomorphic,
)

EXPECTED = {
    "i": Fraction(3),
    "ii": Fraction(5),
    "iii": Fraction(8),
    "iv": Fraction(10),
    "v": Fraction(3),
    "vi": Fraction(15, 2),
    "vii": Fraction(15, 2),
    "viii": Fraction(10),
}


def test_exactly_eight_cases_with_unit_stabilizers():
    cases = enumerate_cases()
    assert list(cases) == list(CASE_IDS)
    for s in cases.values():
        assert s.aut == 1
        assert s.m in (1, 2)
    assert cases["iii"].m == 2 and cases["iv"].m == 2
    assert sum(1 for s in cases.values() if s.m == 1) == 6
    # the bundled placements: the loop sits on either line in (v) and on
    # either component in (vii)
    assert len(cases["v"].variants) == 2
    assert len(cases["vii"].variants) == 2


def test_contact_multiplicities_match_intersection_numbers():
    f1 = load_model("f1")
    p2 = load_model("p2")
    for opt in cubic_scenario().options((3,)):
        for spec in opt.side1:
            assert sum(spec.contacts) == f1.intersect(spec.cls, "D0")
        for spec in opt.side2:
            assert sum(spec.contacts) == p2.intersect(spec.cls, "H")


def test_lhs_value_and_breakdown():
    value, breakdown = compute_lhs_with_breakdown()
    assert value == 54
    assert breakdown["branch_factor"] == Fraction(1, 2)
    keys = [t["key"] for t in breakdown["terms"]]
    # both extreme diagonal terms die through the tabled vanishing
    assert keys.count("p2.cubic.9pts") == 2
    assert "p2.deg3.8pts" in keys


def test_lhs_with_nine_points_vanishes():
    assert compute_lhs(num_points=9) == 0


def test_plane_evaluator_bypass():
    ring = load_model("p2")
    term = InsertionList(
        genus=0,
        curve_class=(3,),
        insertions=make_insertions(ring, ["H", "H"] + ["p"] * 8),
        nodes=0,
    )
    # direct product of factors: two divisor reductions and the cubic count
    assert evaluate_plane_invariant(term) == 3 * 3 * 12


def test_contributions_match_expected_values():
    for cid, expected in EXPECTED.items():
        value, breakdown = compute_contribution(cid)
        assert value == expected, f"case {cid}"
        assert breakdown["aut"] == 1


def test_divisor_subfactors_recomputed_not_tabled():
    # the node-split divisor factors come from the intersection lattice;
    # the oracle records one note per call, so collapse to distinct values
    expectations = {
        "iii": {Fraction(4)},
        "iv": {Fraction(5)},
        "v": {Fraction(1)},
        "vi": {Fraction(5)},
        "vii": {Fraction(3), Fraction(0)},
        "viii": {Fraction(4)},
    }
    for cid, expected in expectations.items():
        _, breakdown = compute_contribution(cid)
        factors = {
            note["divisor_factor"]
            for call in breakdown["oracle_calls"]
            for note in call["node_split"]
        }
        assert factors == expected, f"case {cid}"


def test_branch_factor_and_correction_notes_present():
    _, breakdown = compute_contribution("iii")
    notes = [
        note
        for call in breakdown["oracle_calls"]
        for note in call["node_split"]
    ]
    assert notes and all(n["branch_factor"] == "1/2" for n in notes)
    assert all(n["correction_term"].startswith("0:") for n in notes)


def test_tabled_counts_appear_with_provenance():
    report = compute_rhs_total()
    seen = {}
    for breakdown in report.breakdowns.values():
        for call in breakdown["oracle_calls"]:
            seen[str(call["key"])] = call["provenance"]
    assert any("tangent" in p for p in seen.values())
    assert all(len(p) > 20 for p in seen.values())


def test_rhs_total_agrees():
    report = compute_rhs_total()
    assert report.lhs == 54
    assert report.rhs_total == 54
    assert report.agreement
    assert report.contributions == EXPECTED
    assert sum(report.contributions.values()) == report.rhs_total


def test_fault_injection_flags_disagreement():
    table = bundled_table().with_entry(
        "p2.conic.4pts.tangentL", 3, "perturbed for fault injection"
    )
    report = compute_rhs_total(table=table)
    assert not report.agreement
    assert report.rhs_total != report.lhs


def test_unknown_case_id_rejected():
    with pytest.raises(InvalidInputError):
        compute_contribution("ix")


def test_parent_graph_shape():
    g = parent_graph()
    assert len(g.vertices) == 1
    assert g.edges == ((0, 0),)
    assert len(g.legs) == 8


def reference_reglue(gamma1, gamma2, scenario):
    """Push both sides to the parent's lattice, glue the matched relative legs
    into edges and contract only those, keeping each side's own edges."""
    sides = ((gamma1, scenario.push1, 0), (gamma2, scenario.push2, len(gamma1.vertices)))
    vertices = [Vertex(v.genus, tuple(push(v.cls))) for g, push, _ in sides for v in g.vertices]
    kept = [(a + shift, b + shift) for g, _, shift in sides for a, b in g.edges]
    legs = [(l.vertex + shift, l) for g, _, shift in sides for l in g.legs]
    ends = {}
    for v, l in legs:
        if l.kind == RELATIVE:
            ends.setdefault(l.marking, []).append(v)
    assert all(len(pair) == 2 for pair in ends.values())
    component = list(range(len(vertices)))
    for a, b in ends.values():
        old, new = component[a], component[b]
        component = [new if c == old else c for c in component]
    index = {c: i for i, c in enumerate(dict.fromkeys(component))}
    contracted = []
    for c in index:
        members = [v for v in range(len(vertices)) if component[v] == c]
        glued = sum(1 for a, _ in ends.values() if component[a] == c)
        genus = sum(vertices[v].genus for v in members) + glued - len(members) + 1
        contracted.append(Vertex(genus, tuple(map(sum, zip(*(vertices[v].cls for v in members))))))
    return StableGraph(
        tuple(contracted),
        tuple((index[component[a]], index[component[b]]) for a, b in kept),
        tuple(Leg(index[component[v]], l.marking) for v, l in legs if l.kind != RELATIVE),
    )


def test_every_variant_reglues_to_parent():
    from test_stable_graphs import TOY_SPLITS

    for parent, scenario in [(parent_graph(), cubic_scenario()), *TOY_SPLITS.values()]:
        splittings = enumerate_splittings(parent, scenario)
        assert splittings
        for s in splittings:
            for g1, g2 in s.variants:
                assert graph_isomorphic(reference_reglue(g1, g2, scenario), parent)


def test_elliptic_demo_reports():
    report = elliptic_demo(1, 0, 0, 1)
    assert report["pairing_coefficient"] == 1
    assert report["nodal_coefficient"] == 2
    assert report["invariant"] == "<a,b>"
    assert report["trade_recovers_invariant"]

    degenerate = elliptic_demo(1, 0, 1, 0)
    assert degenerate["pairing_coefficient"] == 0

    skew = elliptic_demo(2, 3, 5, 7)
    assert skew["pairing_coefficient"] == 2 * 7 - 5 * 3


def test_report_breakdowns_equal_single_contributions():
    # the report slices one shared recorder per case; each slice must hold
    # exactly the oracle calls a standalone contribution records
    modified = bundled_table().with_entry(
        "p2.conic.4pts.tangentL", 3, "perturbed for fault injection"
    )
    for table in (bundled_table(), modified):
        report = compute_rhs_total(table=table)
        for cid in CASE_IDS:
            value, breakdown = compute_contribution(cid, table)
            assert report.breakdowns[cid] == breakdown
            assert report.contributions[cid] == value


def test_report_enumerates_once_and_builds_one_oracle(monkeypatch):
    from nodaltrade import case_study

    calls = {"enumerate_splittings": 0, "_make_rel_oracle": 0}
    for name in calls:
        original = getattr(case_study, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(case_study, name, counted)
    assert compute_rhs_total().agreement
    assert calls == {"enumerate_splittings": 1, "_make_rel_oracle": 1}


def test_a_shape_outside_the_case_table_is_refused(monkeypatch):
    from nodaltrade import case_study
    from nodaltrade.errors import VerificationError

    # case (iv), the tangency with the loop on the F1 side, is taken out of the table
    monkeypatch.delitem(case_study._CASES, (((1, 3),), (2,), ((1, "loop"),)))
    with pytest.raises(VerificationError, match="^unrecognized splitting shape: side1"):
        enumerate_cases()


def test_every_recorded_key_is_a_key_of_the_base_count_table():
    table = _base_count_table(None)
    # each entry's text is the text of its structural key, and no two share one
    assert all(text == _count_key(*key) for key, (text, _, _) in table.items())
    keys = {text for text, _, _ in table.values()}
    assert len(keys) == len(table)
    recorded = [
        call["key"]
        for breakdown in compute_rhs_total().breakdowns.values()
        for call in breakdown["oracle_calls"]
    ]
    assert len(recorded) > 8 and set(recorded) <= keys
    assert "f1|(0, 1)+(1, 2)|pts=4|contacts[(0, 1):m1:1;(1, 2):m1:pt]|joined=1" in recorded


def reference_rel_oracle(table, recorder):
    """The relative oracle in one call per (side, graph, boundary): every
    call recomputes the node split and looks its base count up by text."""
    rings = {side: load_model(name) for side, name in _SURFACES.items()}
    base = {text: (value, provenance) for text, value, provenance in _base_count_table(table).values()}

    def oracle(side, graph, boundary):
        loops = [a for a, b in graph.edges if a == b]
        if len(loops) > 1:
            raise UnsupportedCaseError("at most one imposed node per side is bundled")
        factor, notes = Fraction(1), []
        for v in loops:
            beta = graph.vertices[v].cls
            div = middle_diagonal_divisor_factor(rings[side], beta)
            factor *= Fraction(1, 2) * div
            notes.append({
                "loop_vertex_class": rings[side].curve_label(beta),
                "branch_factor": "1/2",
                "divisor_factor": div,
                "correction_term": "0: the contact points are pinned by the matching, so "
                                   "the split node cannot slide into the double locus",
            })
        rel = sorted(graph.relative_legs(), key=lambda l: l.marking)
        if len(rel) != len(boundary):
            raise InvalidInputError("boundary tuple does not match the relative legs")
        key = _count_key(
            side,
            [v.cls for v in graph.vertices],
            len(graph.edges) - len(loops),
            [(graph.vertices[l.vertex].cls, l.multiplicity, b) for l, b in zip(rel, boundary)],
            len(graph.interior_legs()),
        )
        if key not in base:
            raise MissingDataError(key)
        value, provenance = base[key]
        recorder.append({"side": side, "key": key, "base_count": value,
                         "provenance": provenance, "node_split": notes})
        return factor * value

    return oracle


def test_the_prepared_oracle_gives_the_reference_breakdowns(monkeypatch):
    from nodaltrade import case_study

    def per_call(table, recorder):
        oracle = reference_rel_oracle(table, recorder)
        return lambda side, graph: lambda boundary: oracle(side, graph, boundary)

    modified = bundled_table().with_entry(
        "p2.conic.4pts.tangentL", 3, "perturbed for fault injection"
    )
    for table in (bundled_table(), modified):
        report = compute_rhs_total(table=table)
        with monkeypatch.context() as patch:
            patch.setattr(case_study, "_make_rel_oracle", per_call)
            reference = compute_rhs_total(table=table)
        assert list(report.breakdowns) == list(CASE_IDS)
        assert repr(report.breakdowns) == repr(reference.breakdowns)
        assert report.contributions == reference.contributions


def test_one_report_prepares_19_side_graphs_for_48_lookups(monkeypatch):
    from nodaltrade import case_study

    counts = {"preparations": 0, "lookups": 0}
    make = case_study._make_rel_oracle

    def counted(table, recorder):
        oracle = make(table, recorder)

        def prepare(side, graph):
            counts["preparations"] += 1
            at = oracle(side, graph)

            def lookup(boundary):
                counts["lookups"] += 1
                return at(boundary)

            return lookup

        return prepare

    monkeypatch.setattr(case_study, "_make_rel_oracle", counted)
    report = compute_rhs_total()
    assert counts == {"preparations": 19, "lookups": 48}
    assert sum(len(b["oracle_calls"]) for b in report.breakdowns.values()) == 48
    # every recorded call holds its own dicts, shared with no other call
    calls = [call for b in report.breakdowns.values() for call in b["oracle_calls"]]
    notes = [note for call in calls for note in call["node_split"]]
    assert len({id(call) for call in calls}) == 48
    assert len({id(call["node_split"]) for call in calls}) == 48
    assert len({id(note) for note in notes}) == len(notes) > 0


def test_the_oracle_refuses_what_it_cannot_count():
    from nodaltrade.case_study import _make_rel_oracle

    recorder = []
    oracle = _make_rel_oracle(None, recorder)
    line = (Vertex(0, (1,)),)
    with pytest.raises(UnsupportedCaseError, match="^at most one imposed node per side"):
        oracle(2, StableGraph(line, ((0, 0), (0, 0)), ()))
    contact = StableGraph(line, (), (Leg(0, 1, RELATIVE, 1),))
    at = oracle(2, contact)
    with pytest.raises(InvalidInputError, match="^boundary tuple does not match"):
        at(("1", "pt"))
    with pytest.raises(MissingDataError) as info:
        at(("pt",))
    assert "p2|(1,)|pts=0|contacts[(1,):m1:pt]" in str(info.value)
    assert recorder == []
