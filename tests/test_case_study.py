from fractions import Fraction

import pytest

from nodaltrade.case_study import (
    CASE_IDS,
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
from nodaltrade.cohomology import InsertionList, load_model, make_insertions
from nodaltrade.errors import InvalidInputError
from nodaltrade.plane_counts import bundled_table

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


def test_every_variant_reglues_to_parent():
    from nodaltrade.stable_graphs import _reglue, graph_isomorphic

    scenario = cubic_scenario()
    parent = parent_graph()
    for s in enumerate_cases().values():
        for g1, g2 in s.variants:
            assert graph_isomorphic(_reglue(g1, g2, scenario), parent)


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
    from nodaltrade.case_study import _base_count_table

    keys = set(_base_count_table(None))
    recorded = [
        call["key"]
        for breakdown in compute_rhs_total().breakdowns.values()
        for call in breakdown["oracle_calls"]
    ]
    assert len(recorded) > 8 and set(recorded) <= keys
    assert "f1|(0, 1)+(1, 2)|pts=4|contacts[(0, 1):m1:1;(1, 2):m1:pt]|joined=1" in recorded
