import hashlib
import json

import pytest

from nodaltrade.cli import jsonable, main
from nodaltrade.errors import NodalTradeError
from nodaltrade.plane_counts import KONTSEVICH_MAX_D, kontsevich_nd


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_pairings_command(capsys):
    report = run_json(capsys, "pairings", "--n", "1")
    assert report["count"] == 1
    assert report["pairings"] == [[[1, 2]]]
    assert report["seed"] == 0


def test_pairings_crossings(capsys):
    report = run_json(capsys, "pairings", "--n", "2", "--crossings")
    assert report["crossings"] == [0, 1, 0]


def test_loopmat_displayed_matrix(capsys):
    report = run_json(capsys, "loopmat", "--n", "2", "--x", "2")
    assert report["matrix"] == [["4", "2", "2"], ["2", "4", "2"], ["2", "2", "4"]]


def test_loopmat_rational_and_eigen(capsys):
    report = run_json(capsys, "loopmat", "--n", "2", "--x", "1/2", "--eigen")
    assert report["matrix"][0][0] == "1/4"
    blocks = {tuple(b["partition"]): b for b in report["eigen"]["blocks"]}
    assert blocks[(4,)]["dimension"] == 1
    assert blocks[(2, 2)]["dimension"] == 2
    # x(x+2) at 1/2 and x(x-1) at 1/2
    assert blocks[(4,)]["eigenvalue"] == "5/4"
    assert blocks[(2, 2)]["eigenvalue"] == "-1/4"


def test_loopmat_malformed_rational(capsys):
    code, _, err = run_cli(capsys, "loopmat", "--n", "2", "--x", "two")
    assert code == 2
    assert "malformed rational" in err


def test_oracle_check(capsys):
    report = run_json(
        capsys, "oracle", "--n", "2", "--flavor", "symplectic", "--k", "1",
        "--check-loop-matrix", "--rank",
    )
    assert report["matches"] is True
    assert report["matrix"][0] == ["4", "-2", "-2"]
    assert report["rank"] == 2
    assert len(report["kernel"]) == 1


def test_trade_roundtrip(capsys, tmp_path):
    data = tmp_path / "contractions.json"
    data.write_text(json.dumps(["4", "2", "2"]))
    report = run_json(
        capsys, "trade", "--n", "2", "--flavor", "orthogonal", "--k", "2",
        "--contractions", str(data),
    )
    (entry,) = report["recovered"]
    assert entry["coordinates"] == ["1", "0", "0"]
    assert entry["tensor"]["dim"] == 2
    assert entry["tensor"]["coeffs"].count("1") == 4  # the pure product form


def test_trade_rejects_inconsistent_data(capsys, tmp_path):
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(["1", "0", "0"]))
    code, _, err = run_cli(
        capsys, "trade", "--n", "2", "--flavor", "orthogonal", "--k", "1",
        "--contractions", str(data),
    )
    assert code == 2
    assert "invariant" in err


def test_trade_n3_report_is_pinned(capsys, tmp_path):
    # sha256 of the report as the dense-expansion implementation printed it
    data = tmp_path / "contractions.json"
    data.write_text(json.dumps([
        "-10", "-17/3", "-7/2", "-11/5", "-4/3", "-5/2", "-2/3", "1/4",
        "4/5", "7/6", "5", "13/3", "4", "19/5", "11/3",
    ]))
    code, out, err = run_cli(
        capsys, "trade", "--n", "3", "--flavor", "orthogonal", "--k", "3",
        "--contractions", str(data),
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "71c6ac6ce5fd43f19e76f1a3feb0bb35d3aad3ce9722b0ff45f78519dcb898d5"
    )


@pytest.mark.parametrize(
    "flavor, k, digest",
    [
        ("orthogonal", "4",
         "cd4153239f788c0c35a1ce46667903140af85b85243790bcf5e5ea86c364507c"),
        ("symplectic", "3",
         "52246ba14f27463a22d47a8a0ad47088a1314014cf9411a70a559c9ae3d1909b"),
    ],
    ids=["dense-at-limit", "nonzero-past-limit"],
)
def test_trade_report_form_is_pinned(capsys, tmp_path, flavor, k, digest):
    # dim^6 = 4096 coefficients at orthogonal k=4 is exactly the dense limit,
    # so that report lists every coefficient; 6^6 at symplectic k=3 lists the
    # nonzero ones by flat position.  Digests as printed by the dense tensors.
    data = tmp_path / "contractions.json"
    data.write_text(json.dumps([
        "-10", "-17/3", "-7/2", "-11/5", "-4/3", "-5/2", "-2/3", "1/4",
        "4/5", "7/6", "5", "13/3", "4", "19/5", "11/3",
    ]))
    code, out, err = run_cli(
        capsys, "trade", "--n", "3", "--flavor", flavor, "--k", k,
        "--contractions", str(data),
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trade_past_dense_limit_builds_no_dense_array(capsys, tmp_path, monkeypatch):
    from nodaltrade.tensor_oracle import Tensor

    def refuse(self):
        raise AssertionError("a dense coefficient array was built")

    monkeypatch.setattr(Tensor, "coeffs", property(refuse))
    data = tmp_path / "contractions.json"
    data.write_text(json.dumps(["1"] * 15))
    report = run_json(
        capsys, "trade", "--n", "3", "--flavor", "orthogonal", "--k", "5",
        "--contractions", str(data),
    )
    assert "coeffs" not in report["recovered"][0]["tensor"]


# M(3, -6) times the coordinates (1, -1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, -2):
# the recovered tensor at symplectic k=3 vanishes on 1,110 of the 1,860 flats
# where some pairing tensor is nonzero
SPARSE_CONTRACTIONS = "<sparse contractions file>"
SPARSE_CONTRACTIONS_DATA = [
    "-336", "252", "84", "42", "-42", "0", "126", "-504", "42", "-42", "84", "-42", "-84", "-126", "546",
]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("loopmat", "--n", "3", "--x", "-2", "--eigen"),
         "0475d0c777be0b58020e9631485cbeaa415a62dde9f8d2c6c4e065d85ccfc881"),
        (("oracle", "--n", "3", "--flavor", "symplectic", "--k", "2",
          "--check-loop-matrix", "--rank"),
         "1c91333b54940e38966eda0fa7f766207f54a2a2322f3990513e12f7a36b0c4c"),
        (("appendix",),
         "45463ce75939773c4b0bd195fb0816e71f009d45e59de8a2d85cc7334052129b"),
        (("loopmat", "--n", "4", "--x", "2"),
         "5bd47a387eb6896e44879e21fe7b5a98dfb94b462a8d72ad1ec79919088d27ad"),
        (("loopmat", "--n", "4", "--x=-7/3", "--eigen"),
         "69676cb079c876d5dfc25f1e488a1150fb09496fa002ddbd9f118da10238de19"),
        (("oracle", "--n", "3", "--flavor", "orthogonal", "--k", "2", "--check-loop-matrix"),
         "b8ff1bd1cf4020d8d8a558ca7ab0ee58cf3e242001971bb56873889540c79076"),
        (("oracle", "--n", "3", "--flavor", "symplectic", "--k", "3",
          "--check-loop-matrix", "--rank"),
         "73e391b3ce4c5bd63991fdadf390716537d06771d06ce8c799a2a27e70c21fd9"),
        (("trade", "--n", "3", "--flavor", "symplectic", "--k", "3",
          "--contractions", SPARSE_CONTRACTIONS),
         "9e046c2b344d0e1ce6a8b948ef6d58561c072e519ed33a161557768a68a34a5c"),
        # the two cells where the diagonal multivectors equal the form tensors:
        # symplectic at even n and orthogonal
        (("oracle", "--n", "2", "--flavor", "symplectic", "--k", "2",
          "--check-loop-matrix", "--rank"),
         "e60f7f1a3d0f55e0a73a72eb18adf72a5751e1649deb1b45ec586956cf330217"),
        (("oracle", "--n", "3", "--flavor", "orthogonal", "--k", "3",
          "--check-loop-matrix", "--rank"),
         "625b58f87a9e69c8796c5ab7b7f21ea3c14ff79a58847d0dcf412c328ae7b8c8"),
    ],
    ids=["nullspace", "left-kernel", "dual-basis", "loopmat", "loopmat-eigen", "check-loop-matrix",
         "rank-dim-6", "trade-sparse", "symplectic-even-n", "orthogonal-dim-3"],
)
def test_report_is_pinned(capsys, tmp_path, argv, digest):
    # sha256 of each report as printed when rank, the kernels and the dual
    # basis still ran on three separate elimination routines, the loop
    # matrix was still stored entry by entry, and the oracle still walked
    # every support entry rather than the distinct columns
    data = tmp_path / "contractions.json"
    data.write_text(json.dumps(SPARSE_CONTRACTIONS_DATA))
    argv = [str(data) if a is SPARSE_CONTRACTIONS else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# M(3, x) times (1/2, -1/3, 0, 0, 0, 0, 0, 3/4, 0, 0, 0, 0, 0, 0, -2) in two cells
# where the form tensors are dependent: the recovered coordinates are the
# projection, and the tensor holds fractions and vanishes on 196 of 400 and on
# 12 of 32 union flats
@pytest.mark.parametrize(
    "flavor, contractions, digest",
    [
        ("symplectic",
         ["-217/3", "103/3", "68/3", "43/3", "-82/3", "13/3", "88/3", "-242/3", "38/3", "-7/3",
          "58/3", "-77/3", "-107/3", "-127/3", "448/3"],
         "56d94a5d34eb4aa6e85f03234e37d44e0eefc90262fb52d72c5aa5b8d21fbd1f"),
        ("orthogonal",
         ["-23/6", "-19/6", "-1/3", "-7/6", "-16/3", "-13/6", "1/3", "-5/3", "-4/3", "-17/6",
          "-2/3", "-31/6", "-37/6", "-41/6", "-35/3"],
         "5f1f855f125b5ce4f87fda0d5ececd2d1c61177622eb8afd2350aa0af753ac0a"),
    ],
    ids=["symplectic-k2", "orthogonal-k2"],
)
def test_trade_report_with_zero_classes_is_pinned(capsys, tmp_path, flavor, contractions, digest):
    # digests as printed when every tensor was stored flat by flat
    data = tmp_path / "contractions.json"
    data.write_text(json.dumps(contractions))
    code, out, err = run_cli(
        capsys, "trade", "--n", "3", "--flavor", flavor, "--k", "2", "--contractions", str(data),
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trade_past_brute_force_budget_exits_2(capsys, tmp_path):
    data = tmp_path / "n4.json"
    data.write_text(json.dumps(["0"] * 105))
    code, out, err = run_cli(
        capsys, "trade", "--n", "4", "--flavor", "orthogonal", "--k", "2",
        "--contractions", str(data),
    )
    assert code == 2
    assert out == ""
    assert "brute force limited to n <= 3" in err


@pytest.mark.parametrize(
    "argv, content, fragment",
    [
        (("trade", "--n", "2", "--flavor", "orthogonal", "--k", "2", "--contractions"),
         "[1, 2", "--contractions"),
        (("trade", "--n", "2", "--flavor", "orthogonal", "--k", "2", "--contractions"),
         "[[1, 2, 3], 3]", "--contractions"),
        (("graphs", "--contract"), '{"edges": []}', "--contract"),
    ],
    ids=["broken-json", "mixed-batch", "graph-without-vertices"],
)
def test_malformed_input_file_exits_2(capsys, tmp_path, argv, content, fragment):
    f = tmp_path / "input.json"
    f.write_text(content)
    code, out, err = run_cli(capsys, *argv, str(f))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {fragment}")


def test_contraction_numbers_are_read_exactly(capsys, tmp_path):
    # a float would have turned this number into 12345678901234567000
    exact = tmp_path / "exact.json"
    exact.write_text('["12345678901234567890", "0", "0"]')
    written = tmp_path / "written.json"
    written.write_text("[12345678901234567890.0, 0, 0]")
    argv = ("trade", "--n", "2", "--flavor", "orthogonal", "--k", "2", "--contractions")
    expected = run_cli(capsys, *argv, str(exact))
    assert run_cli(capsys, *argv, str(written)) == expected
    assert expected[0] == 0 and "6172839450617283945/4" in expected[1]
    written.write_text("[NaN, 0, 0]")  # Python's json would build a float
    code, out, err = run_cli(capsys, *argv, str(written))
    assert (code, out) == (2, "") and "is not valid JSON" in err


GRAPH = {
    "vertices": [{"genus": 0, "class": [1]}, {"genus": 0, "class": [2]}],
    "edges": [[0, 1]],
    "legs": [{"vertex": 0, "marking": 1}, {"vertex": 1, "marking": 2}],
}


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("vertices", 0, "genus"), 1.9, "genus must be an integer, got Fraction(19, 10)"),
        (("vertices", 0, "genus"), True, "genus must be an integer, got True"),
        (("vertices", 1, "class", 0), 2.7, "class entry must be an integer"),
        (("legs", 0, "vertex"), 1.0, "leg vertex must be an integer"),
        (("edges", 0, 1), "1", "edge end must be an integer, got '1'"),
        (("legs", 1, "multiplicity"), 2.5, "multiplicity must be an integer"),
        (("legs", 0, "marking"), [1], "marking [1] is not an integer or a string"),
        (("legs", 1, "marking"), 1, "two interior legs share the marking 1"),
    ],
    ids=["genus-float", "genus-bool", "class-float", "leg-vertex-float", "edge-end-string",
         "multiplicity-float", "marking-list", "repeated-marking"],
)
def test_graph_fields_are_checked(capsys, tmp_path, path, value, message):
    graph = json.loads(json.dumps(GRAPH))
    target = graph
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    f = tmp_path / "graph.json"
    f.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, "graphs", "--contract", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: --contract: ") and message in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (("oracle-p2", "--key", "nope"), "error: no oracle entry for key 'nope'"),
        (("trade", "--n", "0", "--flavor", "orthogonal", "--k", "1", "--contractions"),
         "error: n must be >= 1, got 0"),
        (("trade", "--n", "-1", "--flavor", "orthogonal", "--k", "1", "--contractions"),
         "error: n must be >= 1, got -1"),
    ],
    ids=["missing-key", "trade-n-0", "trade-n-negative"],
)
def test_error_lines_name_the_argument(capsys, tmp_path, argv, line):
    if argv[-1] == "--contractions":
        f = tmp_path / "one.json"
        f.write_text('["1"]')
        argv += (str(f),)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("loopmat", "--n", "2", "--x", "abc"),
         "--x: malformed rational 'abc': Invalid literal for Fraction: 'abc'"),
        (("loopmat", "--n", "2", "--x", "1/0"), "--x: malformed rational '1/0': "),
        (("trade", "--n", "2", "--flavor", "orthogonal", "--k", "1", "--contractions", "missing"),
         "--contractions: [Errno 2] "),
        (("trade", "--n", "2", "--flavor", "orthogonal", "--k", "1", "--contractions", "."),
         "--contractions: [Errno 21] "),
        (("graphs", "--contract", "missing"), "--contract: [Errno 2] "),
        (("graphs", "--contract", "."), "--contract: [Errno 21] "),
        (("graphs", "--split", "bogus"),
         "--split: unknown split scenario 'bogus'; bundled: p2-f1-cubic"),
        (("models", "--name", "bogus"),
         "--name: unknown model 'bogus'; bundled: ['elliptic', 'f1', 'p1', 'p2', 'point']"),
    ],
    ids=["x-malformed", "x-zero-denominator", "contractions-missing", "contractions-directory",
         "contract-missing", "contract-directory", "split-unknown", "name-unknown"],
)
def test_refusals_name_their_option(capsys, tmp_path, monkeypatch, argv, prefix):
    # a bad rational used to print no option, and an unreadable file a bare OSError line
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {prefix}") and err.count("\n") == 1


def test_an_unreadable_bundled_file_exits_2(capsys, monkeypatch):
    # no option names the bundled data, so its OSError reaches main itself
    import nodaltrade
    import nodaltrade.cohomology as cohomology

    monkeypatch.setattr(cohomology, "read_bundled", lambda name: nodaltrade.read_bundled("absent.json"))
    code, out, err = run_cli(capsys, "models", "--name", "never-loaded")
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1


def test_trade_n_0_is_named_before_the_vector_length(capsys, tmp_path):
    f = tmp_path / "three.json"
    f.write_text('["1", "2", "3"]')
    argv = ("trade", "--n", "0", "--flavor", "orthogonal", "--k", "1", "--contractions", str(f))
    assert run_cli(capsys, *argv) == (2, "", "error: n must be >= 1, got 0\n")


def test_graphs_contract(capsys, tmp_path):
    graph = {
        "vertices": [{"genus": 0, "class": [1]}, {"genus": 0, "class": [2]}],
        "edges": [[0, 1]],
        "legs": [{"vertex": 0, "marking": 1}],
    }
    f = tmp_path / "graph.json"
    f.write_text(json.dumps(graph))
    report = run_json(capsys, "graphs", "--contract", str(f))
    assert report["contracted"]["vertices"] == [{"genus": 0, "class": [3]}]


def test_graphs_split_scenario(capsys):
    report = run_json(capsys, "graphs", "--split", "p2-f1-cubic")
    assert report["count"] == 8
    assert all(s["aut"] == 1 for s in report["splittings"])


def test_graphs_unknown_scenario(capsys):
    code, _, err = run_cli(capsys, "graphs", "--split", "mystery")
    assert code == 2 and "mystery" in err


def test_oracle_p2_commands(capsys):
    assert run_json(capsys, "oracle-p2", "--nd", "3")["count"] == "12"
    key_report = run_json(capsys, "oracle-p2", "--key", "p2.conic.4pts.tangentL")
    assert key_report["value"] == "2"
    assert "tangent" in key_report["provenance"]
    pencil = run_json(capsys, "oracle-p2", "--pencil", "4", "5")
    assert pencil["reducible_members"] == 5


def test_oracle_p2_degree_ceiling(capsys):
    report = run_json(capsys, "oracle-p2", "--nd", str(KONTSEVICH_MAX_D))
    assert report["count"] == str(kontsevich_nd(KONTSEVICH_MAX_D))
    code, out, err = run_cli(capsys, "oracle-p2", "--nd", str(KONTSEVICH_MAX_D + 1))
    assert code == 2
    assert out == ""
    assert f"degree {KONTSEVICH_MAX_D + 1}" in err


def test_oracle_p2_missing_key(capsys):
    code, _, err = run_cli(capsys, "oracle-p2", "--key", "no.such.key")
    assert code == 2 and "no.such.key" in err


def test_appendix_full_report(capsys):
    report = run_json(capsys, "appendix")
    assert report["lhs"] == "54"
    assert report["rhs_total"] == "54"
    assert report["agreement"] is True
    assert report["contributions"] == {
        "i": "3", "ii": "5", "iii": "8", "iv": "10",
        "v": "3", "vi": "15/2", "vii": "15/2", "viii": "10",
    }
    assert report["elliptic_warmup"]["nodal_coefficient"] == "2"
    assert report["elliptic_warmup"]["pairing_coefficient"] == "1"


def test_appendix_single_case(capsys):
    report = run_json(capsys, "appendix", "--case", "vi")
    assert report["value"] == "15/2"
    assert report["breakdown"]["multiplicity"] == 1


def test_models_command(capsys):
    report = run_json(capsys, "models", "--name", "f1")
    assert report["pairing"][1][1] == "-1"


def test_table_format(capsys):
    code, out, err = run_cli(capsys, "loopmat", "--n", "1", "--x", "3", "--format", "table")
    assert code == 0
    assert "matrix" in out and "3" in out


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "appendix", "--seed", "7")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["seed"] == 7


def test_no_floats_anywhere(capsys):
    for argv in (
        ("appendix",),
        ("loopmat", "--n", "3", "--x", "-2"),
        ("oracle", "--n", "2", "--flavor", "orthogonal", "--k", "3", "--rank"),
    ):
        report = run_json(capsys, *argv)

        def walk(v):
            assert not isinstance(v, float)
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)

        walk(report)


def test_jsonable_refuses_floats():
    with pytest.raises(NodalTradeError):
        jsonable({"bad": 0.5})


def test_every_report_field_passes_the_float_refusal(capsys, monkeypatch):
    import nodaltrade.cli as cli

    monkeypatch.setattr(cli.plane_counts, "lookup_with_provenance", lambda key: (0.5, "tabled"))
    code, out, err = run_cli(capsys, "oracle-p2", "--key", "p2.conic.4pts.tangentL")
    assert (code, out) == (2, "")
    assert "a float reached the output layer" in err


def test_verification_failure_exit_code(capsys, monkeypatch):
    # force the two routes to disagree: the report constructor itself is
    # sound, so impersonate a disagreeing result at the dispatch boundary
    import nodaltrade.cli as cli
    from fractions import Fraction
    from nodaltrade.case_study import CaseReport

    fake = CaseReport(lhs=Fraction(54), contributions={"i": Fraction(53)})
    assert (fake.rhs_total, fake.agreement) == (Fraction(53), False)
    monkeypatch.setattr(cli.case_study, "compute_rhs_total", lambda: fake)
    code, _, err = run_cli(capsys, "appendix")
    assert code == 1
    assert "verification failure" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("appendix", "--case", "i"),
         "71f6421088eef0a72e6263aec254ebebbd49e1cc40bb34cd92a722b6d4d93a82"),
        (("appendix", "--case", "ii"),
         "2291faae3310c8de6628837cbcc1798f973c1270c080b1f878b5bf34634004d9"),
        (("appendix", "--case", "iii"),
         "e84055403ed47549b4e714918fabdb557e60dcc4c74e1d8f007e35e229e9876e"),
        (("appendix", "--case", "iv"),
         "851aeb639593e765f8e05bc84e9a73edde21a7c42fab8710fe6d523bfa97aa29"),
        (("appendix", "--case", "v"),
         "0eb89bacc5fdd8194faa77e79d407799656d13aa25f97ee9da35ef8e86f27f8b"),
        (("appendix", "--case", "vi"),
         "5c3398c4ad0aa4e5084e3d33008e676fb4d2a21bb08ada1219d176490bae278a"),
        (("appendix", "--case", "vii"),
         "404a78252cd9cc9667909918db478d191b07059e7a66aa10b6eb460d593f44c8"),
        (("appendix", "--case", "viii"),
         "0e36b438d2b098c14a711f0660ba5799dc9f4cff436056f74b70309347c57d18"),
        (("graphs", "--split", "p2-f1-cubic"),
         "6d9f81e4010fad3c5b7c1d521a26f519fc5cb145c3580771b77e37a3c49a0f8b"),
    ],
    ids=["case-i", "case-ii", "case-iii", "case-iv", "case-v", "case-vi", "case-vii", "case-viii",
         "split"],
)
def test_case_reports_are_pinned(capsys, argv, digest):
    # sha256 of each report as printed when the cases were named by nested
    # conditions and each base-count key was a tuple with a separate text form
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
