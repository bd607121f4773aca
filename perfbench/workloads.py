"""The four workloads: seeded inputs, the timed operation, and its exact check.

Each workload is a closed loop with one client.  Operation i gets its
inputs from make_input(i), which draws only from a random.Random seeded by
the workload name and --seed; nodaltrade sees nothing but those inputs.
Checks run after the timed call and compare against exact values, most of
them from reference.py, which shares no code with nodaltrade.

Operations come in fixed cycles and a run always ends on a cycle
boundary, so every run of a workload has the same mix of operations.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import reference as ref
from setup_child import CELLS, fill_caches

CLI_TIMEOUT_S = 120


def flavor_point(flavor: str, k: int) -> int:
    return k if flavor == "orthogonal" else -2 * k


def _unexpected(exc: BaseException) -> str:
    return f"unexpected {type(exc).__name__}: {exc}"


def _coords(rng, size):
    return [rng.randint(-9, 9) for _ in range(size)]


class Workload:
    name = ""
    cycle = 1
    in_process = True

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        # every process the benchmark starts imports nodaltrade from the checkout
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))

    def setup(self) -> None:
        """Fill the program's caches; runs once per process before timing."""
        fill_caches(self.name)

    def make_input(self, i: int) -> dict:
        raise NotImplementedError

    def op(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> str | None:
        """None when the outcome is exactly right, else the reason it is not."""
        raise NotImplementedError


# -- trade_n3 -----------------------------------------------------------------


class TradeN3(Workload):
    """Node-trade roundtrips at the brute-force ceiling n=3, six cells in turn."""

    name = "trade_n3"
    cycle = len(CELLS)
    n = 3

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        exps = ref.loop_exponents(self.n)
        self.matrices = {cell: ref.loop_matrix(exps, flavor_point(*cell)) for cell in CELLS}
        self.size = len(exps)

    def make_input(self, i):
        flavor, k = CELLS[i % len(CELLS)]
        return {"flavor": flavor, "k": k, "coords": _coords(self.rng, self.size)}

    def op(self, inp):
        from nodaltrade.node_trade import InvariantTensor, contract_with_all_diagonals, recover
        from nodaltrade.tensor_oracle import BilinearSpace

        space = BilinearSpace(inp["flavor"], inp["k"])
        omega = InvariantTensor.from_coordinates(self.n, space, inp["coords"])
        data = contract_with_all_diagonals(omega)
        back = recover(data, self.n, space)
        return omega, data, back

    def check(self, inp, out):
        if isinstance(out, BaseException):
            return _unexpected(out)
        omega, data, back = out
        matrix = self.matrices[(inp["flavor"], inp["k"])]
        if list(data.coords) != ref.mat_vec(matrix, inp["coords"]):
            return "contractions differ from the reference loop matrix times the coordinates"
        if back.tensor != omega.tensor:
            return "recovered tensor differs from the original"
        return None


# -- spectral_n4 --------------------------------------------------------------


class SpectralN4(Workload):
    """Restricted inverses and the eigenspace decomposition at n=4, no dense tensors.

    Eleven operations in twelve solve M(x) w = v on the invariant subspace
    for data v = M(x) c; every eighth solve gets a seeded inadmissible
    component and must raise SubspaceError.  The twelfth computes the
    eigenspace decomposition.
    """

    name = "spectral_n4"
    cycle = 12
    n = 4
    check_x = 3

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        exps = ref.loop_exponents(self.n)
        self.size = len(exps)
        self.matrices = {cell: ref.loop_matrix(exps, flavor_point(*cell)) for cell in CELLS}
        self.check_matrix = ref.loop_matrix(exps, self.check_x)
        self.kernel = {cell: ref.kernel_vector(self.n, *cell) for cell in CELLS}
        for cell, u in self.kernel.items():
            if any(ref.mat_vec(self.matrices[cell], u)):
                raise RuntimeError(f"reference kernel vector for {cell} is not in the kernel")
        self.blocks = {lam: ref.hook_dimension(lam) for lam in ref.even_row_partitions(self.n)}

    def make_input(self, i):
        cycle, pos = divmod(i, self.cycle)
        if pos == self.cycle - 1:
            return {"kind": "eigen", "probe": self.rng.randrange(1 << 30)}
        solve = cycle * (self.cycle - 1) + pos
        flavor, k = CELLS[solve % len(CELLS)]
        c = _coords(self.rng, self.size)
        data = ref.mat_vec(self.matrices[(flavor, k)], c)
        inadmissible = solve % 8 == 7
        if inadmissible:
            scale = self.rng.choice([s for s in range(-9, 10) if s])
            data = [d + scale * u for d, u in zip(data, self.kernel[(flavor, k)])]
        return {"kind": "solve", "flavor": flavor, "k": k, "data": [str(d) for d in data],
                "inadmissible": inadmissible}

    def op(self, inp):
        from nodaltrade import loop_matrix

        if inp["kind"] == "eigen":
            return loop_matrix.eigenspace_decomposition(self.n)
        v = loop_matrix.PairingVector(self.n, [Fraction(d) for d in inp["data"]])
        return loop_matrix.restricted_inverse_apply(self.n, inp["flavor"], inp["k"], v)

    def check(self, inp, out):
        from nodaltrade.errors import SubspaceError

        if inp["kind"] == "eigen":
            return self._check_blocks(inp, out)
        if inp["inadmissible"]:
            if isinstance(out, SubspaceError):
                return None
            return f"inadmissible data gave {type(out).__name__}, not SubspaceError"
        if isinstance(out, BaseException):
            return _unexpected(out)
        matrix = self.matrices[(inp["flavor"], inp["k"])]
        if ref.mat_vec(matrix, out.coords) != [Fraction(d) for d in inp["data"]]:
            return "M(x) w differs from the data vector"
        return None

    def _check_blocks(self, inp, out):
        if isinstance(out, BaseException):
            return _unexpected(out)
        dims = {tuple(lam.parts): len(basis) for lam, basis in out.items()}
        if dims != self.blocks:
            return f"block dimensions {dims} differ from hook lengths {self.blocks}"
        probe = random.Random(inp["probe"])
        for lam, basis in out.items():
            b = probe.choice(basis).coords
            value = ref.block_eigenvalue(tuple(lam.parts), self.check_x)
            if ref.mat_vec(self.check_matrix, b) != [value * x for x in b]:
                return f"a basis vector of block {lam} is not an eigenvector"
        return None


# -- appendix -----------------------------------------------------------------

CONTRIBUTIONS = {"i": 3, "ii": 5, "iii": 8, "iv": 10, "v": 3,
                 "vi": Fraction(15, 2), "vii": Fraction(15, 2), "viii": 10}


class Appendix(Workload):
    """The worked cubic example both ways plus the seeded elliptic warm-up."""

    name = "appendix"

    def make_input(self, i):
        return {"elliptic": _coords(self.rng, 4)}

    def op(self, inp):
        from nodaltrade import case_study

        lhs = case_study.compute_lhs()
        report = case_study.compute_rhs_total()
        demo = case_study.elliptic_demo(*inp["elliptic"])
        return lhs, report, demo

    def check(self, inp, out):
        if isinstance(out, BaseException):
            return _unexpected(out)
        lhs, report, demo = out
        if lhs != 54 or report.lhs != 54 or report.rhs_total != 54 or not report.agreement:
            return f"worked example gave {lhs} and {report.rhs_total}, expected 54 and 54"
        if report.contributions != CONTRIBUTIONS:
            return f"contributions {report.contributions} differ from {CONTRIBUTIONS}"
        u1, v1, u2, v2 = inp["elliptic"]
        if demo["pairing_coefficient"] != u1 * v2 - u2 * v1:
            return "elliptic pairing coefficient is wrong"
        if demo["nodal_coefficient"] != 2 or demo["trade_recovers_invariant"] is not True:
            return "elliptic nodal coefficient or trade recovery is wrong"
        return None


# -- cli_cold -----------------------------------------------------------------


def _reject_float(text):
    raise ValueError(f"float {text} in the output")


def parse_report(stdout: bytes):
    """JSON with every number an integer; floats and NaN/Infinity are refused."""
    return json.loads(stdout, parse_float=_reject_float, parse_constant=_reject_float)


class CliCold(Workload):
    """A fixed cycle of fresh `python -m nodaltrade.cli` processes."""

    name = "cli_cold"
    in_process = False

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        from nodaltrade import __version__

        self.version_string = __version__
        self.python = sys.executable
        self.exps = {n: ref.loop_exponents(n) for n in (2, 3)}
        self.pairings = {n: ref.pairings(n) for n in (3, 4, 5)}
        self.commands = self._commands()
        self.cycle = len(self.commands)
        self.first_stdout: dict[int, bytes] = {}
        self.traced_spans = None  # set to a file path to run the traced child instead

    def setup(self):
        pass

    def _commands(self):
        s = str(self.seed)
        readme = [
            # the README examples
            (["pairings", "--n", "3", "--crossings", "--seed", s], self._pairings_check(3)),
            (["loopmat", "--n", "2", "--x", "2", "--eigen", "--seed", s], self._loopmat_check(2, 2)),
            (["oracle", "--n", "2", "--flavor", "symplectic", "--k", "1", "--check-loop-matrix",
              "--rank", "--seed", s], self._oracle_check(2, "symplectic", 1)),
            (["trade", "--n", "2", "--flavor", "orthogonal", "--k", "2", "--contractions", "@trade2",
              "--seed", s], None),
            (["graphs", "--contract", "@graph", "--seed", s], None),
            (["graphs", "--split", "p2-f1-cubic", "--seed", s], _split_check),
            (["oracle-p2", "--nd", "3", "--seed", s], lambda r: r["count"] == "12"),
            (["oracle-p2", "--key", "p2.conic.4pts.tangentL", "--seed", s], lambda r: r["value"] == "2"),
            (["oracle-p2", "--pencil", "4", "5", "--seed", s], lambda r: r["reducible_members"] == 5),
            (["appendix", "--seed", s], _appendix_check),
            (["appendix", "--case", "vi", "--seed", s], lambda r: r["value"] == "15/2"),
            (["models", "--name", "f1", "--seed", s], lambda r: r["name"] == "f1"),
        ]
        # acceptance criterion 12: byte-identical reruns, whatever the workload seed
        self.rerun_positions = range(len(readme), len(readme) + 4)
        return readme + [
            (["appendix", "--seed", "11"], _appendix_check),
            (["loopmat", "--n", "3", "--x", "-2", "--eigen", "--seed", "11"], self._loopmat_check(3, -2)),
            (["oracle", "--n", "2", "--flavor", "symplectic", "--k", "1", "--check-loop-matrix",
              "--rank", "--seed", "11"], self._oracle_check(2, "symplectic", 1)),
            (["pairings", "--n", "4", "--crossings", "--seed", "11"], self._pairings_check(4)),
            # the n=5 ceiling of pairing enumeration and the n=3 oracle
            (["pairings", "--n", "5", "--crossings", "--seed", s], self._pairings_check(5)),
            (["oracle", "--n", "3", "--flavor", "symplectic", "--k", "2", "--check-loop-matrix",
              "--rank", "--seed", s], self._oracle_check(3, "symplectic", 2)),
            (["trade", "--n", "3", "--flavor", "symplectic", "--k", "2", "--contractions", "@trade3",
              "--seed", s], None),
            # bad input must exit 2
            (["oracle", "--n", "2", "--flavor", "orthogonal", "--k", "0", "--seed", s], "usage"),
        ]

    def make_input(self, i):
        pos = i % self.cycle
        argv, _ = self.commands[pos]
        inp = {"pos": pos, "template": argv, "argv": list(argv)}
        if "@trade2" in argv:
            inp["trade"] = self._trade_data(2, "orthogonal", 2, 1)
            inp["file"] = inp["trade"]["data"][0]
        elif "@trade3" in argv:
            inp["trade"] = self._trade_data(3, "symplectic", 2, 4)
            inp["file"] = inp["trade"]["data"]
        elif "@graph" in argv:
            inp["graph"], inp["expected"] = self._graph()
            inp["file"] = inp["graph"]
        if "file" in inp:
            path = os.path.join(self.workdir, f"input-{i}.json")
            with open(path, "w") as fh:
                json.dump(inp["file"], fh)
            inp["argv"] = [path if a.startswith("@") else a for a in argv]
        return inp

    def _trade_data(self, n, flavor, k, count):
        matrix = ref.loop_matrix(self.exps[n], flavor_point(flavor, k))
        size = len(matrix)
        data = [[str(x) for x in ref.mat_vec(matrix, _coords(self.rng, size))] for _ in range(count)]
        return {"n": n, "x": flavor_point(flavor, k), "data": data}

    def _graph(self):
        """A connected graph: a random tree plus at most one extra edge."""
        rng = self.rng
        nv = rng.randint(2, 4)
        vertices = [{"genus": rng.randint(0, 2), "class": [rng.randint(0, 3)]} for _ in range(nv)]
        edges = [[rng.randrange(v), v] for v in range(1, nv)]
        if rng.random() < 0.5:
            a, b = rng.randrange(nv), rng.randrange(nv)
            edges.append([min(a, b), max(a, b)])
        legs = [{"vertex": rng.randrange(nv), "marking": m + 1} for m in range(rng.randint(1, 4))]
        expected = {
            "vertices": [{"genus": sum(v["genus"] for v in vertices) + len(edges) - nv + 1,
                          "class": [sum(v["class"][0] for v in vertices)]}],
            "legs": sorted(leg["marking"] for leg in legs),
        }
        return {"vertices": vertices, "edges": edges, "legs": legs}, expected

    def argv(self, inp):
        if self.traced_spans:
            return [self.python, os.path.join(self.root, "perfbench", "cli_child.py"),
                    self.traced_spans, *inp["argv"]]
        return [self.python, "-m", "nodaltrade.cli", *inp["argv"]]

    def op(self, inp):
        proc = subprocess.run(self.argv(inp), cwd=self.root, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def version(self) -> tuple[int, bytes, bytes]:
        proc = subprocess.run([self.python, "-m", "nodaltrade.cli", "--version"], cwd=self.root,
                              env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        if isinstance(out, BaseException):
            return _unexpected(out)
        code, stdout, stderr = out
        argv = inp["argv"]
        _, expect = self.commands[inp["pos"]]
        if expect == "usage":
            if code != 2 or stdout:
                return f"bad input exited {code} with {len(stdout)} bytes of stdout, expected 2 and none"
            return None if b"k must be" in stderr else "bad-input message does not name k"
        if code != 0:
            return f"exit code {code}: {stderr.decode(errors='replace')[-200:]}"
        try:
            report = parse_report(stdout)
        except ValueError as exc:
            return f"unparseable or float-bearing JSON: {exc}"
        if report.get("seed") != int(argv[argv.index("--seed") + 1]):
            return f"report records seed {report.get('seed')!r}"
        if inp["pos"] in self.rerun_positions:
            first = self.first_stdout.setdefault(inp["pos"], stdout)
            if first != stdout:
                return "criterion-12 command is not byte-identical across runs"
        try:
            if "trade" in inp:
                return self._trade_check(inp["trade"], report)
            if "graph" in inp:
                return _graph_check(inp["expected"], report)
            return None if expect(report) else f"wrong values in {' '.join(argv[:3])}"
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return f"report lacks expected fields: {type(exc).__name__}: {exc}"

    def _pairings_check(self, n):
        ps = self.pairings[n]

        def check(report):
            return (report["count"] == len(ps)
                    and report["pairings"] == [[list(pair) for pair in p] for p in ps]
                    and report["crossings"] == [ref.crossings(p) for p in ps])

        return check

    def _loopmat_check(self, n, x):
        matrix = [[str(e) for e in row] for row in ref.loop_matrix(self.exps[n], x)]
        dims = {lam: ref.hook_dimension(lam) for lam in ref.even_row_partitions(n)}

        def check(report):
            blocks = report["eigen"]["blocks"]
            return (report["matrix"] == matrix
                    and {tuple(b["partition"]): b["dimension"] for b in blocks} == dims
                    and all(b["eigenvalue"] == str(ref.block_eigenvalue(tuple(b["partition"]), x))
                            for b in blocks))

        return check

    def _oracle_check(self, n, flavor, k):
        x = flavor_point(flavor, k)
        matrix = [[str(e) for e in row] for row in ref.loop_matrix(self.exps[n], x)]
        rank = ref.invariant_rank(n, flavor, k)

        def check(report):
            return (report["matches"] is True and report["matrix"] == matrix
                    and report["rank"] == rank and len(report["kernel"]) == len(matrix) - rank)

        return check

    def _trade_check(self, trade, report):
        matrix = ref.loop_matrix(self.exps[trade["n"]], trade["x"])
        recovered = report["recovered"]
        if len(recovered) != len(trade["data"]):
            return f"{len(recovered)} recovered tensors for {len(trade['data'])} vectors"
        for data, entry in zip(trade["data"], recovered):
            coords = [Fraction(c) for c in entry["coordinates"]]
            if ref.mat_vec(matrix, coords) != [Fraction(d) for d in data]:
                return "recovered coordinates do not reproduce the contraction data"
        return None


def _split_check(report):
    return report["count"] == 8 and all(s["aut"] == 1 for s in report["splittings"])


def _appendix_check(report):
    expected = {cid: str(v) for cid, v in CONTRIBUTIONS.items()}
    return (report["lhs"] == "54" and report["rhs_total"] == "54" and report["agreement"] is True
            and report["contributions"] == expected)


def _graph_check(expected, report):
    contracted = report["contracted"]
    if contracted["vertices"] != expected["vertices"] or contracted["edges"]:
        return f"contracted graph {contracted['vertices']} differs from {expected['vertices']}"
    if sorted(leg["marking"] for leg in contracted["legs"]) != expected["legs"]:
        return "contraction lost or changed legs"
    if any(leg["vertex"] != 0 for leg in contracted["legs"]):
        return "a leg is not on the contracted vertex"
    return None


WORKLOADS = {w.name: w for w in (TradeN3, SpectralN4, Appendix, CliCold)}
