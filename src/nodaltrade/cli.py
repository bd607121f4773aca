"""Command-line entry point exposing every module with exact JSON output.

All numeric payload values render as "p/q" strings; no float ever appears.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, case_study, plane_counts, tensor_oracle
from .cohomology import load_model
from .errors import InvalidInputError, NodalTradeError, VerificationError
from .loop_matrix import (
    PairingVector,
    build_loop_matrix,
    eigenspace_decomposition,
    eigenvalues_at,
    find_generic_specialization,
    flavor_specialization,
)
from .node_trade import recover_batch
from .pairings import crossing_number, enumerate_pairings
from .rationals import format_rational, parse_rational
from .stable_graphs import contract_edges, enumerate_splittings, graph_from_json


def jsonable(value):
    """Recursively render Fractions as exact strings and tuples as lists."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, float):
        raise NodalTradeError("a float reached the output layer; refusing to emit it")
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "to_json"):
        return jsonable(value.to_json())
    return str(value)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    for line in _table_lines(report, ""):
        print(line)


def _table_lines(value, prefix):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _table_lines(value[key], f"{prefix}{key}.")
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            yield f"{prefix[:-1]:40s} {' '.join(str(v) for v in value)}"
        else:
            for i, v in enumerate(value):
                yield from _table_lines(v, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]:40s} {value}"


def _load_json(path, option):
    """Read a JSON input file with every number exact (1.5 is 3/2; NaN and
    Infinity are refused), so no float is built; a file that cannot be read
    or decoded is an input error naming the option that gave it."""
    try:
        fh = open(path)
    except OSError as exc:
        raise InvalidInputError(f"{option}: {exc}") from exc
    with fh:
        try:
            return json.load(fh, parse_float=Fraction, parse_constant=Fraction)
        except ValueError as exc:
            raise InvalidInputError(f"{option}: {path} is not valid JSON: {exc}") from exc


# -- subcommand handlers ------------------------------------------------------


def _cmd_pairings(args):
    ps = enumerate_pairings(args.n)
    out = {
        "n": args.n,
        "count": len(ps),
        "pairings": ps,
    }
    if args.crossings:
        out["crossings"] = [crossing_number(p) for p in ps]
    return out


def _cmd_loopmat(args):
    try:
        x = parse_rational(args.x)
    except InvalidInputError as exc:
        raise InvalidInputError(f"--x: {exc}") from exc
    matrix = build_loop_matrix(args.n, x)
    out = {
        "n": args.n,
        "x": x,
        "size": matrix.size,
        "matrix": matrix.entries,
    }
    if args.eigen:
        x0 = find_generic_specialization(args.n)
        blocks = eigenspace_decomposition(args.n, x0)
        values = eigenvalues_at(args.n, x)
        out["eigen"] = {
            "separation_point": x0,
            "blocks": [
                {
                    "partition": lam,
                    "eigenvalue": values[lam],
                    "dimension": len(basis),
                    "basis": basis,
                }
                for lam, basis in blocks.items()
            ],
        }
    return out


def _space(args) -> tensor_oracle.BilinearSpace:
    return tensor_oracle.BilinearSpace(args.flavor, args.k)


def _cmd_oracle(args):
    space = _space(args)
    brute = tensor_oracle.diagonal_insertion_matrix(args.n, space)
    out = {
        "n": args.n,
        "flavor": args.flavor,
        "k": args.k,
        "dim": space.dim,
        "matrix": brute,
    }
    if args.check_loop_matrix:
        x = flavor_specialization(args.flavor, args.k)
        spec_matrix = build_loop_matrix(args.n, x)
        matches = brute == spec_matrix.entries
        out["loop_matrix"] = spec_matrix.entries
        out["specialization"] = x
        out["matches"] = matches
        if not matches:
            raise VerificationError(
                "contraction matrix disagrees with the loop-matrix specialization",
                lhs=brute,
                rhs=spec_matrix.entries,
            )
    if args.rank:
        r, kernel = tensor_oracle.invariant_map_rank(args.n, space)
        out["rank"] = r
        out["kernel"] = kernel
    return out


def _cmd_trade(args):
    space = _space(args)
    tensor_oracle.check_brute_force_budget(args.n, space.dim)
    raw = _load_json(args.contractions, "--contractions")
    vectors = raw if isinstance(raw, list) and raw and isinstance(raw[0], list) else [raw]
    if not all(
        isinstance(vec, list) and not any(isinstance(x, (list, dict)) for x in vec)
        for vec in vectors
    ):
        raise InvalidInputError(
            "--contractions must be a JSON array of rationals, or an array "
            "of such arrays for batch recovery"
        )
    try:
        data = [PairingVector(args.n, [parse_rational(str(x)) for x in vec]) for vec in vectors]
    except InvalidInputError as exc:
        raise InvalidInputError(f"--contractions: {exc}") from exc
    return {
        "n": args.n,
        "flavor": args.flavor,
        "k": args.k,
        "sign": args.sign,
        "recovered": [
            {"coordinates": omega.coordinates, "tensor": omega.tensor}
            for omega in recover_batch(data, args.n, space, sign=args.sign)
        ],
    }


def _cmd_graphs(args):
    if args.contract:
        raw = _load_json(args.contract, "--contract")
        try:
            contracted = contract_edges(graph_from_json(raw))
        except InvalidInputError as exc:
            raise InvalidInputError(f"--contract: {exc}") from exc
        return {"contracted": contracted}
    if args.split != "p2-f1-cubic":
        raise InvalidInputError(
            f"--split: unknown split scenario {args.split!r}; bundled: p2-f1-cubic"
        )
    splittings = enumerate_splittings(
        case_study.parent_graph(), case_study.cubic_scenario()
    )
    return {
        "scenario": args.split,
        "count": len(splittings),
        "splittings": [
            {
                "signature": s.signature,
                "matched_legs": s.ell,
                "multiplicity": s.m,
                "aut": s.aut,
                "variants": len(s.variants),
                "side1": s.gamma1,
                "side2": s.gamma2,
            }
            for s in splittings
        ],
    }


def _cmd_oracle_p2(args):
    if args.nd is not None:
        return {"degree": args.nd, "count": str(plane_counts.kontsevich_nd(args.nd))}
    if args.key is not None:
        value, provenance = plane_counts.lookup_with_provenance(args.key)
        return {"key": args.key, "value": value, "provenance": provenance}
    chi, basepoints = args.pencil
    return {
        "chi": chi,
        "basepoints": basepoints,
        "reducible_members": plane_counts.pencil_reducible_count(chi, basepoints),
    }


def _cmd_appendix(args):
    if args.case:
        value, breakdown = case_study.compute_contribution(args.case)
        return {"case": args.case, "value": value, "breakdown": breakdown}
    report = case_study.compute_rhs_total()
    out = {
        "lhs": report.lhs,
        "contributions": report.contributions,
        "rhs_total": report.rhs_total,
        "agreement": report.agreement,
        "breakdowns": report.breakdowns,
        "lhs_breakdown": report.lhs_breakdown,
        "elliptic_warmup": case_study.elliptic_demo(1, 0, 0, 1),
    }
    if not report.agreement:
        raise VerificationError(
            "the two evaluation routes disagree", lhs=report.lhs, rhs=report.rhs_total
        )
    return out


def _cmd_models(args):
    try:
        ring = load_model(args.name)
    except InvalidInputError as exc:
        raise InvalidInputError(f"--name: {exc}") from exc
    return {
        "name": ring.name,
        "basis": [
            {"label": l, "degree": d} for l, d in zip(ring.labels, ring.degrees)
        ],
        "pairing": ring.pairing,
    }


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodaltrade",
        description="exact pairing calculus, loop-matrix spectra, invariant "
        "tensor oracles, and degeneration bookkeeping",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--seed", type=int, default=0, help="recorded in the report")

    p = sub.add_parser("pairings", help="enumerate n-pairings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--crossings", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_pairings)

    p = sub.add_parser("loopmat", help="the loop matrix and its blocks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, help='rational, e.g. "2" or "7/3"')
    p.add_argument("--eigen", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_loopmat)

    p = sub.add_parser("oracle", help="brute-force diagonal-insertion matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", choices=("orthogonal", "symplectic"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check-loop-matrix", action="store_true")
    p.add_argument("--rank", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("trade", help="recover a tensor from contraction data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", choices=("orthogonal", "symplectic"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--contractions", required=True, help="JSON file with the data vector")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    common(p)
    p.set_defaults(handler=_cmd_trade)

    p = sub.add_parser("graphs", help="contract graphs or enumerate splittings")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--contract", metavar="FILE")
    group.add_argument("--split", metavar="SCENARIO")
    common(p)
    p.set_defaults(handler=_cmd_graphs)

    p = sub.add_parser("oracle-p2", help="plane-curve counts and the count table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nd", type=int, metavar="D")
    group.add_argument("--key", metavar="KEY")
    group.add_argument("--pencil", nargs=2, type=int, metavar=("CHI", "BASEPOINTS"))
    common(p)
    p.set_defaults(handler=_cmd_oracle_p2)

    p = sub.add_parser("appendix", help="the worked example, both routes")
    p.add_argument("--case", choices=case_study.CASE_IDS)
    common(p)
    p.set_defaults(handler=_cmd_appendix)

    p = sub.add_parser("models", help="inspect a bundled cohomology model")
    p.add_argument("--name", required=True)
    common(p)
    p.set_defaults(handler=_cmd_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = jsonable(args.handler(args))
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (NodalTradeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["seed"] = args.seed
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
