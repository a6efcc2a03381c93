"""Command-line surface.

Exit codes: 0 success, 1 a certificate failed verification, 2 invalid
input, 3 a size guard was exceeded. All output is deterministic JSON.
"""

import argparse
import json
import re
import sys
from typing import Optional

from .certificates import certificate_from_json_dict, certificate_to_json_dict
from .cuts import (
    enumerate_important_separators,
    find_irrelevant_vertex,
    tw_reduction_set,
)
from .errors import GuardExceeded, InputError, InternalInvariantError
from .generators import generate
from .graph import Separation, dump_json, graph_to_json_dict, load_graph
from .groups import Cyclic, GroupSpec, Product, Symmetric
from .oracle import _max_packing, _min_gfvs, enumerate_non_null_cycles
from .packing import expansion_from_json_dict, expansion_to_json_dict
from .solver import DriverConfig, solve
from .treedec import td_from_json_dict
from .verify import verify_certificate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_GUARD = 3


def _int_list(text: str) -> list[int]:
    """Comma-separated ASCII decimals: int() alone would also read "1_0"
    and non-ASCII digits."""
    tokens = [tok.strip() for tok in text.split(",") if tok != ""]
    if not all(re.fullmatch(r"-?[0-9]+", tok) for tok in tokens):
        raise InputError(f"expected a comma-separated integer list, got {text!r}")
    return [int(tok) for tok in tokens]


def _group_from_text(text: str) -> GroupSpec:
    """z<N>, s<N>, or a product joined with '*', e.g. z2*s3."""
    parts = []
    for token in text.lower().split("*"):
        token = token.strip()
        if re.fullmatch(r"[zs][0-9]+", token):
            size = int(token[1:])
            parts.append(Cyclic(size) if token[0] == "z" else Symmetric(size))
        else:
            raise InputError(f"cannot parse group {text!r} (use z2, s3, z2*z3, ...)")
    if len(parts) == 1:
        return parts[0]
    return Product(tuple(parts))


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON file {path}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Pack or cover non-null cycles in group-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the driver on a graph")
    p_solve.add_argument("graph", help="graph JSON file")
    p_solve.add_argument("-k", type=int, required=True, help="cycles to pack")
    p_solve.add_argument("--tw-threshold", type=int, default=4, help=(
        "width above which a witness or the fallback answers (default 4, at most "
        "2^63-1); it changes an answer only with --expansion-witness or --oracle-fallback"))
    p_solve.add_argument("--oracle-fallback", action="store_true", help=(
        "above the threshold at k >= 2, answer by exact search (exit 3 past 14 vertices)"))
    p_solve.add_argument("--expansion-witness", metavar="FILE", help=(
        "clique-expansion witness JSON; above the threshold the driver branches on it"))
    p_solve.add_argument("--td", metavar="FILE", help=(
        "tree decomposition JSON of the graph, used instead of min-fill's at the first level"))
    p_solve.add_argument("--out", metavar="FILE", help="certificate file (default stdout)")

    p_oracle = sub.add_parser("oracle", help="exhaustive ground truth")
    p_oracle.add_argument("graph")
    p_oracle.add_argument("--out", metavar="FILE")

    p_gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_odd = gen_sub.add_parser("odd_cycles")
    g_odd.add_argument("--count", type=int, required=True)
    g_odd.add_argument("--length", type=int, default=3)
    g_wall = gen_sub.add_parser("escher_wall")
    g_wall.add_argument("--height", type=int, required=True)
    g_grid = gen_sub.add_parser("zm_grid")
    g_grid.add_argument("--modulus", type=int, required=True)
    g_grid.add_argument("--rows", type=int, required=True)
    g_grid.add_argument("--cols", type=int, required=True)
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--arcs", type=int, required=True)
    g_rand.add_argument("--group", required=True)
    g_clique = gen_sub.add_parser("subdivided_clique")
    g_clique.add_argument("--ell", type=int, required=True)
    g_clique.add_argument("--gadget", choices=["odd", "none"], default="odd")
    for gp in (g_odd, g_wall, g_grid, g_rand, g_clique):
        gp.add_argument("--seed", type=int, default=0)
        gp.add_argument("--out", metavar="FILE")
        gp.add_argument("--witness-out", metavar="FILE")

    p_verify = sub.add_parser("verify", help="check a certificate")
    p_verify.add_argument("graph")
    p_verify.add_argument("certificate")

    p_impsep = sub.add_parser("impsep", help="enumerate important separators")
    p_impsep.add_argument("graph")
    p_impsep.add_argument("--source", required=True)
    p_impsep.add_argument("--target", required=True)
    p_impsep.add_argument("--max-size", type=int, required=True)
    p_impsep.add_argument("--out", metavar="FILE")

    p_twr = sub.add_parser("twreduce", help="treewidth-reduction marking set")
    p_twr.add_argument("graph")
    p_twr.add_argument("--terminals", required=True)
    p_twr.add_argument("-t", type=int, required=True)
    p_twr.add_argument("--z", help="candidate set, default: all non-terminals")
    p_twr.add_argument("--out", metavar="FILE")

    p_irr = sub.add_parser("irrelevant", help="find a deletable vertex")
    p_irr.add_argument("graph")
    p_irr.add_argument("--side-a", required=True)
    p_irr.add_argument("--side-b", required=True)
    p_irr.add_argument("--z", required=True)
    p_irr.add_argument("-p", type=int, required=True)
    p_irr.add_argument("-k", type=int, required=True)
    p_irr.add_argument("--out", metavar="FILE")
    return parser


def _cmd_solve(args) -> int:
    g = load_graph(args.graph)
    expansion = None
    if args.expansion_witness:
        expansion = expansion_from_json_dict(_load_json(args.expansion_witness))
    td = None
    if args.td:
        td = td_from_json_dict(_load_json(args.td))
    cfg = DriverConfig(
        tw_threshold=args.tw_threshold, oracle_fallback=args.oracle_fallback
    )
    cert = solve(g, args.k, cfg, expansion=expansion, td=td)
    _emit(dump_json(certificate_to_json_dict(cert)), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    cycles = enumerate_non_null_cycles(g)
    doc = {
        "non_null_cycles": len(cycles),
        "min_gfvs": _min_gfvs(g, cycles),
        "packing_integral": len(_max_packing(g, cycles, 1)),
        "packing_half_integral": len(_max_packing(g, cycles, 2)),
    }
    _emit(dump_json(doc), args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    params: dict = {}
    if args.family == "odd_cycles":
        params = {"count": args.count, "length": args.length}
    elif args.family == "escher_wall":
        params = {"height": args.height}
    elif args.family == "zm_grid":
        params = {"m": args.modulus, "rows": args.rows, "cols": args.cols}
    elif args.family == "random":
        params = {
            "n": args.n,
            "arc_count": args.arcs,
            "group": _group_from_text(args.group),
        }
    elif args.family == "subdivided_clique":
        params = {"ell": args.ell, "gadget": args.gadget}
    g, extras = generate(args.family, seed=args.seed, **params)
    _emit(dump_json(graph_to_json_dict(g)), args.out)
    if args.witness_out:
        if "expansion" not in extras:
            raise InputError(f"family {args.family} emits no witness")
        _emit(
            dump_json(expansion_to_json_dict(extras["expansion"])), args.witness_out
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    cert = certificate_from_json_dict(_load_json(args.certificate))
    ok, reason = verify_certificate(g, cert)
    _emit(dump_json({"valid": ok, "reason": reason}), None)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_impsep(args) -> int:
    g = load_graph(args.graph)
    result = enumerate_important_separators(
        g, _int_list(args.source), _int_list(args.target), args.max_size
    )
    doc = {
        "inseparable": result.inseparable,
        "separators": [sorted(item.separator) for item in result],
    }
    _emit(dump_json(doc), args.out)
    return EXIT_OK


def _cmd_twreduce(args) -> int:
    g = load_graph(args.graph)
    terminals = _int_list(args.terminals)
    if args.z is not None:
        z = _int_list(args.z)
    else:
        z = [v for v in g.vertices if v not in set(terminals)]
    marked = tw_reduction_set(g, args.t, terminals, z)
    _emit(dump_json({"marked": sorted(marked)}), args.out)
    return EXIT_OK


def _cmd_irrelevant(args) -> int:
    g = load_graph(args.graph)
    sep = Separation(
        frozenset(_int_list(args.side_a)), frozenset(_int_list(args.side_b))
    )
    vertex = find_irrelevant_vertex(g, sep, _int_list(args.z), args.p, args.k)
    _emit(dump_json({"vertex": vertex}), args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "impsep": _cmd_impsep,
    "twreduce": _cmd_twreduce,
    "irrelevant": _cmd_irrelevant,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
