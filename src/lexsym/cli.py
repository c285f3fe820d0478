"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 computation or input error.
Reports go to stdout as JSON (or graph text for `product`); diagnostics go
to stderr.  Output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .graphs import Graph, GraphError, lex_product
from .formats import FormatError, content_hash, parse_graph, write_graph
from .wl import stable_colouring
from .groups import DEFAULT_MAX_DEGREE, orbits, orbitals, stabiliser_chain
from .analysis import _verify, analyze_product
from .decompose import qut_expression, split
from .expressions import serialize, to_tree
from .sweeps import CounterexampleError, sabidussi_sweep


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_graph(path: str, fmt: str) -> Graph:
    p = Path(path)
    try:
        text = p.read_text(errors="replace")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    return parse_graph(text, fmt)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, separators=(", ", ": ")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexsym",
                     description="Lexicographic-product symmetry toolkit")
    parser.add_argument("--format", choices=("text", "graph6"), default="text",
                        help="input graph format")
    parser.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
                        help="vertex bound for the brute-force symmetry oracle")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("product", help="lexicographic product of two graphs")
    p.add_argument("x_file")
    p.add_argument("y_file")

    p = sub.add_parser("wl", help="stable pair colouring")
    p.add_argument("graph_file")

    p = sub.add_parser("aut", help="automorphism group summary")
    p.add_argument("graph_file")

    p = sub.add_parser("analyze", help="wreath verdict for a product")
    p.add_argument("x_file")
    p.add_argument("y_file")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("decompose", help="first split of the structural walk")
    p.add_argument("graph_file")

    p = sub.add_parser("qut", help="symbolic quantum symmetry expression")
    p.add_argument("graph_file")

    p = sub.add_parser("verify", help="stable-colouring separation checks")
    p.add_argument("x_file")
    p.add_argument("y_file")

    p = sub.add_parser("sweep", help="exhaustive wreath-equivalence sweep")
    p.add_argument("--max-nx", type=int, required=True)
    p.add_argument("--max-ny", type=int, required=True)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for bound in ("max_degree", "max_nx", "max_ny"):
        if getattr(args, bound, 0) < 0:
            parser.error(f"--{bound.replace('_', '-')} must be non-negative")
    try:
        return _dispatch(args)
    except (FormatError, GraphError, CounterexampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb == "product":
        x = _load_graph(args.x_file, args.format)
        y = _load_graph(args.y_file, args.format)
        sys.stdout.write(write_graph(lex_product(x, y)))
        return 0

    if args.verb == "wl":
        g = _load_graph(args.graph_file, args.format)
        trace = stable_colouring(g)
        stable = trace.stable
        _emit_json({"schema": 1, "rounds": trace.stable_round,
                    "classes": stable.num_colours, "colour": stable.matrix()})
        return 0

    if args.verb == "aut":
        g = _load_graph(args.graph_file, args.format)
        group = stabiliser_chain(g, args.max_degree)
        _emit_json({"schema": 1, "order": group.order,
                    "orbits": orbits(group),
                    "orbitals_count": len(orbitals(group))})
        return 0

    if args.verb == "analyze":
        x = _load_graph(args.x_file, args.format)
        y = _load_graph(args.y_file, args.format)
        report = analyze_product(x, y, args.max_degree)
        if args.as_json:
            _emit_json(report.as_dict())
        else:
            print(f"verdict: {report.verdict}")
            print(f"quantum: {serialize(report.quantum_expr)}")
            if report.classical_skipped is None:
                eq = "=" if report.aut_order == report.wreath_order else "!="
                print(f"classical: aut_order {report.aut_order} {eq} "
                      f"wreath_order {report.wreath_order}")
            else:
                print(f"classical: skipped({report.classical_skipped})")
        return 0

    if args.verb == "decompose":
        g = _load_graph(args.graph_file, args.format)
        report = split(g, args.max_degree)
        quotient = report.quotient
        _emit_json({"schema": 2, "kind": report.kind,
                    "modules": [list(m) for m in report.modules],
                    "quotient": None if quotient is None else
                    {"hash": content_hash(quotient), "text": write_graph(quotient)}})
        return 0

    if args.verb == "qut":
        g = _load_graph(args.graph_file, args.format)
        expr = qut_expression(g, args.max_degree)
        _emit_json({"schema": 1, "expr": serialize(expr), "tree": to_tree(expr)})
        return 0

    if args.verb == "verify":
        x = _load_graph(args.x_file, args.format)
        y = _load_graph(args.y_file, args.format)
        sep, violations = _verify(x, y)
        _emit_json({"schema": 1,
                    "edges_separated": sep.inner_outer_edges_separated,
                    "nonedges_separated": sep.inner_outer_nonedges_separated,
                    "witnesses": [list(map(list, w)) for w in sep.failing_witnesses],
                    "first_iteration_violations": violations})
        return 0

    if args.verb == "sweep":
        summary = sabidussi_sweep(args.max_nx, args.max_ny, args.max_degree)
        _emit_json(summary)
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
