"""File-based command line: generate, combine, color, verify, solve.

All interchange goes through JSON files so runs are replayable; outputs
are byte-deterministic for identical inputs.  Exit codes: 0 success/ok,
2 verification failed, 3 solver budget exhausted, 4 input error (with a
machine-readable error object on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Optional

from . import constructions, families, graphs, rainbow, solver, steiner

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Run:
    """Collects inputs/outputs for the optional run manifest.

    Inputs are digested as they are read, and only when a manifest was
    requested: a command run without ``--manifest`` reads each input once.
    """

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.digests = args.manifest is not None
        self.params = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "func", "manifest") and v is not None
        }
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.started = time.monotonic()

    def _load(self, path: str) -> dict:
        if self.digests:
            self.inputs[path] = _digest(path)
        return graphs.load_json(path)

    def read_graph(self, path: str) -> graphs.Graph:
        return graphs.graph_from_json_dict(self._load(path))

    def read_coloring(self, path: str) -> rainbow.EdgeColoring:
        return rainbow.coloring_from_json_dict(self._load(path))

    def write(self, path: Optional[str], obj: dict) -> None:
        if path is None:
            return
        graphs.dump_json(obj, path)
        self.outputs.append(path)

    def write_text(self, path: Optional[str], text: str) -> None:
        if path is None:
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.outputs.append(path)

    def finish(self, manifest_path: Optional[str]) -> None:
        if manifest_path is None:
            return
        graphs.dump_json(
            {
                "command": self.command,
                "inputs": self.inputs,
                "parameters": self.params,
                "outputs": self.outputs,
                "wall_time_s": round(time.monotonic() - self.started, 6),
            },
            manifest_path,
        )


def _family_spec(args: argparse.Namespace) -> families.FamilySpec:
    return families.FamilySpec(args.family, n=args.n, s=args.s, t=args.t)


def cmd_gen(args: argparse.Namespace, run: _Run) -> int:
    g = families.generate(_family_spec(args))
    run.write(args.output, graphs.graph_to_json_dict(g))
    run.write_text(args.dot, graphs.to_dot(g))
    if args.output is None:
        _print_json(graphs.graph_to_json_dict(g))
    return EXIT_OK


def cmd_product(args: argparse.Namespace, run: _Run) -> int:
    g = run.read_graph(args.g)
    h = run.read_graph(args.h)
    if args.kind == "join":
        derived, labels = graphs.join(g, h), None
    else:
        op = {
            "cartesian": graphs.cartesian_product,
            "strong": graphs.strong_product,
            "lex": graphs.lexicographic_product,
        }[args.kind]
        derived, vm, _ = op(g, h)
        labels = graphs.product_vertex_labels(vm)
    run.write(args.output, graphs.graph_to_json_dict(derived))
    run.write_text(args.dot, graphs.to_dot(derived, vertex_labels=labels))
    if args.output is None:
        _print_json(graphs.graph_to_json_dict(derived))
    return EXIT_OK


def _parse_vertex_list(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(x) for x in text.split(","))


def cmd_color(args: argparse.Namespace, run: _Run) -> int:
    report = _dispatch_color(args, run)
    run.write(args.out_graph, graphs.graph_to_json_dict(report.derived_graph))
    run.write(args.out_coloring, rainbow.coloring_to_json_dict(report.coloring))
    report_obj = {
        "colors_used": report.colors_used,
        "claimed_bound": report.claimed_bound,
        "known_bound": report.known_bound,
        "ok": report.verified.ok,
        "failing": list(report.verified.failing) if report.verified.failing else None,
    }
    run.write(args.out_report, report_obj)
    run.write_text(
        args.dot,
        graphs.to_dot(report.derived_graph, edge_colors=report.coloring.colors),
    )
    _print_json(report_obj)
    return EXIT_OK if report.verified.ok else EXIT_VERIFY_FAILED


def _need(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"{args.op} coloring needs {flags}")


def _dispatch_color(args: argparse.Namespace, run: _Run):
    op = args.op
    if op == "grid":
        if not args.dims:
            raise ValueError("grid coloring needs --dims, e.g. --dims 4,3")
        dims = [int(x) for x in args.dims.split(",")]
        return constructions.grid_coloring(dims)
    if op in ("cartesian", "strong"):
        _need(args, "g", "h", "cg", "ch")
        g, h = run.read_graph(args.g), run.read_graph(args.h)
        cg, ch = run.read_coloring(args.cg), run.read_coloring(args.ch)
        fn = (
            constructions.cartesian_coloring
            if op == "cartesian"
            else constructions.strong_coloring
        )
        return fn(g, cg, h, ch)
    if op == "lex":
        _need(args, "g", "h", "cg")
        g, cg = run.read_graph(args.g), run.read_coloring(args.cg)
        h = run.read_graph(args.h)
        if h.n == 2:
            if h.m != 1:
                raise ValueError("a two-vertex right operand of lex must be K2")
            return constructions.lex_coloring_h2(g, cg)
        if h.n < 3:
            raise ValueError("general lexicographic coloring needs |V(H)| >= 3")
        if args.ch_rc is None:
            raise ValueError("general lexicographic case needs --ch-rc")
        return constructions.lex_coloring_general(g, cg, h, run.read_coloring(args.ch_rc))
    if op == "join":
        _need(args, "g", "h")
        g, h = run.read_graph(args.g), run.read_graph(args.h)
        cg = run.read_coloring(args.cg) if args.cg else None
        ch = run.read_coloring(args.ch) if args.ch else None
        ch_rc = run.read_coloring(args.ch_rc) if args.ch_rc else None
        return constructions.join_coloring(g, h, cg=cg, ch=ch, ch_rc=ch_rc)
    if op == "split":
        _need(args, "g", "cg", "vertex", "n1", "n2")
        g, cg = run.read_graph(args.g), run.read_coloring(args.cg)
        spec = graphs.SplitSpec(
            args.vertex, _parse_vertex_list(args.n1), _parse_vertex_list(args.n2)
        )
        return constructions.split_coloring(g, cg, spec)
    if op == "subdiv":
        _need(args, "g", "cg", "edge")
        g, cg = run.read_graph(args.g), run.read_coloring(args.cg)
        return constructions.subdivision_coloring(g, cg, args.edge)
    raise ValueError(f"unknown coloring op {op!r}")


def cmd_verify(args: argparse.Namespace, run: _Run) -> int:
    g = run.read_graph(args.graph)
    c = run.read_coloring(args.coloring)
    verdict = rainbow.is_k_rainbow(g, c, args.k)
    obj = {
        "ok": verdict.ok,
        "failing": list(verdict.failing) if verdict.failing else None,
    }
    run.write(args.output, obj)
    _print_json(obj)
    return EXIT_OK if verdict.ok else EXIT_VERIFY_FAILED


def cmd_solve(args: argparse.Namespace, run: _Run) -> int:
    g = run.read_graph(args.graph)
    result = solver.rx_exact(g, args.k, budget=args.budget)
    obj = {
        "value": result.value,
        "exact": result.exact,
        "lower": result.lower,
        "upper": result.upper,
        "lower_bound_used": result.lower_bound_used,
        "nodes_explored": result.nodes_explored,
    }
    if args.emit_witness and result.witness is not None:
        run.write(args.emit_witness, rainbow.coloring_to_json_dict(result.witness))
    _print_json(obj)
    return EXIT_OK if result.exact else EXIT_BUDGET


def cmd_sdiam(args: argparse.Namespace, run: _Run) -> int:
    g = run.read_graph(args.graph)
    records = steiner.steiner_records(g) if args.triples else []
    for record in records:
        print(json.dumps(record, sort_keys=True))
    # the records already hold every triple's value; below 3 vertices
    # there are none and sdiam3 refuses the graph
    value = max(r["d"] for r in records) if records else steiner.sdiam3(g)
    obj = {"sdiam3": value}
    run.write(args.output, obj)
    _print_json(obj)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace, run: _Run) -> int:
    entry = families.oracle_rx3(_family_spec(args))
    if entry is None:
        obj = {"oracle": None, "reason": "no covered statement for this instance"}
    else:
        obj = families.oracle_entry_to_json_dict(entry)
    run.write(args.output, obj)
    _print_json(obj)
    return EXIT_OK


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=families.KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowindex",
        description="Rainbow-tree colorings of graph products and operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family instance")
    _add_family_args(p)
    p.add_argument("-o", "--output")
    p.add_argument("--dot")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("product", help="combine two graphs")
    p.add_argument("--kind", required=True, choices=["cartesian", "strong", "lex", "join"])
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--dot")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("color", help="build a constructive coloring")
    p.add_argument(
        "--op",
        required=True,
        choices=["cartesian", "strong", "lex", "join", "split", "subdiv", "grid"],
    )
    p.add_argument("--g")
    p.add_argument("--h")
    p.add_argument("--cg")
    p.add_argument("--ch")
    p.add_argument("--ch-rc", dest="ch_rc")
    p.add_argument("--dims")
    p.add_argument("--vertex", type=int)
    p.add_argument("--n1")
    p.add_argument("--n2")
    p.add_argument("--edge", type=int)
    p.add_argument("--out-graph")
    p.add_argument("--out-coloring")
    p.add_argument("--out-report")
    p.add_argument("--dot")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring is k-rainbow")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.add_argument("-o", "--output")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact rainbow index")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--budget", type=int, default=solver.DEFAULT_BUDGET)
    p.add_argument("--emit-witness")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sdiam", help="3-Steiner diameter")
    p.add_argument("--graph", required=True)
    p.add_argument("--triples", action="store_true", help="also print per-triple records")
    p.add_argument("-o", "--output")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_sdiam)

    p = sub.add_parser("oracle", help="known index values for a family")
    _add_family_args(p)
    p.add_argument("-o", "--output")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_oracle)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; return its exit code without raising SystemExit.

    The parser is built on the first call and reused by every later one:
    ``parse_args`` returns a fresh namespace and leaves the parser as it
    was, so the calls of one process do not see each other.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        # argparse exits 2 on bad flags; normalize to the input-error code
        print(
            json.dumps({"error": "ArgumentError", "detail": "invalid arguments"}),
            file=sys.stderr,
        )
        return EXIT_INPUT
    try:
        run = _Run(args)
        code = args.func(args, run)
        run.finish(args.manifest)
        return code
    except (ValueError, OSError, KeyError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
