"""The benchmark's three workloads: seeded inputs, operation lists and
reference checks.

``build(workload, seed, workdir)`` generates every input from the seed
and returns the operations of one pass.  Each operation calls the
library through a module attribute looked up at call time (so the
traced run's wrappers see it), and each has a check that compares its
output with a reference the library does not produce at run time:
closed forms written here, or values pinned in ``refs.json``.

Seeds change inputs only in ways that leave every reference valid and
every operation's cost about the same: the order of edges, the naming
of colors, split vertices and subdivided edges, and the order of
operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Any, Callable, Optional

from rainbowindex import cli, constructions, families, graphs, rainbow, solver, steiner

REFS_PATH = Path(__file__).with_name("refs.json")

WORKLOADS = ("construct", "verify-mixed", "solve-families")

# Fixed seed of the verify-mixed instance pool; refs.json pins its verdicts.
POOL_SEED = 1312_0098
SOLVE_BUDGET = 20_000


@dataclass
class Op:
    """One timed operation and the check of its output (returns a
    mismatch message, or None when the output matches its reference)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    decided: Callable[[Any], bool] = lambda out: True


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------

def rx3_ref(kind: str, n: int) -> int:
    """3-rainbow index of a path, cycle (n >= 4) or complete graph."""
    return {"path": n - 1, "cycle": n - 2, "complete": 2 if n <= 5 else 3}[kind]


def rc_ref(kind: str, n: int) -> int:
    """Rainbow connection number of a path, cycle (n >= 4) or complete graph."""
    return {"path": n - 1, "cycle": ceil(n / 2), "complete": 1}[kind]


def sdiam3_cycle_ref(n: int) -> int:
    """Three vertices on C_n leave three gaps; the tree skips the largest."""
    return n - ceil(n / 3)


def short_name(kind: str, n: int) -> str:
    return {"path": "P", "cycle": "C", "complete": "K"}[kind] + str(n)


def _expect_report(expected_used: int, expected_n: int) -> Callable[[Any], Optional[str]]:
    def check(report) -> Optional[str]:
        if not report.ok or report.verified.failing is not None:
            return f"verdict {report.verified} for a valid construction"
        if report.colors_used != expected_used:
            return f"colors_used {report.colors_used} != {expected_used}"
        if report.colors_used > report.claimed_bound:
            return f"colors_used {report.colors_used} > claimed {report.claimed_bound}"
        if report.derived_graph.n != expected_n:
            return f"derived graph has {report.derived_graph.n} vertices, not {expected_n}"
        return None

    return check


def _expect_equal(expected) -> Callable[[Any], Optional[str]]:
    return lambda out: None if out == expected else f"{out!r} != {expected!r}"


# ---------------------------------------------------------------------------
# Input transformations that keep every reference valid
# ---------------------------------------------------------------------------

def shuffled_edges(rng: random.Random, g: graphs.Graph) -> graphs.Graph:
    """The same graph with its edge indices in a random order."""
    order = list(range(g.m))
    rng.shuffle(order)
    return graphs.build_graph(g.n, [g.edges[e] for e in order])


def scrambled(
    rng: random.Random, g: graphs.Graph, c: rainbow.EdgeColoring
) -> tuple[graphs.Graph, rainbow.EdgeColoring]:
    """The same colored graph under a random edge order and a random
    renaming of colors; neither changes a verdict or its failing set."""
    order = list(range(g.m))
    rng.shuffle(order)
    names = list(range(c.palette_size))
    rng.shuffle(names)
    return (
        graphs.build_graph(g.n, [g.edges[e] for e in order]),
        rainbow.EdgeColoring(tuple(names[c.colors[e]] for e in order), c.palette_size),
    )


def warm(g: graphs.Graph) -> None:
    """Fill the graph's lazy caches so no pass pays for them."""
    g.adjacency, g.incidence


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

OPERANDS = (
    ("path", 3), ("path", 4), ("path", 5),
    ("cycle", 4), ("cycle", 5), ("cycle", 6), ("cycle", 7),
    ("complete", 4), ("complete", 5),
)
GRIDS = ((6, 6), (8, 8), (5, 5, 3), (4, 4, 4))
# Operands of each construction, by name.  They are fixed, because which
# small operands run decides the median latency; the seed reorders their
# edges (so the solver's witnesses differ) and picks split vertices and
# subdivided edges.  With 55 operations per pass, the pooled median and
# 90th percentile fall mid-way through one operation's samples rather
# than between two operations of different cost.
PRODUCT_PAIRS = (
    ("P3", "C4"), ("P4", "C5"), ("P5", "K4"), ("C4", "C5"), ("C5", "K4"), ("C6", "P3"),
    ("C7", "P3"), ("K4", "P4"), ("K5", "P3"), ("C4", "K5"), ("P4", "C6"), ("C5", "P5"),
    ("K4", "C6"),
)
LEX_H2 = ("C6", "P5")
LEX_GENERAL = (("C5", "P3"), ("P4", "C4"), ("C6", "K4"))
JOIN_K1, JOIN_P2, JOIN_GENERAL = "C6", "C7", ("C4", "C6")
SPLIT = ("C7", "K5")
SUBDIVIDE = ("C6", "K4")


@dataclass
class Operand:
    kind: str
    n: int
    graph: graphs.Graph
    w3: rainbow.EdgeColoring  # solver witness, 3-rainbow
    w2: rainbow.EdgeColoring  # solver witness, rainbow connected

    @property
    def name(self) -> str:
        return short_name(self.kind, self.n)

    @property
    def rx3(self) -> int:
        return rx3_ref(self.kind, self.n)

    @property
    def rc(self) -> int:
        return rc_ref(self.kind, self.n)


def _operand(rng: random.Random, kind: str, n: int) -> Operand:
    g = shuffled_edges(rng, families.generate(families.FamilySpec(kind, n=n)))
    warm(g)
    return Operand(
        kind, n, g, solver.rx_exact(g, 3).witness, solver.rx_exact(g, 2).witness
    )


def _construct_ops(rng: random.Random, workdir: Path, refs: dict) -> list[Op]:
    operands = {o.name: o for o in (_operand(rng, kind, n) for kind, n in OPERANDS)}
    for o in operands.values():
        if o.w3.palette_size != o.rx3 or o.w2.palette_size != o.rc:
            raise RuntimeError(f"solver witness palettes for {o.name} disagree with closed forms")
    C = constructions
    ops: list[Op] = []

    for dims in GRIDS:
        n = 1
        for d in dims:
            n *= d
        ops.append(Op(
            f"grid_coloring({','.join(map(str, dims))})",
            lambda dims=dims: C.grid_coloring(dims),
            _expect_report(sum(dims) - len(dims), n),
        ))

    for g, h in ((operands[a], operands[b]) for a, b in PRODUCT_PAIRS):
        for fname in ("cartesian_coloring", "strong_coloring"):
            ops.append(Op(
                f"{fname}({g.name},{h.name})",
                lambda f=fname, g=g, h=h: getattr(C, f)(g.graph, g.w3, h.graph, h.w3),
                _expect_report(g.rx3 + h.rx3, g.n * h.n),
            ))

    for g in (operands[a] for a in LEX_H2):
        ops.append(Op(
            f"lex_coloring_h2({g.name})",
            lambda g=g: C.lex_coloring_h2(g.graph, g.w3),
            _expect_report(g.rx3 + 1, 2 * g.n),
        ))
    for g, h in ((operands[a], operands[b]) for a, b in LEX_GENERAL):
        ops.append(Op(
            f"lex_coloring_general({g.name},{h.name})",
            lambda g=g, h=h: C.lex_coloring_general(g.graph, g.w3, h.graph, h.w2),
            _expect_report(g.rx3 + h.rc, g.n * h.n),
        ))

    k1, p2 = families.path(1), families.path(2)
    h = operands[JOIN_K1]
    ops.append(Op(
        f"join_coloring(K1,{h.name})",
        lambda h=h: C.join_coloring(k1, h.graph, ch=h.w3),
        _expect_report(h.rx3 + 1, 1 + h.n),
    ))
    h = operands[JOIN_P2]
    ops.append(Op(
        f"join_coloring(P2,{h.name})",
        lambda h=h: C.join_coloring(p2, h.graph, ch_rc=h.w2),
        _expect_report(h.rc + 3, 2 + h.n),
    ))
    g, h = (operands[a] for a in JOIN_GENERAL)
    ops.append(Op(
        f"join_coloring({g.name},{h.name})",
        lambda g=g, h=h: C.join_coloring(g.graph, h.graph, cg=g.w3, ch=h.w3),
        _expect_report(max(g.rx3, h.rx3) + 1, g.n + h.n),
    ))

    for g in (operands[a] for a in SPLIT):
        v = rng.randrange(g.n)
        nbrs = list(g.graph.neighbors(v))
        rng.shuffle(nbrs)
        cut = rng.randrange(1, len(nbrs))
        spec = graphs.SplitSpec(v, frozenset(nbrs[:cut]), frozenset(nbrs[cut:]))
        ops.append(Op(
            f"split_coloring({g.name})",
            lambda g=g, spec=spec: C.split_coloring(g.graph, g.w3, spec),
            _expect_report(g.rx3 + 1, g.n + 1),
        ))
    for g in (operands[a] for a in SUBDIVIDE):
        e = rng.randrange(g.graph.m)
        ops.append(Op(
            f"subdivision_coloring({g.name})",
            lambda g=g, e=e: C.subdivision_coloring(g.graph, g.w3, e),
            _expect_report(g.rx3 + 1, g.n + 1),
        ))

    c120 = families.cycle(120)
    warm(c120)
    ops.append(Op(
        "sdiam3(C120)", lambda: steiner.sdiam3(c120), _expect_equal(sdiam3_cycle_ref(120))
    ))

    rng.shuffle(ops)
    return ops + _cli_ops(workdir, refs)


# The README's command-line workflow plus the 8x8 grid checked with one and
# two worker processes.  Paths are relative to the work directory.
CLI_COMMANDS = (
    ("gen-p4", "gen --family path --n 4 -o p4.json"),
    ("gen-p3", "gen --family path --n 3 -o p3.json"),
    ("product", "product --kind cartesian --g p4.json --h p3.json -o grid.json"),
    ("solve-p4", "solve --graph p4.json --k 3 --emit-witness c4.json"),
    ("solve-p3", "solve --graph p3.json --k 3 --emit-witness c3.json"),
    ("color", "color --op cartesian --g p4.json --h p3.json --cg c4.json --ch c3.json"
              " --out-graph gridg.json --out-coloring gridc.json --out-report rep.json"),
    ("verify", "verify --graph gridg.json --coloring gridc.json --k 3"),
    ("sdiam", "sdiam --graph gridg.json --triples"),
    ("oracle", "oracle --family complete_bipartite --s 2 --t 9"),
    ("grid-8x8", "color --op grid --dims 8,8 --out-graph g88.json --out-coloring c88.json"),
    ("verify-8x8", "verify --graph g88.json --coloring c88.json --k 3"),
    ("verify-8x8-jobs2", "verify --graph g88.json --coloring c88.json --k 3 --jobs 2"),
)
_FILE_ARGS = {"-o", "--g", "--h", "--cg", "--ch", "--graph", "--coloring", "--emit-witness",
              "--out-graph", "--out-coloring", "--out-report"}
_OUTPUT_ARGS = {"-o", "--emit-witness", "--out-graph", "--out-coloring", "--out-report"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_argv(command: str, workdir: Path) -> tuple[list[str], list[str]]:
    """The argv of a workflow command with file arguments inside
    ``workdir``, and the names of the files it writes."""
    words = command.split()
    argv, outputs = [], []
    for i, w in enumerate(words):
        prev = words[i - 1] if i else ""
        argv.append(str(workdir / w) if prev in _FILE_ARGS else w)
        if prev in _OUTPUT_ARGS:
            outputs.append(w)
    return argv, outputs


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ops(workdir: Path, refs: dict) -> list[Op]:
    ops = []
    for name, command in CLI_COMMANDS:
        argv, outputs = cli_argv(command, workdir)
        ref = refs[name]

        def check(result, ref=ref, outputs=outputs) -> Optional[str]:
            code, stdout, stderr = result
            if code != ref["exit"] or stderr:
                return f"exit {code}, stderr {stderr!r}"
            if sha256(stdout.encode()) != ref["stdout"]:
                return "stdout differs from the pinned bytes"
            for f in outputs:
                if sha256((workdir / f).read_bytes()) != ref["files"][f]:
                    return f"{f} differs from the pinned bytes"
            return None

        ops.append(Op(f"cli {name}", lambda argv=argv: run_cli(argv), check))
    return ops


# ---------------------------------------------------------------------------
# verify-mixed
# ---------------------------------------------------------------------------

# (label, build function) of the constructions whose colorings get one edge recolored.
RECOLOR_BASES = (
    ("grid(4,4)", lambda w: constructions.grid_coloring((4, 4))),
    ("grid(5,4)", lambda w: constructions.grid_coloring((5, 4))),
    ("grid(3,3,2)", lambda w: constructions.grid_coloring((3, 3, 2))),
    ("cartesian(C5,P4)", lambda w: constructions.cartesian_coloring(*w["C5"], *w["P4"])),
    ("cartesian(C6,C4)", lambda w: constructions.cartesian_coloring(*w["C6"], *w["C4"])),
    ("strong(P4,P3)", lambda w: constructions.strong_coloring(*w["P4"], *w["P3"])),
    ("strong(C5,P3)", lambda w: constructions.strong_coloring(*w["C5"], *w["P3"])),
    ("lex_h2(C7)", lambda w: constructions.lex_coloring_h2(*w["C7"])),
    ("lex_general(C5,P3)", lambda w: constructions.lex_coloring_general(
        *w["C5"], w["P3"][0], w["P3rc"])),
    ("join(C4,C6)", lambda w: constructions.join_coloring(
        w["C4"][0], w["C6"][0], cg=w["C4"][1], ch=w["C6"][1])),
    ("split(C8)", lambda w: constructions.split_coloring(
        *w["C8"], graphs.SplitSpec(0, frozenset({1}), frozenset({7})))),
    ("join(K4,C8)", lambda w: constructions.join_coloring(
        w["K4"][0], w["C8"][0], cg=w["K4"][1], ch=w["C8"][1])),
    ("subdiv(C8)", lambda w: constructions.subdivision_coloring(*w["C8"], 3)),
)
RECOLORINGS_PER_BASE = 4
GNP_COUNT = 75
# (family, parameters, palettes) of the dense graphs.  The palettes keep
# reach antichains at 100 to 250 masks: near-all-distinct for K7 and K3,5,
# but 16 or 17 of K8's 28 edges, since all-distinct K8 verdicts take 17 s.
DENSE = (
    ("complete", {"n": 7}, (16, 17, 18)),
    ("complete", {"n": 8}, (16, 17)),
    ("complete_bipartite", {"s": 3, "t": 5}, (13, 14, 15)),
)
DENSE_COUNT = 23


def verify_pool() -> list[tuple[str, graphs.Graph, rainbow.EdgeColoring, int]]:
    """The fixed verify-mixed instances (id, graph, coloring, k), before
    the run seed scrambles them."""
    rng = random.Random(POOL_SEED)
    pool = []

    witnesses = {}
    for kind, n in (("path", 3), ("path", 4), ("cycle", 4), ("cycle", 5), ("cycle", 6),
                    ("cycle", 7), ("cycle", 8), ("complete", 4)):
        g = families.generate(families.FamilySpec(kind, n=n))
        witnesses[short_name(kind, n)] = (g, rx3_witness(g, kind, n))
    witnesses["P3rc"] = rainbow.EdgeColoring((0, 1), 2)
    for label, build_base in RECOLOR_BASES:
        report = build_base(witnesses)
        g, c = report.derived_graph, report.coloring
        for r in range(RECOLORINGS_PER_BASE):
            e = rng.randrange(g.m)
            new = rng.choice([x for x in range(c.palette_size) if x != c.colors[e]])
            colors = list(c.colors)
            colors[e] = new
            k = 2 if r == RECOLORINGS_PER_BASE - 1 else 3
            pool.append((f"recolor {label} #{r}", g,
                         rainbow.EdgeColoring(tuple(colors), c.palette_size), k))

    for i in range(GNP_COUNT):
        n, p = rng.randint(16, 24), rng.uniform(0.18, 0.30)
        palette, k = rng.randint(6, 10), 2 + i % 2
        while True:
            g = graphs.build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            if graphs.is_connected(g):
                break
        colors = tuple(rng.randrange(palette) for _ in range(g.m))
        pool.append((f"gnp #{i}", g, rainbow.EdgeColoring(colors, palette), k))

    for i in range(DENSE_COUNT):
        kind, params, palettes = DENSE[i % len(DENSE)]
        g = families.generate(families.FamilySpec(kind, **params))
        palette = rng.choice(palettes)
        colors = list(range(palette)) + [rng.randrange(palette) for _ in range(g.m - palette)]
        rng.shuffle(colors)
        pool.append((f"dense {kind} #{i}", g,
                     rainbow.EdgeColoring(tuple(colors), palette), 2 + (i // 3) % 2))
    return pool


def rx3_witness(g: graphs.Graph, kind: str, n: int) -> rainbow.EdgeColoring:
    """A 3-rainbow coloring at the exact index, found by the solver."""
    w = solver.rx_exact(g, 3).witness
    if w.palette_size != rx3_ref(kind, n):
        raise RuntimeError(f"solver witness for {kind} {n} has palette {w.palette_size}")
    return w


def _verify_ops(rng: random.Random, refs: dict) -> list[Op]:
    ops = []
    for name, g, c, k in verify_pool():
        g, c = scrambled(rng, g, c)
        warm(g)
        ref = refs[name]
        expected = rainbow.Verdict(ref["ok"], None if ref["failing"] is None else tuple(ref["failing"]))
        ops.append(Op(
            f"is_k_rainbow({name},k={k})",
            lambda g=g, c=c, k=k: rainbow.is_k_rainbow(g, c, k),
            _expect_equal(expected),
        ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# solve-families
# ---------------------------------------------------------------------------

def _family(kind: str, **params) -> Callable[[], graphs.Graph]:
    return lambda: families.generate(families.FamilySpec(kind, **params))


def _box(a: int, b: int, first: str = "path") -> Callable[[], graphs.Graph]:
    return lambda: graphs.cartesian_product(
        families.generate(families.FamilySpec(first, n=a)), families.path(b)
    )[0]


SOLVE_GRAPHS = (
    ("P6", _family("path", n=6)), ("P8", _family("path", n=8)),
    ("C5", _family("cycle", n=5)), ("C6", _family("cycle", n=6)),
    ("C7", _family("cycle", n=7)), ("C8", _family("cycle", n=8)),
    ("K4", _family("complete", n=4)), ("K5", _family("complete", n=5)),
    ("K6", _family("complete", n=6)),
    ("K2,3", _family("complete_bipartite", s=2, t=3)),
    ("K2,4", _family("complete_bipartite", s=2, t=4)),
    ("K2,5", _family("complete_bipartite", s=2, t=5)),
    ("K3,3", _family("complete_bipartite", s=3, t=3)),
    ("S6", _family("star", n=6)),
    ("P2xP3", _box(2, 3)), ("P2xP4", _box(2, 4)),
    ("C4xP2", _box(4, 2, "cycle")), ("P3xP3", _box(3, 3)),
)


def _solve_check(value: int) -> Callable[[Any], Optional[str]]:
    def check(result) -> Optional[str]:
        if result.exact:
            if result.value != value:
                return f"value {result.value} != {value}"
            if result.witness.colors_used != value:
                return f"witness uses {result.witness.colors_used} colors, not {value}"
        elif not result.lower <= value <= result.upper:
            return f"interval [{result.lower}, {result.upper}] misses {value}"
        return None

    return check


def _solve_ops(rng: random.Random, refs: dict) -> list[Op]:
    ops = []
    for name, make in SOLVE_GRAPHS:
        g = make()
        warm(g)
        for k in (2, 3):
            ops.append(Op(
                f"rx_exact({name},{k})",
                lambda g=g, k=k: solver.rx_exact(g, k, budget=SOLVE_BUDGET),
                _solve_check(refs[f"{name}/{k}"]),
                decided=lambda result: result.exact,
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one pass of ``workload`` with inputs from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    refs = json.loads(REFS_PATH.read_text())
    if workload == "construct":
        return _construct_ops(rng, workdir, refs["cli"])
    if workload == "verify-mixed":
        return _verify_ops(rng, refs["verify"])
    if workload == "solve-families":
        return _solve_ops(rng, refs["solve"])
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warm_up(workload: str) -> None:
    """One small call of the workload's kind, so lazy imports and first-call
    costs land in set-up."""
    if workload == "construct":
        constructions.grid_coloring((3, 3))
    elif workload == "verify-mixed":
        g = families.cycle(5)
        rainbow.is_k_rainbow(g, rainbow.EdgeColoring((0, 1, 2, 0, 1), 3), 3)
    else:
        solver.rx_exact(families.path(4), 3)
