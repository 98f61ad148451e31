"""Spans around calls into the library, and the per-layer metrics they give.

The traced run wraps the public functions listed in ``TRACED``.  Several
modules bind these with ``from ... import``, so ``Tracer.install`` puts a
wrapper on every attribute of every ``rainbowindex`` module that holds
one of the originals, and ``Tracer.restore`` puts each original back.
Each call records a span (name, start, end, parent span, operation id)
in memory; ``Tracer.retime`` converts their raw times into the host
clock's reference seconds (see ``hostclock.py``) and ``Tracer.dump``
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# span name -> (defining module, function)
TRACED = {
    "graphs.cartesian_product": ("graphs", "cartesian_product"),
    "graphs.strong_product": ("graphs", "strong_product"),
    "graphs.lexicographic_product": ("graphs", "lexicographic_product"),
    "graphs.join": ("graphs", "join"),
    "graphs.split_vertex": ("graphs", "split_vertex"),
    "graphs.subdivide_edge": ("graphs", "subdivide_edge"),
    "graphs.load_json": ("graphs", "load_json"),
    "graphs.dump_json": ("graphs", "dump_json"),
    "steiner.sdiam3": ("steiner", "sdiam3"),
    "steiner.all_pairs_distances": ("steiner", "all_pairs_distances"),
    "steiner.steiner_records": ("steiner", "steiner_records"),
    "rainbow.is_k_rainbow": ("rainbow", "is_k_rainbow"),
    "rainbow.partial_failure": ("rainbow", "partial_failure"),
    "solver.rx_exact": ("solver", "rx_exact"),
    "solver.lower_bound": ("solver", "lower_bound"),
    "constructions.cartesian_coloring": ("constructions", "cartesian_coloring"),
    "constructions.strong_coloring": ("constructions", "strong_coloring"),
    "constructions.grid_coloring": ("constructions", "grid_coloring"),
    "constructions.lex_coloring_h2": ("constructions", "lex_coloring_h2"),
    "constructions.lex_coloring_general": ("constructions", "lex_coloring_general"),
    "constructions.join_coloring": ("constructions", "join_coloring"),
    "constructions.split_coloring": ("constructions", "split_coloring"),
    "constructions.subdivision_coloring": ("constructions", "subdivision_coloring"),
    "families.generate": ("families", "generate"),
    "families.path": ("families", "path"),
    "families.cycle": ("families", "cycle"),
    "families.complete": ("families", "complete"),
    "families.complete_bipartite": ("families", "complete_bipartite"),
    "families.star": ("families", "star"),
    "families.empty": ("families", "empty"),
    "families.oracle_rx3": ("families", "oracle_rx3"),
    "cli.main": ("cli", "main"),
}

PRODUCTS = {"graphs.cartesian_product", "graphs.strong_product", "graphs.lexicographic_product",
            "graphs.join", "graphs.split_vertex", "graphs.subdivide_edge"}
JSON_IO = {"graphs.load_json", "graphs.dump_json"}
CONSTRUCTIONS = {name for name in TRACED if name.startswith("constructions.")}
GENERATORS = {name for name in TRACED if name.startswith("families.")} - {"families.oracle_rx3"}


def _verify_info(args, kwargs, verdict) -> dict:
    g, coloring, k = args[0], args[1], args[2] if len(args) > 2 else kwargs["k"]
    jobs = args[3] if len(args) > 3 else kwargs.get("jobs", 1)
    return {"g": g, "coloring": coloring, "k": k, "jobs": jobs, "failing": verdict.failing}


INFO: dict[str, Callable] = {
    "rainbow.is_k_rainbow": _verify_info,
    "rainbow.partial_failure": lambda args, kwargs, bad: {"pruned": bad is not None},
    "solver.rx_exact": lambda args, kwargs, r: {"nodes": r.nodes_explored, "exact": r.exact},
}


@dataclass
class Span:
    name: str
    op: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: Optional[dict] = None  # recorded arguments and results, for some names

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped library calls and of the benchmark's own
    operations, all in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str, op: str):
        """A span opened by the benchmark itself (an operation or set-up)."""
        s = self._open(name, op)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str, op: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else ""
        s = Span(name, op, parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if info is not None:
                s.info = info(args, kwargs, out)
            return out

        traced.bench_span = name
        return traced

    @contextmanager
    def installed(self):
        """Wrappers in place for the block; yields the number of bindings."""
        try:
            yield self.install()
        finally:
            self.restore()

    def install(self) -> int:
        """Wrap every binding of a traced function in the package; returns
        the number of bindings wrapped."""
        wrappers = {}
        for name, (module, fn) in TRACED.items():
            original = getattr(importlib.import_module(f"rainbowindex.{module}"), fn)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return len(self._installed)

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        left = [f"{m.__name__}.{a}" for m in _package_modules()
                for a, v in vars(m).items() if hasattr(v, "bench_span")]
        if left:
            raise RuntimeError(f"wrappers left in place: {left}")

    def retime(self, convert: Callable[[float], float]) -> None:
        """Replaces every span's raw start and end by ``convert`` of them."""
        for s in self.spans:
            s.start, s.end = convert(s.start), convert(s.end)

    def dump(self, path: Path) -> None:
        rows = [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rainbowindex" or name.startswith("rainbowindex."))]


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def triple_rank(n: int, t: tuple[int, int, int]) -> int:
    """Position of the 3-set t in the lexicographic order of 3-sets of n."""
    a, b, c = t
    return comb(n, 3) - comb(n - a, 3) + comb(n - a - 1, 2) - comb(n - b, 2) + (c - b - 1)


class PassView:
    """The spans of one traced pass: spans[lo:hi] of the tracer."""

    def __init__(self, spans: list[Span], lo: int, hi: int):
        self.all = spans
        self.ids = range(lo, hi)
        self.children: dict[int, list[int]] = {}
        for i in self.ids:
            self.children.setdefault(spans[i].parent, []).append(i)

    def _has_ancestor(self, i: int, names: set[str]) -> bool:
        p = self.all[i].parent
        while p >= 0:
            if self.all[p].name in names:
                return True
            p = self.all[p].parent
        return False

    def _top_ids(self, names: set[str], under: Optional[set[str]] = None) -> list[int]:
        return [i for i in self.ids
                if self.all[i].name in names and not self._has_ancestor(i, names)
                and (under is None or self._has_ancestor(i, under))]

    def top(self, names: set[str], under: Optional[set[str]] = None) -> list[Span]:
        """Spans named in ``names`` not nested in another such span (and,
        when given, nested in a span named in ``under``)."""
        return [self.all[i] for i in self._top_ids(names, under)]

    def seconds(self, names: set[str]) -> float:
        return sum(s.seconds for s in self.top(names))

    def self_seconds(self, names: set[str]) -> float:
        """Time in ``names`` spans minus the time of their child spans."""
        return sum(
            self.all[i].seconds - sum(self.all[c].seconds for c in self.children.get(i, ()))
            for i in self._top_ids(names)
        )

    def op_seconds(self, op: str) -> list[float]:
        return [s.seconds for s in self.top({"op"}) if s.op == op]


def probe_reach(
    view: PassView, reach: Callable, elapsed: Callable[[float, float], float]
) -> dict[str, float]:
    """Time ``rainbow_reach`` from every source each verdict of the pass
    used (for k=2, the sources up to the first failing pair), apart from
    the verdicts, and measure the reach families' sizes.  ``elapsed``
    turns two ``perf_counter()`` readings into seconds."""
    seconds, sizes = 0.0, []
    for s in view.top({"rainbow.is_k_rainbow"}):
        g, coloring, failing = s.info["g"], s.info["coloring"], s.info["failing"]
        sources = g.n if s.info["k"] == 3 or failing is None else failing[0] + 1
        for src in range(sources):
            t0 = perf_counter()
            fams = reach(g, coloring, src)
            seconds += elapsed(t0, perf_counter())
            sizes.extend(len(f) for t, f in enumerate(fams) if t != src)
    return {
        "rainbow.reach_s": seconds,
        "rainbow.antichain_max": max(sizes, default=0),
        "rainbow.antichain_mean": statistics.fmean(sizes) if sizes else 0.0,
    }


# The ROADMAP's named single-operation cases: metric -> operation name.
CASES = {
    "case.grid_coloring_553_s": "grid_coloring(5,5,3)",
    "case.rx_exact_K6_3_s": "rx_exact(K6,3)",
    "case.rx_exact_K25_3_s": "rx_exact(K2,5,3)",
    "case.sdiam3_C120_s": "sdiam3(C120)",
}


def layer_metrics(view: PassView, setup: PassView, probe: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced pass (the families metrics
    also count the traced set-up)."""
    verify = view.top({"rainbow.is_k_rainbow"})
    partial = view.top({"rainbow.partial_failure"})
    solves = view.top({"solver.rx_exact"})
    verify_in_constructions = view.top({"rainbow.is_k_rainbow"}, under=CONSTRUCTIONS)
    construction_s = view.seconds(CONSTRUCTIONS)
    solve_s = view.seconds({"solver.rx_exact"})
    nodes = sum(s.info["nodes"] for s in solves)
    verify_s = view.seconds({"rainbow.is_k_rainbow"})
    grid88 = [s.seconds for s in verify
              if (s.info["g"].n, s.info["g"].m, s.info["k"], s.info["jobs"]) == (64, 112, 3, 1)]
    m = {
        "graphs.product_s": view.seconds(PRODUCTS),
        "graphs.product_calls": len(view.top(PRODUCTS)),
        "graphs.json_s": view.seconds(JSON_IO),
        "steiner.sdiam3_s": view.seconds({"steiner.sdiam3"}),
        "steiner.sdiam3_calls": len(view.top({"steiner.sdiam3"})),
        "steiner.apd_s": view.seconds({"steiner.all_pairs_distances"}),
        "steiner.records_s": view.seconds({"steiner.steiner_records"}),
        "rainbow.verify_s": verify_s,
        "rainbow.verify_calls": len(verify),
        "rainbow.reach_s": probe["rainbow.reach_s"],
        "rainbow.scan_s": verify_s - probe["rainbow.reach_s"],
        "rainbow.triples_scanned": sum(
            comb(s.info["g"].n, 3) if s.info["failing"] is None
            else triple_rank(s.info["g"].n, s.info["failing"]) + 1
            for s in verify if s.info["k"] == 3
        ),
        "rainbow.antichain_max": probe["rainbow.antichain_max"],
        "rainbow.antichain_mean": probe["rainbow.antichain_mean"],
        "rainbow.partial_s": view.seconds({"rainbow.partial_failure"}),
        "rainbow.partial_calls": len(partial),
        "solver.nodes": nodes,
        "solver.exhausted": sum(not s.info["exact"] for s in solves),
        "solver.nodes_per_s": nodes / solve_s if solve_s else 0.0,
        "solver.prune_rate": (
            sum(s.info["pruned"] for s in partial) / len(partial) if partial else 0.0
        ),
        "solver.lower_bound_s": view.seconds({"solver.lower_bound"}),
        "solver.self_s": view.self_seconds({"solver.rx_exact"}),
        "constructions.verify_calls": len(verify_in_constructions),
        "constructions.verify_share": (
            sum(s.seconds for s in verify_in_constructions) / construction_s
            if construction_s else 0.0
        ),
        "constructions.self_s": view.self_seconds(CONSTRUCTIONS),
        "families.gen_s": view.seconds(GENERATORS) + setup.seconds(GENERATORS),
        "families.oracle_s": (
            view.seconds({"families.oracle_rx3"}) + setup.seconds({"families.oracle_rx3"})
        ),
        "cli.main_s": view.seconds({"cli.main"}),
        "cli.self_s": view.self_seconds({"cli.main"}),
        "case.verify_8x8_s": statistics.median(grid88) if grid88 else 0.0,
    }
    for metric, op in CASES.items():
        times = view.op_seconds(op)
        m[metric] = statistics.median(times) if times else 0.0
    return m


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_rate")):
        return "ratio"
    return "count"


PER_LAYER_UNITS = {
    name: _unit(name)
    for name in (
        "graphs.product_s", "graphs.product_calls", "graphs.json_s",
        "steiner.sdiam3_s", "steiner.sdiam3_calls", "steiner.apd_s", "steiner.records_s",
        "rainbow.verify_s", "rainbow.verify_calls", "rainbow.reach_s", "rainbow.scan_s",
        "rainbow.triples_scanned", "rainbow.antichain_max", "rainbow.antichain_mean",
        "rainbow.partial_s", "rainbow.partial_calls",
        "solver.nodes", "solver.exhausted", "solver.nodes_per_s", "solver.prune_rate",
        "solver.lower_bound_s", "solver.self_s",
        "constructions.verify_calls", "constructions.verify_share", "constructions.self_s",
        "families.gen_s", "families.oracle_s", "cli.main_s", "cli.self_s",
        "case.verify_8x8_s", *CASES, "trace.overhead_s",
    )
}

# Counts that repeat exactly for a given seed, and so may back a claim.
EXACT_COUNTS = (
    "solver.nodes", "rainbow.partial_calls", "rainbow.triples_scanned",
    "constructions.verify_calls", "rainbow.antichain_max",
)
