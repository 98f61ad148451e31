"""Constructive 3-rainbow colorings of derived graphs.

Each construction consumes verified operand colorings, transports them
onto a product / join / split / subdivision following a fixed palette
layout ([operand-G colors][operand-H colors][fresh colors]), and returns
the derived graph together with its coloring, the bound the construction
promises, and a machine-checked verdict.  Constructions never recompute
operand colorings and never swallow a failing verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .families import FamilySpec, oracle_rx3, path
from .graphs import (
    Graph,
    SplitSpec,
    as_int,
    cartesian_product,
    is_complete,
    is_connected,
    join,
    lexicographic_product,
    split_vertex,
    strong_product,
    subdivide_edge,
)
from .rainbow import EdgeColoring, Verdict, is_k_rainbow
from .steiner import sdiam3


class RoutedToFamilyError(ValueError):
    """The requested case is covered by a known family value instead of a
    construction: both operands are complete, so the derived graph is
    complete and the complete-graph value applies."""


@dataclass(frozen=True)
class ConstructionReport:
    """A derived graph, its constructed coloring, and the verdict.

    colors_used counts distinct colors actually appearing and never
    exceeds claimed_bound, the bound this construction promises.
    known_bound, when set, is the tightest upper bound implied for the
    derived graph once known family values are folded in (it may undercut
    the constructed palette).  A failing verdict keeps its vertex set.
    """

    derived_graph: Graph
    coloring: EdgeColoring
    colors_used: int
    claimed_bound: int
    verified: Verdict
    known_bound: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.verified.ok


def _require_rainbow(g: Graph, c: EdgeColoring, k: int, name: str) -> None:
    verdict = is_k_rainbow(g, c, k)
    if not verdict.ok:
        raise ValueError(
            f"{name} operand coloring is not {k}-rainbow "
            f"(failing set {verdict.failing})"
        )


def _report(
    graph: Graph,
    colors: Sequence[int],
    palette: int,
    known: Optional[int] = None,
) -> ConstructionReport:
    """Verify the coloring and report it; the palette is the claimed bound."""
    coloring = EdgeColoring(tuple(colors), palette)
    verdict = is_k_rainbow(graph, coloring, 3)
    return ConstructionReport(
        graph, coloring, coloring.colors_used, palette, verdict, known
    )


def cartesian_coloring(
    g: Graph, cg: EdgeColoring, h: Graph, ch: EdgeColoring
) -> ConstructionReport:
    """Color G box H by copying cg onto every G-layer and ch, shifted into
    a fresh block, onto every H-layer.  Uses at most palette(cg) +
    palette(ch) colors and is 3-rainbow whenever the operands' colorings
    are."""
    _require_rainbow(g, cg, 3, "left")
    _require_rainbow(h, ch, 3, "right")
    prod, _, classes = cartesian_product(g, h)
    pg = cg.palette_size
    colors = [
        cg.colors[cl.operand_edge] if cl.kind == "G" else pg + ch.colors[cl.operand_edge]
        for cl in classes
    ]
    return _report(prod, colors, pg + ch.palette_size)


def grid_coloring(dims: Sequence[int]) -> ConstructionReport:
    """Iterated Cartesian coloring of a grid of paths: sum(n_i) - k colors,
    certified exact because the grid's sdiam3 equals the same number."""
    dims = [as_int(d, "grid dim") for d in dims]
    if len(dims) < 1 or any(d < 2 for d in dims):
        raise ValueError(f"grid dims must each be >= 2, got {dims}")
    graph = path(dims[0])
    coloring = EdgeColoring(tuple(range(graph.m)), graph.m)
    for d in dims[1:]:
        p = path(d)
        report = cartesian_coloring(
            graph, coloring, p, EdgeColoring(tuple(range(p.m)), p.m)
        )
        graph, coloring = report.derived_graph, report.coloring
    target = sum(dims) - len(dims)
    certificate = sdiam3(graph) if graph.n >= 3 else graph.m
    if certificate != target:
        raise AssertionError(
            f"grid lower-bound certificate {certificate} != palette {target}"
        )
    return _report(graph, coloring.colors, target, known=target)


def strong_coloring(
    g: Graph, cg: EdgeColoring, h: Graph, ch: EdgeColoring
) -> ConstructionReport:
    """Color the strong product: the Cartesian skeleton as in
    cartesian_coloring, diagonal edges reusing color 0 so the palette
    never grows past the skeleton's."""
    _require_rainbow(g, cg, 3, "left")
    _require_rainbow(h, ch, 3, "right")
    prod, _, classes = strong_product(g, h)
    pg = cg.palette_size
    colors = []
    for cl in classes:
        if cl.kind == "G":
            colors.append(cg.colors[cl.operand_edge])
        elif cl.kind == "H":
            colors.append(pg + ch.colors[cl.operand_edge])
        else:
            colors.append(0)
    return _report(prod, colors, pg + ch.palette_size)


def lex_coloring_h2(g: Graph, cg: EdgeColoring) -> ConstructionReport:
    """Color G[K_2] for non-complete G: each copy of G repeats cg, every
    remaining edge shares one fresh color.  palette(cg) + 1 colors."""
    if is_complete(g):
        raise RoutedToFamilyError(
            "complete left operand with a complete right operand is itself "
            "complete; use the complete-graph value",
        )
    _require_rainbow(g, cg, 3, "left")
    h = path(2)
    prod, _, classes = lexicographic_product(g, h)
    pg = cg.palette_size
    fresh = pg
    colors = []
    for cl in classes:
        if cl.kind == "cross" and cl.h_ends[0] == cl.h_ends[1]:
            colors.append(cg.colors[cl.operand_edge])
        else:
            colors.append(fresh)
    return _report(prod, colors, pg + 1)


def lex_coloring_general(
    g: Graph, cg: EdgeColoring, h: Graph, ch_rc: EdgeColoring
) -> ConstructionReport:
    """Color G[H] for |V(H)| >= 3: copies of G repeat cg; cross edges
    whose H-coordinates differ rotate the underlying G-edge color by one
    (mod the cg palette); each copy of H repeats ch_rc in fresh colors.
    Needs cg to use its whole palette and ch_rc to be rainbow-connected.
    """
    if h.n < 3:
        raise ValueError("general lexicographic coloring needs |V(H)| >= 3")
    if is_complete(g) and is_complete(h):
        raise RoutedToFamilyError(
            "both operands complete: the product is complete; use the "
            "complete-graph value",
        )
    p = cg.palette_size
    if set(cg.colors) != set(range(p)):
        raise ValueError(
            "left coloring must use every color of its palette exactly "
            f"{{0..{p - 1}}}"
        )
    _require_rainbow(g, cg, 3, "left")
    _require_rainbow(h, ch_rc, 2, "right")
    prod, _, classes = lexicographic_product(g, h)
    colors = []
    for cl in classes:
        if cl.kind == "cross":
            k = cg.colors[cl.operand_edge]
            if cl.h_ends[0] == cl.h_ends[1]:
                colors.append(k)
            else:
                colors.append((k + 1) % p)
        else:
            colors.append(p + ch_rc.colors[cl.operand_edge])
    bound = p + ch_rc.palette_size
    return _report(prod, colors, bound)


def _bipartite_upper(s: int, t: int) -> Optional[int]:
    entry = oracle_rx3(FamilySpec("complete_bipartite", s=s, t=t))
    return entry.upper if entry is not None else None


def join_coloring(
    g: Graph,
    h: Graph,
    cg: Optional[EdgeColoring] = None,
    ch: Optional[EdgeColoring] = None,
    ch_rc: Optional[EdgeColoring] = None,
) -> ConstructionReport:
    """Color the join of G and H (|V(G)| <= |V(H)|, not both complete).

    Single-vertex G: H keeps a 3-rainbow coloring ``ch`` and all join
    edges share one fresh color.  Two-vertex G: H keeps a
    rainbow-connected coloring ``ch_rc``, join edges take one color per
    G-vertex, and the G edge a third fresh color.  Larger G: both sides
    are 3-rainbow colored inside max(palette) shared colors and the join
    edges share one fresh color.  known_bound folds in the complete
    bipartite value when the two-side one applies.
    """
    s, t = g.n, h.n
    if s > t:
        raise ValueError("call with the smaller operand first (|V(G)| <= |V(H)|)")
    if not (is_connected(g) and is_connected(h)):
        raise ValueError("operands must be connected")
    if is_complete(g) and is_complete(h):
        raise RoutedToFamilyError(
            "both operands complete: the join is complete; use the "
            "complete-graph value",
        )
    derived = join(g, h)

    if s == 1:
        if ch is None:
            raise ValueError("single-vertex case needs ch, a 3-rainbow coloring of H")
        _require_rainbow(h, ch, 3, "right")
        ph = ch.palette_size
        colors = list(ch.colors) + [ph] * (s * t)
        return _report(derived, colors, ph + 1, known=ph + 1)

    if s == 2:
        if ch_rc is None:
            raise ValueError(
                "two-vertex case needs ch_rc, a rainbow-connected coloring of H"
            )
        # G is connected on two vertices, so its edge exists.
        assert g.m == 1, "two-vertex connected operand must have exactly one edge"
        _require_rainbow(h, ch_rc, 2, "right")
        rc = ch_rc.palette_size
        colors = [rc + 2]  # the G edge
        colors += list(ch_rc.colors)
        for i in range(s):
            colors += [rc + i] * t
        claimed = rc + 3
        known = min(claimed, _bipartite_upper(2, t) or claimed)
        return _report(derived, colors, claimed, known=known)

    if cg is None or ch is None:
        raise ValueError("three-plus case needs cg and ch, 3-rainbow colorings")
    _require_rainbow(g, cg, 3, "left")
    _require_rainbow(h, ch, 3, "right")
    c1 = max(cg.palette_size, ch.palette_size)
    colors = list(cg.colors) + list(ch.colors) + [c1] * (s * t)
    claimed = c1 + 1
    known = min(claimed, _bipartite_upper(s, t) or claimed)
    return _report(derived, colors, claimed, known=known)


def split_coloring(
    g: Graph, cg: EdgeColoring, spec: SplitSpec
) -> ConstructionReport:
    """Color the vertex-split graph: every surviving edge inherits its
    pre-split color through the origin map, the new bridge gets one fresh
    color.  palette(cg) + 1 colors."""
    _require_rainbow(g, cg, 3, "graph")
    derived, origins = split_vertex(g, spec)
    pg = cg.palette_size
    colors = [pg if src is None else cg.colors[src] for src in origins]
    return _report(derived, colors, pg + 1)


def subdivision_coloring(g: Graph, cg: EdgeColoring, e: int) -> ConstructionReport:
    """Color the subdivision of edge e: the u-side half inherits the old
    color, the other half gets one fresh color."""
    _require_rainbow(g, cg, 3, "graph")
    derived, origins = subdivide_edge(g, e)
    pg = cg.palette_size
    colors = [pg if src is None else cg.colors[src] for src in origins]
    return _report(derived, colors, pg + 1)
