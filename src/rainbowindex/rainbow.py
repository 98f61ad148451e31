"""Rainbow-path reach families and the k-rainbow coloring checker.

The engine computes, per (source, target) pair, the antichain of
inclusion-minimal color sets realizable by rainbow paths.  A 3-set has a
rainbow tree iff some center vertex admits pairwise color-disjoint reach
sets to the three terminals: the union of such paths uses no color twice,
so any spanning tree of it is a rainbow tree through the set.

Color sets are bitmasks held in Python ints, so any palette size
works.  The reach search also accepts edges with color None, treated as
bearing a color unique to that edge: masks then track only the concrete
colors, which is equivalent because an edge appears at most once in a
path, and two paths sharing such an edge still form an all-distinct-colors
union.  The exact solver uses this for its optimistic partial-coloring
checks, which share one triple-scan engine with the checker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .graphs import Graph, is_connected, vertex_triple


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of color ids to a graph's edge indices.

    Adjacent edges may share colors.  palette_size bounds the ids; the
    coloring need not use every palette color.
    """

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        if self.palette_size < 0:
            raise ValueError("palette_size must be nonnegative")
        for e, c in enumerate(self.colors):
            if not (0 <= c < self.palette_size):
                raise ValueError(
                    f"color {c} of edge {e} outside palette [0, {self.palette_size})"
                )

    @property
    def colors_used(self) -> int:
        return len(set(self.colors))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a k-rainbow check: ok, or the lexicographically first
    vertex set with no rainbow tree."""

    ok: bool
    failing: Optional[tuple[int, ...]] = None


def coloring_to_json_dict(c: EdgeColoring) -> dict:
    return {"palette": c.palette_size, "colors": list(c.colors)}


def coloring_from_json_dict(obj: dict) -> EdgeColoring:
    """Parse ``{"palette": int, "colors": [int, ...]}``, checking JSON
    types exactly: a bool, float or string is not an integer."""
    if not isinstance(obj, dict) or "palette" not in obj or "colors" not in obj:
        raise ValueError("malformed coloring object: need keys 'palette' and 'colors'")
    palette, colors = obj["palette"], obj["colors"]
    if type(palette) is not int:
        raise ValueError(
            f"malformed coloring object: palette must be an integer, got {palette!r}"
        )
    if not isinstance(colors, list) or any(type(x) is not int for x in colors):
        raise ValueError(
            "malformed coloring object: colors must be a list of integers"
        )
    return EdgeColoring(tuple(colors), palette)


def _require_match(g: Graph, coloring: EdgeColoring) -> None:
    if len(coloring.colors) != g.m:
        raise ValueError(
            f"coloring length {len(coloring.colors)} does not match edge count {g.m}"
        )


# ---------------------------------------------------------------------------
# Reach engine
# ---------------------------------------------------------------------------

def _reach(
    g: Graph,
    colors: Sequence[Optional[int]],
    source: int,
    record_preds: bool = False,
):
    """Antichains of minimal color masks reachable from ``source``.

    colors[e] is the color of edge e, or None for a color unique to that
    edge (contributing nothing to masks).  Returns (families, preds):
    families[t] is the list of minimal masks of rainbow paths source->t,
    sorted by (popcount, value); preds maps (vertex, mask) to
    (prev_vertex, prev_mask, edge) for path reconstruction.
    """
    fams: list[list[int]] = [[] for _ in range(g.n)]
    fams[source] = [0]
    preds: dict[tuple[int, int], Optional[tuple[int, int, int]]] = {}
    if record_preds:
        preds[(source, 0)] = None
    queue: deque[tuple[int, int]] = deque([(source, 0)])
    incidence = g.incidence
    while queue:
        v, mask = queue.popleft()
        if mask not in fams[v]:
            continue  # dominated after being queued
        for e, w in incidence[v]:
            c = colors[e]
            if c is None:
                nm = mask
            else:
                bit = 1 << c
                if mask & bit:
                    continue
                nm = mask | bit
            fw = fams[w]
            dominated = False
            for x in fw:
                if x & nm == x:
                    dominated = True
                    break
            if dominated:
                continue
            fams[w] = [x for x in fw if nm & x != nm]
            fams[w].append(nm)
            if record_preds and (w, nm) not in preds:
                preds[(w, nm)] = (v, mask, e)
            queue.append((w, nm))
    for fam in fams:
        if len(fam) > 1:
            fam.sort(key=lambda x: (x.bit_count(), x))
    return fams, preds


def rainbow_reach(
    g: Graph,
    coloring: EdgeColoring,
    source: int,
) -> list[list[int]]:
    """Per target vertex, the antichain of minimal color sets (as
    bitmasks) achievable by rainbow paths from ``source``."""
    _require_match(g, coloring)
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    fams, _ = _reach(g, coloring.colors, source)
    return fams


def _disjoint_triple(
    fa: list[int], fb: list[int], fc: list[int]
) -> Optional[tuple[int, int, int]]:
    """First pairwise-disjoint (ma, mb, mc), families already sorted by
    increasing cardinality."""
    for ma in fa:
        for mb in fb:
            if ma & mb:
                continue
            mab = ma | mb
            for mc in fc:
                if not (mab & mc):
                    return ma, mb, mc
    return None


def _walk_edges(preds, v: int, mask: int) -> list[int]:
    edges = []
    state: Optional[tuple[int, int, int]] = preds[(v, mask)]
    while state is not None:
        u, pmask, e = state
        edges.append(e)
        state = preds[(u, pmask)]
    return edges


def find_rainbow_tree(
    g: Graph,
    coloring: EdgeColoring,
    terminals: Iterable[int],
) -> Optional[tuple[int, ...]]:
    """Edge indices of some rainbow tree containing the 3-set, or None.

    Centers are tried in ascending order and reach-family members in
    increasing cardinality, so the witness is deterministic.
    """
    _require_match(g, coloring)
    s = a, b, c = vertex_triple(g, terminals)
    reach = {}
    pred = {}
    for v in s:
        reach[v], pred[v] = _reach(g, coloring.colors, v, record_preds=True)
    for center in range(g.n):
        hit = _disjoint_triple(reach[a][center], reach[b][center], reach[c][center])
        if hit is None:
            continue
        ma, mb, mc = hit
        edges = set(_walk_edges(pred[a], center, ma))
        edges.update(_walk_edges(pred[b], center, mb))
        edges.update(_walk_edges(pred[c], center, mc))
        return _spanning_tree_containing(g, edges)
    return None


def _spanning_tree_containing(g: Graph, edge_ids: set[int]) -> tuple[int, ...]:
    """Spanning tree (as edge indices) of the subgraph induced by
    ``edge_ids``; since all its colors are distinct, any tree works."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(edge_ids):
        u, v = g.edges[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    root = min(adj) if adj else 0
    seen = {root}
    tree: list[int] = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for e, w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                tree.append(e)
                queue.append(w)
    return tuple(sorted(tree))


def has_rainbow_tree(
    g: Graph,
    coloring: EdgeColoring,
    terminals: Iterable[int],
) -> bool:
    """True iff some rainbow tree contains the given 3-set."""
    return find_rainbow_tree(g, coloring, terminals) is not None


# ---------------------------------------------------------------------------
# Whole-graph verdicts
# ---------------------------------------------------------------------------

def _first_bad_triple(
    g: Graph,
    colors: Sequence[Optional[int]],
    order: Iterable[tuple[int, int, int]],
) -> Optional[tuple[int, int, int]]:
    """First triple of ``order`` with no rainbow tree, or None.

    Reach rows are computed when a triple first needs them.  Bit x of
    ``centers(a, b)`` says that some mask of fams[a][x] is disjoint from
    some mask of fams[b][x].  A tree at center x needs that for all three
    pairs of the triple, so only the centers in the intersection are
    tried, in ascending order, and a pair with no center settles the
    triple before the remaining pairs are built.
    """
    n = g.n
    rows: list[Optional[list[list[int]]]] = [None] * n
    pairs: dict[int, int] = {}

    def reach_row(v: int) -> list[list[int]]:
        row = rows[v]
        if row is None:
            row = rows[v] = _reach(g, colors, v)[0]
        return row

    def centers(a: int, b: int) -> int:
        key = a * n + b
        bits = pairs.get(key)
        if bits is None:
            fa, fb = reach_row(a), reach_row(b)
            bits = 0
            for x in range(n):
                fbx = fb[x]
                for ma in fa[x]:
                    for mb in fbx:
                        if not ma & mb:
                            break
                    else:
                        continue
                    bits |= 1 << x
                    break
            pairs[key] = bits
        return bits

    for a, b, c in order:
        common = centers(a, b)
        if common:
            common &= centers(a, c)
        if common:
            common &= centers(b, c)
        fa, fb, fc = rows[a], rows[b], rows[c]
        while common:
            low = common & -common
            x = low.bit_length() - 1
            if _disjoint_triple(fa[x], fb[x], fc[x]):
                break
            common ^= low
        else:
            return (a, b, c)
    return None


def _scan_pairs(
    g: Graph, colors: Sequence[Optional[int]]
) -> Optional[tuple[int, int]]:
    for a in range(g.n):
        fams, _ = _reach(g, colors, a)
        for b in range(a + 1, g.n):
            if not fams[b]:
                return (a, b)
    return None


def is_k_rainbow(
    g: Graph,
    coloring: EdgeColoring,
    k: int,
) -> Verdict:
    """Check that every k-set of vertices has a rainbow tree (k=2 means a
    rainbow path, i.e. rainbow connectivity).

    The failing verdict carries the lexicographically first bad set.
    """
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    _require_match(g, coloring)
    if not is_connected(g):
        raise ValueError("k-rainbow checking requires a connected graph")
    if k == 2:
        bad = _scan_pairs(g, coloring.colors)
    else:
        bad = _first_bad_triple(g, coloring.colors, combinations(range(g.n), 3))
    return Verdict(bad is None, bad)


def partial_failure(
    g: Graph,
    colors: Sequence[Optional[int]],
    k: int,
    triple_order: Optional[Sequence[tuple[int, int, int]]] = None,
) -> Optional[tuple[int, ...]]:
    """Optimistic check for a partially colored graph: edges with color
    None count as uniquely colored.  Returns the first set with no
    rainbow tree even under that relaxation, or None if all sets pass.

    For k=3 "first" means first in ``triple_order`` (lexicographic order
    when None); for k=2 it is the lexicographically first pair.
    """
    if k == 2:
        return _scan_pairs(g, colors)
    order = triple_order if triple_order is not None else combinations(range(g.n), 3)
    return _first_bad_triple(g, colors, order)
