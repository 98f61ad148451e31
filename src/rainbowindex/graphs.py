"""Simple undirected graphs with stable edge indices.

Vertices are the dense integers 0..n-1.  Edges are normalized pairs
(u, v) with u < v, and the position of a pair in ``Graph.edges`` is its
stable edge index; nothing ever renumbers edges after construction.
All derived graphs (products, join, split, subdivision) come with
provenance back to the operands so colorings can be transported.
``bfs`` is the one breadth-first search over a graph: connectivity,
all-pairs distances, Steiner witnesses and the solver's edge order all
read its visit order or its hop counts.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    Attributes:
        n: number of vertices (ids 0..n-1).
        edges: normalized (u, v) pairs with u < v; list position is the
            edge index.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: (edge index, other endpoint), sorted by endpoint."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((e, v))
            inc[v].append((e, u))
        return tuple(tuple(sorted(a, key=lambda p: (p[1], p[0]))) for a in inc)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {pair: e for e, pair in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_index


def as_int(value, what: str) -> int:
    """``value`` by ``operator.index`` (numpy integers pass), else
    ValueError.  A bool is not an integer here, as in the JSON readers."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def build_graph(n: int, edge_pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from vertex count and edge pairs.

    Pairs are normalized to u < v.  Duplicates are dropped, keeping the
    index of the first occurrence.  Self-loops and out-of-range endpoints
    are rejected, and so is a vertex count that is not an integer.
    """
    n = as_int(n, "vertex count")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    seen: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    for pair in edge_pairs:
        try:
            u, v = as_int(pair[0], "an endpoint"), as_int(pair[1], "an endpoint")
        except (TypeError, ValueError):
            raise ValueError(f"edge endpoints must be integers: {pair!r}") from None
        if u == v:
            raise ValueError(f"self-loop rejected: ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range [0, {n}): ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen[key] = len(edges)
        edges.append(key)
    return Graph(n, tuple(edges))


def vertex_triple(g: Graph, vertices: Iterable[int]) -> tuple[int, int, int]:
    """The 3-set ``vertices`` of g in ascending order.  Each vertex must
    be an integer (``operator.index``: numpy integers pass, floats and
    strings do not) in range, and exactly three must be distinct."""
    s = sorted({as_int(v, "a vertex") for v in vertices})
    if len(s) != 3:
        raise ValueError(f"need exactly 3 distinct vertices, got {s}")
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    return s[0], s[1], s[2]


def bfs(g: Graph, source: int) -> tuple[list[int], list[int]]:
    """Breadth-first search from ``source``, neighbors in ascending id order.

    Returns (order, dist): the reached vertices in visit order, and every
    vertex's hop count from ``source``, -1 where it is unreachable.
    """
    dist = [-1] * g.n
    dist[source] = 0
    order = [source]
    for u in order:
        d = dist[u] + 1
        for w in g.adjacency[u]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
    return order, dist


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one connected component (K_1 counts)."""
    return g.n > 0 and len(bfs(g, 0)[0]) == g.n


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductVertexMap:
    """Row-major bijection between operand coordinates and product ids.

    Product vertex id is i * n_right + j for (g_i, h_j), so both directions
    are O(1) arithmetic.
    """

    n_left: int
    n_right: int

    def vertex(self, i: int, j: int) -> int:
        return i * self.n_right + j

    def coords(self, v: int) -> tuple[int, int]:
        return divmod(v, self.n_right)


@dataclass(frozen=True)
class ProductEdgeClass:
    """Provenance of one product edge.

    kind "G": copy of operand-G edge ``operand_edge`` inside layer
        ``layer`` (the shared H-coordinate).
    kind "H": copy of operand-H edge ``operand_edge`` inside layer
        ``layer`` (the shared G-coordinate).
    kind "cross": edge spanning two G-coordinates adjacent via G-edge
        ``operand_edge``; ``h_ends`` gives the H-coordinates at the
        (u, v) ends of that G-edge (strong and lexicographic only).
    """

    kind: str
    operand_edge: int
    layer: Optional[int] = None
    h_ends: Optional[tuple[int, int]] = None


def cartesian_product(
    g: Graph, h: Graph
) -> tuple[Graph, ProductVertexMap, tuple[ProductEdgeClass, ...]]:
    """Vertices (g_i, h_j); adjacency when equal in one coordinate and
    adjacent in the other.  Every edge is a G-layer or H-layer copy."""
    vm = ProductVertexMap(g.n, h.n)
    pairs: list[tuple[int, int]] = []
    classes: list[ProductEdgeClass] = []
    for eg, (u, v) in enumerate(g.edges):
        for j in range(h.n):
            pairs.append((vm.vertex(u, j), vm.vertex(v, j)))
            classes.append(ProductEdgeClass("G", eg, layer=j))
    for i in range(g.n):
        for eh, (x, y) in enumerate(h.edges):
            pairs.append((vm.vertex(i, x), vm.vertex(i, y)))
            classes.append(ProductEdgeClass("H", eh, layer=i))
    return build_graph(g.n * h.n, pairs), vm, tuple(classes)


def strong_product(
    g: Graph, h: Graph
) -> tuple[Graph, ProductVertexMap, tuple[ProductEdgeClass, ...]]:
    """Cartesian edges plus both diagonals wherever both coordinates are
    adjacent; diagonals carry the cross class."""
    prod, vm, classes = cartesian_product(g, h)
    pairs = list(prod.edges)
    cls = list(classes)
    for eg, (u, v) in enumerate(g.edges):
        for eh, (x, y) in enumerate(h.edges):
            pairs.append((vm.vertex(u, x), vm.vertex(v, y)))
            cls.append(ProductEdgeClass("cross", eg, h_ends=(x, y)))
            pairs.append((vm.vertex(u, y), vm.vertex(v, x)))
            cls.append(ProductEdgeClass("cross", eg, h_ends=(y, x)))
    return build_graph(g.n * h.n, pairs), vm, tuple(cls)


def lexicographic_product(
    g: Graph, h: Graph
) -> tuple[Graph, ProductVertexMap, tuple[ProductEdgeClass, ...]]:
    """Adjacency when first coordinates are adjacent (cross class, any
    second coordinates, equal ones included), or first coordinates equal
    and second adjacent (H-layer class)."""
    vm = ProductVertexMap(g.n, h.n)
    pairs: list[tuple[int, int]] = []
    classes: list[ProductEdgeClass] = []
    for eg, (u, v) in enumerate(g.edges):
        for h1 in range(h.n):
            for h2 in range(h.n):
                pairs.append((vm.vertex(u, h1), vm.vertex(v, h2)))
                classes.append(ProductEdgeClass("cross", eg, h_ends=(h1, h2)))
    for i in range(g.n):
        for eh, (x, y) in enumerate(h.edges):
            pairs.append((vm.vertex(i, x), vm.vertex(i, y)))
            classes.append(ProductEdgeClass("H", eh, layer=i))
    return build_graph(g.n * h.n, pairs), vm, tuple(classes)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides.

    G keeps ids 0..n_G-1, H is shifted by n_G.  Edge order: G edges,
    then H edges, then cross edges in (G-vertex, H-vertex) order.
    """
    off = g.n
    pairs: list[tuple[int, int]] = list(g.edges)
    pairs.extend((x + off, y + off) for x, y in h.edges)
    for i in range(g.n):
        for j in range(h.n):
            pairs.append((i, off + j))
    return build_graph(g.n + h.n, pairs)


# ---------------------------------------------------------------------------
# Vertex splitting and edge subdivision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Split vertex ``vertex`` into two adjacent vertices whose neighbor
    sets are the disjoint parts ``n1`` and ``n2`` of its neighborhood."""

    vertex: int
    n1: frozenset[int]
    n2: frozenset[int]


def validate_split(g: Graph, spec: SplitSpec) -> None:
    v = spec.vertex
    if not (0 <= v < g.n):
        raise ValueError(f"split vertex {v} out of range")
    if spec.n1 & spec.n2:
        raise ValueError(f"neighbor parts overlap: {sorted(spec.n1 & spec.n2)}")
    nbhd = frozenset(g.adjacency[v])
    if spec.n1 | spec.n2 != nbhd:
        raise ValueError(
            f"parts do not cover the neighborhood of {v}: "
            f"{sorted(spec.n1 | spec.n2)} vs {sorted(nbhd)}"
        )


def split_vertex(
    g: Graph, spec: SplitSpec
) -> tuple[Graph, tuple[Optional[int], ...]]:
    """Replace v by adjacent v1 (reusing v's id, neighbors n1) and a new
    vertex v2 = n (neighbors n2), joined by a fresh edge.

    Returns the split graph and an edge-origin map aligned with its edge
    indices: the source edge index in g, or None for the fresh edge.
    Original edges keep their indices.
    """
    validate_split(g, spec)
    v, v2 = spec.vertex, g.n
    pairs: list[tuple[int, int]] = []
    for a, b in g.edges:
        if a == v or b == v:
            w = b if a == v else a
            if w in spec.n2:
                pairs.append((min(w, v2), max(w, v2)))
            else:
                pairs.append((min(v, w), max(v, w)))
        else:
            pairs.append((a, b))
    pairs.append((v, v2))
    origins: tuple[Optional[int], ...] = tuple(range(g.m)) + (None,)
    return build_graph(g.n + 1, pairs), origins


def subdivide_edge(
    g: Graph, e: int
) -> tuple[Graph, tuple[Optional[int], ...]]:
    """Replace edge uv by u-x-v through a new vertex x.

    Implemented as the vertex split of v that sends only u to the new
    vertex, so the u-side edge u-x inherits index e (and later the
    original color) while x-v is the fresh edge at the end.
    """
    if not (0 <= e < g.m):
        raise ValueError(f"edge index {e} out of range [0, {g.m})")
    u, v = g.edges[e]
    n1 = frozenset(g.adjacency[v]) - {u}
    return split_vertex(g, SplitSpec(v, n1, frozenset({u})))


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------

def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json_dict(obj: dict) -> Graph:
    """Parse ``{"n": int, "edges": [[u, v], ...]}``; file order defines
    edge indices.  JSON types are checked exactly: a bool, float or
    string is not an integer, and an edge has exactly two endpoints."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("malformed graph object: need keys 'n' and 'edges'")
    n, pairs = obj["n"], obj["edges"]
    if type(n) is not int:
        raise ValueError(f"malformed graph object: n must be an integer, got {n!r}")
    if not isinstance(pairs, list):
        raise ValueError(
            f"malformed graph object: edges must be a list, got {type(pairs).__name__}"
        )
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is int
        ):
            raise ValueError(
                f"malformed graph object: edge {pair!r} is not a pair of integers"
            )
    return build_graph(n, pairs)


def dump_json(obj: dict, path: str) -> None:
    """Write deterministic JSON: sorted keys, 2-space indent, newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    """Parse a JSON file; nesting too deep to parse is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


_DOT_COLORS = (
    "red", "blue", "forestgreen", "darkorange", "purple", "saddlebrown",
    "deeppink", "gray40", "olive", "teal", "navy", "crimson",
)


def to_dot(
    g: Graph,
    edge_colors: Optional[Sequence[int]] = None,
    vertex_labels: Optional[Sequence[str]] = None,
) -> str:
    """Render as an undirected DOT graph.

    Edges are colored by palette index when ``edge_colors`` is given;
    vertices get ``vertex_labels`` (e.g. "(i,j)" for product provenance).
    """
    lines = ["graph g {"]
    for v in range(g.n):
        if vertex_labels is not None:
            lines.append(f'  {v} [label="{vertex_labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for e, (u, v) in enumerate(g.edges):
        if edge_colors is not None:
            c = edge_colors[e]
            name = _DOT_COLORS[c % len(_DOT_COLORS)]
            lines.append(f'  {u} -- {v} [color="{name}", label="{c}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def product_vertex_labels(vm: ProductVertexMap) -> list[str]:
    """Labels "(i,j)" for every product vertex, in id order."""
    return [
        f"({i},{j})"
        for i in range(vm.n_left)
        for j in range(vm.n_right)
    ]
