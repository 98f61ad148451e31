"""Brute-force reference implementations used as test oracles.

Everything here re-derives answers straight from definitions (edge-set
enumeration, growing subtrees, exhaustive path listing) and stays
independent of the library's algorithms, so agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations, product

from rainbowindex import EdgeColoring, Graph, build_graph, is_k_rainbow


def subtrees_by_size(g: Graph, max_size: int):
    """Yield (size, edge frozenset, vertex frozenset) for every subtree
    of g with 1..max_size edges, enumerated by growing edge sets."""
    layer: dict[frozenset, frozenset] = {}
    for e, (u, v) in enumerate(g.edges):
        layer[frozenset({e})] = frozenset({u, v})
    size = 1
    while layer and size <= max_size:
        for tree, verts in layer.items():
            yield size, tree, verts
        nxt: dict[frozenset, frozenset] = {}
        if size == max_size:
            break
        for tree, verts in layer.items():
            for e, (u, v) in enumerate(g.edges):
                if e in tree:
                    continue
                # adding an edge keeps a tree iff exactly one end is inside
                if (u in verts) == (v in verts):
                    continue
                nxt[tree | {e}] = verts | {u, v}
        layer = nxt
        size += 1


def steiner_brute(g: Graph, terminals) -> int:
    """Minimum size of a tree containing the terminal set."""
    s = frozenset(terminals)
    for size, _, verts in subtrees_by_size(g, g.n - 1):
        if s <= verts:
            return size
    raise AssertionError("terminals not connected in g")


def sdiam3_brute(g: Graph) -> int:
    return max(steiner_brute(g, t) for t in combinations(range(g.n), 3))


def covered_triples(g: Graph, coloring: EdgeColoring) -> set[tuple[int, int, int]]:
    """All 3-sets contained in some edge subset of size <= palette_size
    that is a tree with pairwise distinct colors."""
    covered: set[tuple[int, int, int]] = set()
    cap = min(coloring.palette_size, g.n - 1, g.m)
    for size in range(2, cap + 1):
        for subset in combinations(range(g.m), size):
            cols = set()
            for e in subset:
                cols.add(coloring.colors[e])
            if len(cols) != size:
                continue
            verts: set[int] = set()
            for e in subset:
                u, v = g.edges[e]
                verts.add(u)
                verts.add(v)
            if len(verts) != size + 1:
                continue
            if not _edges_connected(g, subset, verts):
                continue
            for triple in combinations(sorted(verts), 3):
                covered.add(triple)
    return covered


def _edges_connected(g: Graph, subset, verts) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for e in subset:
        u, v = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def has_rainbow_tree_brute(g: Graph, coloring: EdgeColoring, terminals) -> bool:
    s = tuple(sorted(terminals))
    return s in covered_triples(g, coloring)


def path_color_sets(g: Graph, coloring: EdgeColoring, source: int, target: int):
    """Minimal color sets over all simple rainbow paths source -> target,
    by exhaustive path enumeration."""
    sets: list[frozenset[int]] = []

    def walk(v: int, visited: set[int], cols: frozenset[int]):
        if v == target:
            sets.append(cols)
            return
        for e, w in g.incidence[v]:
            if w in visited:
                continue
            c = coloring.colors[e]
            if c in cols:
                continue
            walk(w, visited | {w}, cols | {c})

    if source == target:
        return [frozenset()]
    walk(source, {source}, frozenset())
    minimal = []
    for cs in sets:
        if not any(other < cs for other in sets):
            minimal.append(cs)
    return sorted(set(minimal), key=lambda s: (len(s), sorted(s)))


def rx3_brute(g: Graph, max_palette: int = 4):
    """Smallest palette in 1..max_palette admitting any 3-rainbow coloring,
    scanning every coloring; None if all palettes fail."""
    for p in range(1, max_palette + 1):
        for colors in product(range(p), repeat=g.m):
            if is_k_rainbow(g, EdgeColoring(colors, p), 3).ok:
                return p
    return None


def distances_brute(g: Graph) -> list[list[float]]:
    """All-pairs hop counts by Floyd-Warshall; math.inf where no path."""
    inf = float("inf")
    d = [[0 if a == b else inf for b in range(g.n)] for a in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for w in range(g.n):
        for a in range(g.n):
            for b in range(g.n):
                if d[a][w] + d[w][b] < d[a][b]:
                    d[a][b] = d[a][w] + d[w][b]
    return d


def random_connected_graph(rng, n: int, extra_edges: int) -> Graph:
    """Random spanning tree plus up to extra_edges additional edges."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for i in range(1, n):
        pairs.append((order[i], order[rng.randrange(i)]))
    existing = {(min(u, v), max(u, v)) for u, v in pairs}
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in existing
    ]
    rng.shuffle(candidates)
    pairs.extend(candidates[:extra_edges])
    return build_graph(n, pairs)


def random_coloring(rng, m: int, palette: int) -> EdgeColoring:
    return EdgeColoring(tuple(rng.randrange(palette) for _ in range(m)), palette)
