"""Shortest-path distances, Steiner distance of 3-sets, and sdiam3.

A minimum tree through three terminals is either a path through them or
a spider with one branch vertex, so its size is the minimum over all
centers v of d(v,a) + d(v,b) + d(v,c).  Everything here exploits that
identity; it does not hold for four or more terminals.  Every distance
comes from ``graphs.bfs``, the one breadth-first search, and witness
paths follow its ``graphs.bfs_parents`` tree.  The per-triple
values behind ``sdiam3``, ``steiner_records`` and
``triples_by_steiner_desc`` come from one blockwise pass,
``_steiner_blocks``, whose working memory is O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .graphs import Graph, bfs, bfs_parents, is_connected, vertex_triple


def all_pairs_distances(g: Graph) -> np.ndarray:
    """n x n matrix of hop counts, np.inf sentinel for disconnected pairs."""
    d = np.array([bfs(g, s)[1] for s in range(g.n)], dtype=float).reshape(g.n, g.n)
    d[d < 0] = np.inf
    return d


def diameter(g: Graph) -> int:
    """Largest pairwise distance; requires a connected graph."""
    if not is_connected(g):
        raise ValueError("diameter requires a connected graph")
    return int(all_pairs_distances(g).max())


@dataclass(frozen=True)
class SteinerResult:
    """Minimum tree through three terminals.

    value: tree size in edges; witness: its edge set as normalized
    vertex pairs; center: the median vertex realizing the minimum.
    """

    value: int
    witness: tuple[tuple[int, int], ...]
    center: int


def steiner_distance_3(g: Graph, terminals: Iterable[int]) -> SteinerResult:
    """Steiner distance of a 3-set, with a witness tree.

    Ties broken toward the smallest center id; witness paths follow the
    smallest-parent shortest-path tree from the center, so outputs are
    reproducible.
    """
    s = vertex_triple(g, terminals)
    if not is_connected(g):
        raise ValueError("Steiner distance requires a connected graph")

    dists = [bfs(g, v)[1] for v in s]
    best_center = -1
    best_sum = float("inf")
    for v in range(g.n):
        total = dists[0][v] + dists[1][v] + dists[2][v]
        if total < best_sum:
            best_sum = total
            best_center = v

    parent = bfs_parents(g, best_center)
    edges: set[tuple[int, int]] = set()
    for v in s:
        while v != best_center:
            p = parent[v]
            edges.add((min(v, p), max(v, p)))
            v = p
    witness = tuple(sorted(edges))
    # At the minimizing center the three tree paths are edge-disjoint, so
    # the union size equals the distance sum.
    assert len(witness) == int(best_sum)
    return SteinerResult(len(witness), witness, best_center)


def _steiner_blocks(g: Graph) -> Iterator[tuple[int, int, np.ndarray]]:
    """Steiner distances of all 3-sets, one block per pair a < b < n-1.

    Yields (a, b, vals) with vals[i] the Steiner distance of
    {a, b, b+1+i}, so the triples come in lexicographic order.
    """
    if not is_connected(g):
        raise ValueError("Steiner distances require a connected graph")
    d = all_pairs_distances(g)
    for a in range(g.n - 2):
        for b in range(a + 1, g.n - 1):
            yield a, b, (d[b + 1 :] + (d[a] + d[b])).min(axis=1)


def sdiam3(g: Graph) -> int:
    """Maximum Steiner distance over all 3-sets of vertices."""
    if g.n < 3:
        raise ValueError(f"sdiam3 needs at least 3 vertices, got {g.n}")
    return int(max(vals.max() for _, _, vals in _steiner_blocks(g)))


def steiner_records(g: Graph) -> list[dict]:
    """Per-triple Steiner values as JSON-ready records, triples in
    lexicographic order."""
    return [
        {"triple": [a, b, c], "d": val}
        for a, b, vals in _steiner_blocks(g)
        for c, val in enumerate(vals.astype(int).tolist(), start=b + 1)
    ]


def triples_by_steiner_desc(g: Graph) -> list[tuple[int, int, int]]:
    """All 3-sets by decreasing Steiner distance, ties in lexicographic
    order (the solver checks the hardest sets first)."""
    blocks = list(_steiner_blocks(g))
    if not blocks:
        return []
    trips = [(a, b, c) for a, b, vals in blocks for c in range(b + 1, g.n)]
    values = np.concatenate([vals for _, _, vals in blocks])
    return [trips[i] for i in np.argsort(-values, kind="stable")]
