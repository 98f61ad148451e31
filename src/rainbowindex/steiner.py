"""Shortest-path distances, Steiner distance of 3-sets, and sdiam3.

A minimum tree through three terminals is either a path through them or
a spider with one branch vertex, so its size is the minimum over all
centers v of d(v,a) + d(v,b) + d(v,c).  Everything here exploits that
identity; it does not hold for four or more terminals.  Every distance
comes from ``graphs.bfs``, the one breadth-first search, and the witness
paths of ``steiner_distance_3`` walk down the terminals' own BFS rows.
``_steiner_values`` takes the minimum over centers for batches of
3-sets; ``steiner_distance_3`` takes the argmin for a single set.

With S = d(a,b) + d(a,c) + d(b,c), every 3-set has two bounds that cost
O(1) from the distance matrix:

- upper: a center at a terminal is one candidate, so the Steiner
  distance is at most U = S - max(d(a,b), d(a,c), d(b,c));
- lower: each edge of a minimum tree lies on exactly two of the three
  tree paths between the terminals, and each of those paths is at least
  as long as the distance, so the Steiner distance is at least
  L = ceil(S / 2).

``sdiam3`` needs only the maximum, so it computes exact values only for
the 3-sets whose U can still beat the best value known (``sdiam3``
gives the argument).  ``steiner_records`` needs every value and reads
them blockwise, one block per pair of first terminals.  Working memory
is O(n^2) in both.

numpy is imported inside the functions that run numpy code
(``all_pairs_distances`` and the Steiner pass behind ``sdiam3`` and
``steiner_records``), so importing this module loads none; ``diameter``
and ``steiner_distance_3`` work on BFS rows and never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .graphs import Graph, bfs, is_connected, vertex_triple

if TYPE_CHECKING:
    import numpy as np


def all_pairs_distances(g: Graph) -> np.ndarray:
    """n x n matrix of hop counts, np.inf sentinel for disconnected pairs.

    Raises ValueError when an n x n array cannot be indexed."""
    import numpy as np

    if g.n * g.n > np.iinfo(np.intp).max:
        raise ValueError(f"a distance matrix of {g.n} vertices cannot be indexed")
    d = np.empty((g.n, g.n))
    for s in range(g.n):
        d[s] = bfs(g, s)[1]
    d[d < 0] = np.inf
    return d


def diameter(g: Graph) -> int:
    """Largest pairwise distance, the largest BFS eccentricity; requires
    a connected graph."""
    if not is_connected(g):
        raise ValueError("diameter requires a connected graph")
    return max(max(bfs(g, s)[1]) for s in range(g.n))


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

    The center is the first vertex minimizing the sum of the terminals'
    BFS rows.  Each witness path walks down its terminal's own row from
    the center, stepping to the smallest-id neighbor one hop closer, so
    outputs are reproducible and the three searches are all it runs: the
    first of them also tells whether g is connected.
    """
    dists = [bfs(g, v)[1] for v in vertex_triple(g, terminals)]
    if -1 in dists[0]:
        raise ValueError("Steiner distance requires a connected graph")
    totals = [sum(ds) for ds in zip(*dists)]
    best_sum = min(totals)
    center = totals.index(best_sum)
    edges: set[tuple[int, int]] = set()
    for dist in dists:
        v = center
        while dist[v]:
            w = min(w for w in g.adjacency[v] if dist[w] == dist[v] - 1)
            edges.add((min(v, w), max(v, w)))
            v = w
    witness = tuple(sorted(edges))
    # At the minimizing center the three tree paths are edge-disjoint, so
    # the union size equals the distance sum.
    assert len(witness) == best_sum
    return SteinerResult(best_sum, witness, center)


# Array elements in one numpy step of sdiam3's exact evaluations: this
# bounds its working memory, never its result.
_STEP_ELEMENTS = 1 << 13


def _distance_matrix(g: Graph) -> np.ndarray:
    """Distances of a connected graph, as the smallest signed integer
    type that holds the sum of three of them."""
    import numpy as np

    if not is_connected(g):
        raise ValueError("Steiner distances require a connected graph")
    return all_pairs_distances(g).astype(np.min_scalar_type(-3 * g.n))


def _steiner_values(d: np.ndarray, a: int, b, c) -> np.ndarray:
    """Steiner distances of the 3-sets {a, b[i], c[i]}: the minimum over
    centers x of d[a, x] + d[b, x] + d[c, x].  ``b`` and ``c`` index rows
    of ``d`` and broadcast against each other."""
    return (d[c] + (d[a] + d[b])).min(axis=1)


def _terminal_bounds(d: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """S and U (module docstring) of the 3-sets {a, b, c} with b, c > a,
    as m x m blocks whose entry [i, j] has b = a+1+i and c = a+1+j.

    Only the entries i < j are 3-sets.  The blocks are symmetric, and by
    the triangle inequality no diagonal entry (S = 2 d(a,b), U = d(a,b))
    exceeds the other entries of its row, so a block's maximum is that
    of its 3-sets.
    """
    import numpy as np

    da = d[a, a + 1 :]
    rest = d[a + 1 :, a + 1 :]
    total = da[:, None] + da
    total += rest
    upper = np.maximum(da[:, None], da)
    np.maximum(upper, rest, out=upper)
    np.subtract(total, upper, out=upper)
    return total, upper


def sdiam3(g: Graph) -> int:
    """Maximum Steiner distance over all 3-sets of vertices.

    Bound and verify, with the bounds L <= Steiner distance <= U of the
    module docstring.  ``best`` starts at the largest L, which is at
    most the Steiner distance of its 3-set, and afterwards rises only to
    exact values, so it never exceeds the answer.  A 3-set with
    U <= best cannot beat ``best`` and is skipped; once every 3-set is
    evaluated or skipped, ``best`` is the answer.  The blocks of first
    vertex a are visited by decreasing largest U, the first block whose
    largest U is <= best ends the search, and inside a block only the
    3-sets with U > best get the exact minimum over centers.
    """
    import numpy as np

    if g.n < 3:
        raise ValueError(f"sdiam3 needs at least 3 vertices, got {g.n}")
    d = _distance_matrix(g)
    first = range(g.n - 2)
    block_max = []
    best = 0
    for a in first:
        total, upper = _terminal_bounds(d, a)
        block_max.append(int(upper.max()))
        best = max(best, (int(total.max()) + 1) // 2)
    step = max(1, _STEP_ELEMENTS // g.n)
    for a in sorted(first, key=lambda a: -block_max[a]):
        if block_max[a] <= best:
            break
        b, c = np.nonzero(np.triu(_terminal_bounds(d, a)[1] > best, 1))
        b += a + 1
        c += a + 1
        for i in range(0, len(b), step):
            vals = _steiner_values(d, a, b[i : i + step], c[i : i + step])
            best = max(best, int(vals.max()))
    return best


def steiner_records(g: Graph) -> list[dict]:
    """Per-triple Steiner values as JSON-ready records, triples in
    lexicographic order: one block per pair a < b, holding the 3-sets
    {a, b, c} for every c > b."""
    d = _distance_matrix(g)
    records = []
    for a in range(g.n - 2):
        for b in range(a + 1, g.n - 1):
            vals = _steiner_values(d, a, b, slice(b + 1, None)).astype(int).tolist()
            records += (
                {"triple": [a, b, c], "d": val} for c, val in enumerate(vals, start=b + 1)
            )
    return records
