"""Shortest-path distances, Steiner distance of 3-sets, and sdiam3.

A minimum tree through three terminals is either a path through them or
a spider with one branch vertex, so its size is the minimum over all
centers v of d(v,a) + d(v,b) + d(v,c).  Everything here exploits that
identity; it does not hold for four or more terminals.  Every distance
comes from ``graphs.bfs``, the one breadth-first search, and the witness
paths of ``steiner_distance_3`` walk down the terminals' own BFS rows.
``_exact`` takes the minimum over centers for batches of 3-sets;
``steiner_distance_3`` takes the argmin for a single set.

With S = d(a,b) + d(a,c) + d(b,c), every 3-set has two bounds that cost
O(1) from the distance matrix:

- upper: a center at a terminal is one candidate, so the Steiner
  distance is at most U = S - max(d(a,b), d(a,c), d(b,c));
- lower: each edge of a minimum tree lies on exactly two of the three
  tree paths between the terminals, and each of those paths is at least
  as long as the distance, so the Steiner distance is at least
  L = ceil(S / 2).

One kernel reads the 3-sets {a, b, c} by chunks of first vertices
a0..a0+step-1 against all b, c > a0: a (step, m, m) cube, m = n-a0-1,
with step * m * m within ``_STEP_ELEMENTS`` unless step = 1, so working
memory is O(n^2).  ``steiner_records`` reads every 3-set of each chunk;
``sdiam3`` computes exact values only for the 3-sets whose U can beat
the best value known.  Its bound pass needs no mask: an entry with
b < a is another 3-set, and one with a repeated vertex has L = U = one
distance, at most sdiam3, so it can weaken pruning but never lift the
largest L past the answer.

numpy is imported inside the functions that run numpy code
(``all_pairs_distances`` and the kernel), so importing this module
loads none; ``diameter`` and ``steiner_distance_3`` work on BFS rows and
never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

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


# Array elements in a chunk and in a slice of exact values: this bounds
# the kernel's working memory, never a result.
_STEP_ELEMENTS = 1 << 15


def _distance_matrix(g: Graph) -> np.ndarray:
    """Distances of a graph with a 3-set, as the smallest signed type
    that holds the sum of three; checks n, then connectivity."""
    import numpy as np

    if g.n < 3:
        raise ValueError(f"sdiam3 needs at least 3 vertices, got {g.n}")
    if not is_connected(g):
        raise ValueError("Steiner distances require a connected graph")
    return all_pairs_distances(g).astype(np.min_scalar_type(-3 * g.n))


def _chunks(n: int) -> Iterator[tuple[int, int]]:
    """(a0, step) of every chunk (module docstring), in order."""
    a0 = 0
    while a0 < n - 2:
        step = min(max(1, _STEP_ELEMENTS // (n - a0 - 1) ** 2), n - 2 - a0)
        yield a0, step
        a0 += step


def _bounds(d: np.ndarray, a0: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """S and U of a chunk's cube, whose entry [i, j, k] is
    {a0+i, a0+1+j, a0+1+k}, a 3-set a < b < c when i <= j < k."""
    import numpy as np

    da, rest = d[a0 : a0 + step, a0 + 1 :], d[a0 + 1 :, a0 + 1 :]
    total = da[:, :, None] + da[:, None]
    total += rest
    upper = np.maximum(da[:, :, None], da[:, None])
    np.maximum(upper, rest, out=upper)
    return total, np.subtract(total, upper, out=upper)


def _exact(d: np.ndarray, a0: int, step: int, keep=True) -> tuple[np.ndarray, ...]:
    """The 3-sets of a chunk's cube (``_bounds``) that ``keep`` selects,
    as arrays (a, b, c, min over centers x of d[a,x] + d[b,x] + d[c,x]),
    in lexicographic order."""
    import numpy as np

    m = len(d) - a0 - 1
    j = np.arange(m)
    keep = keep & (np.arange(step)[:, None] <= j)[:, :, None] & (j[:, None] < j)
    q, c = np.divmod(np.flatnonzero(keep), m)
    a, b = np.divmod(q, m)
    a, b, c = a + a0, b + a0 + 1, c + a0 + 1
    rows = max(1, _STEP_ELEMENTS // len(d))
    vals = [(d[a[i : i + rows]] + d[b[i : i + rows]] + d[c[i : i + rows]]).min(axis=1)
            for i in range(0, len(a), rows)]
    return a, b, c, np.concatenate(vals or [d[:0, 0]])


def sdiam3(g: Graph) -> int:
    """Maximum Steiner distance over all 3-sets of vertices.

    Bound and verify.  A first pass over the chunks keeps each chunk's
    largest U and sets ``best`` to the largest L, at most the answer; it
    rises later only to exact values.  The second visits chunks by
    decreasing largest U until one is <= best, and in a chunk only the
    3-sets that can beat ``best``, those with U > best, get exact values.
    """
    d = _distance_matrix(g)
    tops, best = [], 0
    for a0, step in _chunks(g.n):
        total, upper = _bounds(d, a0, step)
        tops.append((int(upper.max()), a0, step))
        best = max(best, (int(total.max()) + 1) // 2)
    for top, a0, step in sorted(tops, key=lambda t: -t[0]):
        if top <= best:
            break
        vals = _exact(d, a0, step, _bounds(d, a0, step)[1] > best)[3]
        best = max(best, int(vals.max(initial=0)))
    return best


def steiner_records(g: Graph) -> list[dict]:
    """Per-triple Steiner values as JSON-ready records, triples in
    lexicographic order, read chunk by chunk."""
    d = _distance_matrix(g)
    records = []
    for a0, step in _chunks(g.n):
        a, b, c, vals = (x.tolist() for x in _exact(d, a0, step))
        records += ({"triple": [x, y, z], "d": v} for x, y, z, v in zip(a, b, c, vals))
    return records
