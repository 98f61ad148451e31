"""Exact rainbow-index computation by iterative-deepening search.

For palettes c = lower bound, lower bound + 1, ... the solver runs a
backtracking search over canonical edge colorings (color t+1 may appear
only after color t has), so exactly one representative per
color-permutation class is visited.  Edges are assigned in BFS order
from vertex 0, and partial assignments are pruned with an optimistic
check (``partial_failure``) that treats uncolored edges as uniquely
colored and caps every tree at the palette c being searched: a set is
cut only when no center has paths to its vertices with pairwise-disjoint
colored masks and at most min(c, n - 1) edges in all.  The cap is sound
because a rainbow tree in any completion with c colors has at most c
edges, and it holds edge-disjoint paths from one center to the set whose
lengths sum to at most that; the check keeps, for each such path, a path
with a subset of its colors and no more edges, so it never cuts a prefix
that has a valid completion.  The first palette admitting a valid
coloring is the exact index, because all smaller palettes were
exhausted.  The checks read the prefix as the reach searches' step
table (``step_table``), kept in place: each palette's search starts
from the all-uncolored table, and each node writes its edge's two steps
as it colors the edge and writes them back to bit 0 as it leaves it.

Graph symmetry is broken by a lex-leader test (Crawford, Ginsberg, Luks
and Roy, KR 1996) over the coset representatives that
``automorphism_transversal`` gives, mapped to edges once per solve.  A
child is cut when, for one of these automorphisms pi, the first-appearance
relabelling of the image x o pi of its prefix is already lexicographically
smaller than the prefix itself, on the positions both determine; an
automorphism whose image compares larger drops out for the subtree.  The
test is sound and keeps the witness: the search returns the
lexicographically least valid canonical coloring x*, and for every
automorphism pi the relabelled x* o pi is valid, canonical and within the
same palette, so it is never smaller than x* and no prefix of x* is cut.
Values and witnesses are those of the search without the test.  A child
cut by it counts as a node, like one cut by ``partial_failure``, so an
exhausted solve still reports exactly its budget.  With one color there
is one canonical coloring, so palettes below 2 skip the test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import ceil
from typing import Optional

from .graphs import Graph, as_int, automorphism_transversal, bfs, is_connected
from .rainbow import EdgeColoring, as_k, partial_failure, step_table
from .steiner import diameter, sdiam3

DEFAULT_BUDGET = 10**8


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    When exact, ``value`` is the index and ``witness`` a verified
    coloring achieving it.  On budget exhaustion ``value`` is None and
    [lower, upper] brackets the index: lower counts the palettes proven
    infeasible, upper comes from the trivial all-distinct coloring, and
    ``witness`` is that fallback coloring.
    """

    value: Optional[int]
    witness: Optional[EdgeColoring]
    nodes_explored: int
    lower_bound_used: int
    exact: bool
    lower: int
    upper: int


def lower_bound(g: Graph, k: int) -> int:
    """Steiner-diameter lower bound on the k-rainbow index (k=2: the
    diameter; k=3: sdiam3, or the diameter when there is no 3-set)."""
    k = as_k(k)
    if not is_connected(g):
        raise ValueError("lower_bound requires a connected graph")
    if k == 3 and g.n >= 3:
        return sdiam3(g)
    return diameter(g)


def bfs_edge_order(g: Graph) -> list[int]:
    """Edge indices ordered by BFS from vertex 0, so early edges cluster
    in one region and partial-infeasibility pruning bites sooner."""
    order: list[int] = []
    seen_edge = [False] * g.m
    for u in bfs(g, 0)[0]:
        for e, _ in g.incidence[u]:
            if not seen_edge[e]:
                seen_edge[e] = True
                order.append(e)
    return order


def canonicalize_colors(colors: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel colors by first appearance, producing the canonical
    representative of the color-permutation class."""
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return tuple(out)


def _position_maps(g: Graph, order: list[int]) -> list[list[int]]:
    """The automorphisms of ``automorphism_transversal`` as maps on
    search positions: the image of a coloring under map rho reads, at
    position p, the color at position rho[p]."""
    pos_of = [0] * g.m
    for p, e in enumerate(order):
        pos_of[e] = p
    maps = []
    for level in automorphism_transversal(g):
        for image in level:
            rho = []
            for e in order:
                u, v = g.edges[e]
                a, b = image[u], image[v]
                rho.append(pos_of[g.edge_index[(a, b) if a < b else (b, a)]])
            maps.append(rho)
    return maps


# A position map still tied with the prefix: the map, how many positions
# its relabelled image has compared equal, and that relabelling so far.
Tied = tuple[list[int], int, dict[int, int]]


def _still_tied(x: list[int], pos: int, tied: list[Tied]) -> Optional[list[Tied]]:
    """Advance each tied map's comparison over the prefix x[0..pos].
    None if an image is already smaller; otherwise the maps still tied,
    in order, with their new comparisons.  An image that compares larger
    drops out.  Leaves ``tied`` and its label maps unchanged."""
    still = []
    for rho, k, labels in tied:
        while k <= pos and rho[k] <= pos:
            c = x[rho[k]]
            lab = labels.get(c)
            if lab is None:
                lab = len(labels)
                labels = {**labels, c: lab}
            if lab != x[k]:
                if lab < x[k]:
                    return None
                break
            k += 1
        else:
            still.append((rho, k, labels))
    return still


def _search_palette(
    g: Graph,
    palette: int,
    order: list[int],
    set_order: list[tuple[int, ...]],
    symmetries: list[list[int]],
    counter: list[int],
    budget: int,
) -> Optional[list[int]]:
    """Backtracking search for a canonical coloring with the given
    palette that gives every set of ``set_order`` (the k-sets) a rainbow
    tree; each check is one ``partial_failure`` scan, with trees capped
    at the palette.
    The checks read one step table (``step_table``), built here with
    every edge uncolored and kept in place: slots[e] holds the two
    entries of edge e, as (row, index, other endpoint), and a node that
    gives e color t stores the step (1 << t, w) in both, and (0, w) as it
    leaves e, so a node costs two stores, not a new table.
    A node inherits its position, the highest color used above it and
    the position maps of ``symmetries`` still tied with the prefix
    (``_still_tied``); it writes and restores only the prefix: its
    position's color and its edge's two step-table slots.
    Returns colors by edge index, or None if exhausted.  Raises
    BudgetExhausted instead of counting a node once ``counter`` has
    reached ``budget``, so an exhausted search reports exactly the budget.
    """
    m = g.m
    colors: list[Optional[int]] = [None] * m
    steps = step_table(g, colors)
    slots: list[list] = [[] for _ in range(m)]
    for v, inc in enumerate(g.incidence):
        for i, (f, w) in enumerate(inc):
            slots[f].append((steps[v], i, w))
    x = [0] * m  # colors by search position; x[p] is set once p is assigned
    # Checking at every node instead cuts the 36 standard solves of the
    # benchmark from 2,282 to 1,357 nodes with the same values and
    # witnesses, but the extra checks cost more than the nodes they save:
    # the 36 solves took 0.056-0.059 s against 0.044-0.050 s (best of 15,
    # 2 CPUs, Python 3.11).
    stride = max(1, ceil(m / 4))
    culprit: Optional[tuple[int, ...]] = None

    def dfs(pos: int, maxc: int, tied: list[Tied]) -> bool:
        nonlocal culprit
        e = order[pos]
        (row_a, i_a, w_a), (row_b, i_b, w_b) = slots[e]
        depth = pos + 1
        limit = min(maxc + 1, palette - 1)
        for t in range(limit + 1):
            if counter[0] == budget:
                raise BudgetExhausted()
            counter[0] += 1
            colors[e] = x[pos] = t
            still = _still_tied(x, pos, tied)
            if still is None:
                continue
            row_a[i_a] = (1 << t, w_a)
            row_b[i_b] = (1 << t, w_b)
            if depth == m or depth % stride == 0:
                # The set that failed last usually fails again, and
                # then its reach rows settle the check.
                checks = set_order if culprit is None else chain((culprit,), set_order)
                bad = culprit = partial_failure(steps, checks, palette)
            else:
                bad = None
            if bad is None:
                if depth == m:
                    return True
                if dfs(pos + 1, max(maxc, t), still):
                    return True
        colors[e] = None
        row_a[i_a] = (0, w_a)
        row_b[i_b] = (0, w_b)
        return False

    if dfs(0, -1, [(rho, 0, {}) for rho in symmetries]):
        assert None not in colors  # a successful leaf assigned every edge
        return colors
    return None


def rx_exact(
    g: Graph,
    k: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Exact k-rainbow index with a witness coloring.

    Iterative deepening over the palette size starting at the Steiner
    lower bound; always terminates at palette m, where the all-distinct
    coloring makes every tree rainbow.  A graph too small to have any
    k-set is vacuously colorable with one color.  ``budget`` caps the
    search nodes; it must be nonnegative.
    """
    k = as_k(k)
    budget = as_int(budget, "budget")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if not is_connected(g):
        raise ValueError("rx_exact requires a connected graph")
    if g.m == 0:
        return SolveResult(0, EdgeColoring((), 0), 0, 0, True, 0, 0)

    lb = lower_bound(g, k)
    order = bfs_edge_order(g)
    # Whether a set fails depends only on the coloring, the set and the
    # cap, so the order of the sets changes no prune decision; this is
    # the lexicographic order that ``is_k_rainbow`` scans.
    set_order = list(combinations(range(g.n), k))
    counter = [0]
    # One color admits one canonical coloring, so there is nothing to cut.
    symmetries: list[list[int]] = []
    for c in range(lb, g.m + 1):
        if c == max(lb, 2):
            symmetries = _position_maps(g, order)
        try:
            found = _search_palette(g, c, order, set_order, symmetries, counter, budget)
        except BudgetExhausted:
            fallback = EdgeColoring(tuple(range(g.m)), g.m)
            return SolveResult(
                None, fallback, counter[0], lb, False, c, g.m
            )
        if found is not None:
            witness = EdgeColoring(tuple(found), c)
            return SolveResult(c, witness, counter[0], lb, True, c, c)
    raise AssertionError("palette m admits the all-distinct coloring")
