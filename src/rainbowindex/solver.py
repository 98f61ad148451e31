"""Exact rainbow-index computation by iterative-deepening search.

For palettes c = lower bound, lower bound + 1, ... the solver runs a
backtracking search over canonical edge colorings (color t+1 may appear
only after color t has), so exactly one representative per
color-permutation class is visited.  Edges are assigned in BFS order
from vertex 0, and partial assignments are pruned with an optimistic
check that treats uncolored edges as uniquely colored; that relaxation
never understates feasibility, so pruning is sound.  The first palette
admitting a valid coloring is the exact index, because all smaller
palettes were exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import ceil
from typing import Optional

from .graphs import Graph, as_int, bfs, is_connected
from .rainbow import EdgeColoring, partial_failure
from .steiner import diameter, sdiam3, triples_by_steiner_desc

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
    diameter; k=3: sdiam3).  Vacuous small graphs fall back to what the
    vertex count supports."""
    if as_int(k, "k") not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    if not is_connected(g):
        raise ValueError("lower_bound requires a connected graph")
    if g.n < 2:
        return 0
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


def _search_palette(
    g: Graph,
    palette: int,
    order: list[int],
    set_order: list[tuple[int, ...]],
    counter: list[int],
    budget: int,
) -> Optional[list[int]]:
    """Backtracking search for a canonical coloring with the given
    palette that gives every set of ``set_order`` (the pairs, or the
    triples) a rainbow tree; each check is one ``partial_failure`` scan.
    Returns colors by edge index, or None if exhausted.  Raises
    BudgetExhausted instead of counting a node once ``counter`` has
    reached ``budget``, so an exhausted search reports exactly the budget.
    """
    m = g.m
    colors: list[Optional[int]] = [None] * m
    stride = max(1, ceil(m / 4))
    culprit: Optional[tuple[int, ...]] = None

    def dfs(pos: int, maxc: int) -> bool:
        nonlocal culprit
        e = order[pos]
        depth = pos + 1
        limit = min(maxc + 1, palette - 1)
        for t in range(limit + 1):
            if counter[0] == budget:
                raise BudgetExhausted()
            counter[0] += 1
            colors[e] = t
            if depth == m or depth % stride == 0:
                # The set that failed last usually fails again, and
                # then its reach rows settle the check.
                checks = set_order if culprit is None else chain((culprit,), set_order)
                bad = culprit = partial_failure(g, colors, checks)
            else:
                bad = None
            if bad is None:
                if depth == m:
                    return True
                if dfs(pos + 1, max(maxc, t)):
                    return True
        colors[e] = None
        return False

    if m == 0:
        return []
    if dfs(0, -1):
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
    if as_int(k, "k") not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    budget = as_int(budget, "budget")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if not is_connected(g):
        raise ValueError("rx_exact requires a connected graph")
    if g.m == 0:
        return SolveResult(0, EdgeColoring((), 0), 0, 0, True, 0, 0)

    lb = max(1, lower_bound(g, k))
    order = bfs_edge_order(g)
    set_order = triples_by_steiner_desc(g) if k == 3 else list(combinations(range(g.n), 2))
    counter = [0]
    proven = lb
    for c in range(lb, g.m + 1):
        try:
            found = _search_palette(g, c, order, set_order, counter, budget)
        except BudgetExhausted:
            fallback = EdgeColoring(tuple(range(g.m)), g.m)
            return SolveResult(
                None, fallback, counter[0], lb, False, proven, g.m
            )
        if found is not None:
            witness = EdgeColoring(tuple(found), c)
            return SolveResult(c, witness, counter[0], lb, True, c, c)
        proven = c + 1
    raise AssertionError("palette m admits the all-distinct coloring")
