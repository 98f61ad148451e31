"""Rainbow-path reach families and the k-rainbow coloring checker.

The engine computes, per (source, target) pair, the antichain of
inclusion-minimal color sets realizable by rainbow paths.  A 3-set has a
rainbow tree iff some center vertex admits pairwise color-disjoint reach
sets to the three terminals: the union of such paths uses no color twice,
so any spanning tree of it is a rainbow tree through the set.

Color sets are bitmasks held in Python ints, so any palette size
works.  Every reach search reads a coloring as one step table
(``step_table``): per vertex, a (bit, w) step per incident edge, in
incidence order, where bit is 1 << color.  An uncolored edge (color
None) is a step of bit 0, and so bears a color unique to that edge:
masks then track only the concrete colors, which is equivalent because
an edge appears at most once in a path, and two paths sharing such an
edge still form an all-distinct-colors union.  The exact solver uses
this for its optimistic partial-coloring checks, with every tree capped
at its palette (``partial_failure``), on one table per palette that it
updates in place.  The checker and the solver share one scan loop
(``_first_bad_set``), for pairs (k=2) and triples (k=3) alike: the
first set of an explicit order with no rainbow tree.

The reach search runs by path length, one edge per step, a step of bit
0 adding nothing: all paths of p edges before any of p + 1, and none
longer than the scan's cap.  A mask is kept only if no mask already
found at its vertex is a subset of it, and since no shorter path can
come later, a kept mask is never removed and no family is ever rebuilt;
a family maps each kept mask to its length, and a triple's center needs
three pairwise-disjoint masks whose lengths fit in the cap together.  On a
total coloring the length is the number of colors, so masks come in
order of size, families are antichains, and the cap at the number of
colors never binds.  With uncolored edges a longer path may bear fewer
colors, so partial-coloring families need not be antichains.  The
families alone give the paths back (``_path_edges``), on rows grown to
any level, and rainbow-tree witnesses need no predecessor map.

Reach rows grow on demand (``_grow``): a row keeps its families and the
level its search stopped before, and the search runs on from there one
level at a time, so a row is built only as deep as the sets that read
it need.  One row store (``_reach_rows``) starts and grows the rows for
every caller: the checker and the solver's partial checks, the witness
search of ``find_rainbow_tree`` and the complete rows of
``rainbow_reach``.  A pair (a, b) fails only when no rainbow path joins
a and b, so pairs need reachability, not antichains: a pair that reaches
the store grows the row of min(a, b), since a rainbow path reversed is
still one, until b holds a mask or the search ends.

A triple has one test, the store's ``triple``: ``_tree_center`` on its
own three rows, whatever the caller or the order it comes from.  A row
a triple starts is grown until every target holds a mask, and the
triple is tried on its rows as they stand: a center with
pairwise-disjoint masks is a rainbow tree however few masks the rows
hold.  Only when that fails are the rows finished and the triple tried
once more, so only a failure on complete rows says the set has no
rainbow tree.

A verdict of ``is_k_rainbow`` passes its sets through these stages, in
lexicographic order; each settles only sets that have a rainbow tree, so
verdicts and first failing sets are those of the plain scan:

1. First rows (``_first_row``): a level-order search that keeps one
   state per vertex, so each mask is the color set of one real rainbow
   path.  For k=2 the first row of a settles every pair (a, b), b > a,
   that it reaches (``_open_pairs``).
2. For k=3 the head triples {0, 1, c}, one c at a time as its first row
   is built: a center where the first-row masks of the three are
   pairwise disjoint settles the triple.
3. The first-mask filter, that test in numpy on the rest of the triples,
   from the n first rows the head left built (``_open_triples``):
   ``_first_mask_pairs`` turns the rows into one bit plane per color and
   those into pair bitsets over 64-center words, the busiest centers in
   the first word, and ``_unsettled_triples`` ANDs the first word over a
   block of triples in one fused pass, reading each later word only for
   the triples still open.
4. The started rows (``_source_hit``): an open triple is tried at the
   source s of each exact row already started (the store's
   ``started``), last useful first.  A row of s holds the masks of real
   rainbow paths from s, however far it is grown, so pairwise-disjoint
   masks at the three terminals are a spider centred at s.
5. The store's exact tests, which start rows only for the sets left
   open: a passing 8x8 grid starts none, at k=2 or k=3.

The k=3 stages run only when more than n * n triples follow the head,
since otherwise they would cost more than they settle.  They read a total
coloring by ranks, the cap at the number of colors, so they run only
in ``is_k_rainbow``: the solver's partial checks and the witness search
go straight to the store.  The filter is the only numpy code here, and
it imports numpy when it is first built, so k=2 verdicts, the solver's
partial checks, k=3 verdicts that fail in the head and k=3 verdicts on
at most 9 vertices never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, dropwhile
from math import comb
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .graphs import Graph, as_int, is_connected, vertex_triple

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of color ids to a graph's edge indices.

    Adjacent edges may share colors.  palette_size bounds the ids; the
    coloring need not use every palette color.  Integers of any type
    (numpy's too) are stored as Python ints; others raise ValueError.
    """

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        palette = as_int(self.palette_size, "palette_size")
        if palette < 0:
            raise ValueError("palette_size must be nonnegative")
        colors = tuple(as_int(c, "an edge color") for c in self.colors)
        for e, c in enumerate(colors):
            if not (0 <= c < palette):
                raise ValueError(f"color {c} of edge {e} outside palette [0, {palette})")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "palette_size", palette)

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

def _start(n: int, source: int) -> tuple[list[dict[int, int]], list[tuple[int, int]]]:
    """The reach row of ``source`` before its search: the families, with
    mask 0 (of length 0) at the source alone, and the level the search
    starts from."""
    fams: list[dict[int, int]] = [{} for _ in range(n)]
    fams[source] = {0: 0}
    return fams, [(source, 0)]


def step_table(
    g: Graph, colors: Sequence[Optional[int]]
) -> list[list[tuple[int, int]]]:
    """The steps of a coloring that every reach search reads:
    steps[v] holds a (bit, w) pair per entry (e, w) of g.incidence[v], in
    that order, where bit is 1 << colors[e], or 0 when colors[e] is None
    (an uncolored edge)."""
    bits = [0 if c is None else 1 << c for c in colors]
    return [[(bits[e], w) for e, w in inc] for inc in g.incidence]


def _grow(
    steps: list[list[tuple[int, int]]],
    fams: list[dict[int, int]],
    level: list[tuple[int, int]],
    cap: int,
    target: Optional[int] = None,
) -> list[tuple[int, int]]:
    """Run the reach search of the row ``fams`` on from ``level`` (not
    empty), and return the level it stopped before: empty once the
    search has ended, and then fams is the complete row.

    steps is the coloring's step table (``step_table``): steps[v] holds
    the (bit, w) step of each edge at v, bit 0 for an uncolored edge,
    which never clashes with a mask and adds nothing to it.  fams[t]
    maps the masks of rainbow paths source->t kept so far, in the order
    found, to their lengths in edges.

    The search runs level by level, and a level is a path length: level
    p holds the states (vertex, mask) of paths with p edges, and each
    edge is one step, an uncolored one adding no bit.  A state is kept
    when no mask already kept at its vertex is a subset of it; every
    kept state is no shorter than those before it, so it is never
    removed, and a kept state dominates every path it stands for (a
    subset of its colors, no more edges).  So every state found is
    expanded, a family's lengths never fall, and the search stops after
    level ``cap``: no path longer than the cap is wanted.  On a total
    coloring the length is the number of colors, so this is the
    breadth-first order, one color per step, and a family is an
    antichain with its masks in order of size.  With uncolored edges a
    longer path may have a smaller mask, so a family need not be one.

    The search depends on fams and level alone (the level's length is
    that of its states), so a row stopped after any level and run on
    later ends with the families of one run.  With ``target`` the search
    stops at the end of the first level after which fams[target] holds a
    mask; a target still empty when the search ends on its own has no
    path within the cap.  The rule is checked once per level, not per
    insertion, and a run to the end (``target=None``) pays only the test
    of ``target``.
    """
    v, mask = level[0]
    depth = fams[v][mask]
    while level:
        if depth == cap:
            return []
        depth += 1
        nxt = []
        for v, mask in level:
            for bit, w in steps[v]:
                if mask & bit:
                    continue
                nm = mask | bit
                fw = fams[w]
                for x in fw:
                    if x & nm == x:
                        break
                else:
                    fw[nm] = depth
                    nxt.append((w, nm))
        level = nxt
        if target is not None and fams[target]:
            break
    return level


def rainbow_reach(
    g: Graph,
    coloring: EdgeColoring,
    source: int,
) -> list[list[int]]:
    """Per target vertex, the antichain of minimal color sets (as
    bitmasks) achievable by rainbow paths from ``source``, sorted by
    size, then by value: the complete reach row of the row store
    (``_reach_rows``), whose families hold their masks in the order
    found.  Bit c of a mask is color id c itself, so a mask has as many
    bits as the largest color id used, plus one."""
    _require_match(g, coloring)
    source = as_int(source, "source")
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    _, _, row, _ = _reach_rows(step_table(g, coloring.colors), g.n - 1)
    return [sorted(sorted(fam), key=int.bit_count) for fam in row(source)]


def _ranked(colors: Sequence[int]) -> list[int]:
    """Each color replaced by its rank among the distinct colors.

    Color ids are only compared for equality, so the verdicts and
    witnesses read the ranks instead, and a mask then has one bit per
    color used, however large the ids.  Ranks keep the order of the ids,
    so the order of masks, and with it every failing set and witness,
    stays the same."""
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [rank[c] for c in colors]


def _tree_center(
    fa: list[dict[int, int]],
    fb: list[dict[int, int]],
    fc: list[dict[int, int]],
    cap: int,
) -> Optional[tuple[int, int, int, int]]:
    """First center x where fa[x], fb[x] and fc[x] hold pairwise-disjoint
    masks whose lengths sum to at most ``cap``, as (x, ma, mb, mc), or
    None.  fa, fb and fc are reach rows, whose families hold their masks
    in order of length, so the first such masks at x are tried shortest
    first, and a mask too long for the cap ends the search of its
    family.  A hit is a rainbow tree however far the rows are grown; a
    miss says the set has none only on complete rows.  On a total
    coloring a mask's length is its number of colors, so the lengths of
    disjoint masks sum to the size of their union, and a cap of at least
    the number of colors never binds.  This is the one disjointness test:
    ``_source_hit`` runs it on one-center rows."""
    for x, (fax, fbx, fcx) in enumerate(zip(fa, fb, fc)):
        for ma in fax:
            for mb in fbx:
                if ma & mb:
                    continue
                room = cap - fax[ma] - fbx[mb]
                if room < 0:
                    break
                mab = ma | mb
                for mc in fcx:
                    if mab & mc:
                        continue
                    if fcx[mc] > room:
                        break
                    return x, ma, mb, mc
    return None


def _path_edges(
    g: Graph, colors: Sequence[int], fams: list[dict[int, int]], v: int, mask: int
) -> Iterator[tuple[int, int]]:
    """Steps (edge, next vertex) of a rainbow path with color set
    ``mask`` from v back to the source of ``fams``, the reach families of
    a total coloring.  A kept mask M at v came from a neighbor over an
    edge of some color c in M, and that neighbor still holds M - {c}:
    each step takes the first such edge, minimality keeps the walk a
    path, and it ends at mask 0."""
    while mask:
        for e, w in g.incidence[v]:
            bit = 1 << colors[e]
            if mask & bit and (mask ^ bit) in fams[w]:
                break
        yield e, w
        v, mask = w, mask ^ bit


def _reach_rows(
    steps: list[list[tuple[int, int]]], cap: int
) -> tuple[list[Optional[list[dict[int, int]]]], list[int], Callable, Callable]:
    """The reach rows of the coloring whose step table is ``steps``
    (``step_table``), as (rows, started, row, triple): the only code that
    starts and grows rows, for every caller.  The rows read the table as
    it stands when they grow, so it must not change while the store is in
    use.

    Each row is started when a caller first needs it and grown (``_grow``,
    no further than ``cap``) only as far as its readers need; rows[v]
    holds its families, or None before it starts, and todo[v] the level
    it resumes from, empty once the row is complete.  started lists the
    vertices whose rows have started, in start order.  ``row(v, t)`` grows
    v's row until fams[t] holds a mask or the search ends, and ``row(v)``
    finishes it.  ``ready(v)`` grows a row it starts until every target
    has a mask; a row already started stays as it stands.

    ``triple(a, b, c)`` is the one triple test: the ``_tree_center`` hit
    on the three rows made ready, else, if any of them is unfinished, the
    hit on the finished rows, else None.  A hit is a rainbow tree however
    far its rows are grown, and None comes only from complete rows, so it
    means the set has no rainbow tree of at most ``cap`` edges.  Callers
    may read ``rows`` and read and reorder ``started`` (the k=3 verdict
    tries open triples at the started sources, ``_source_hit``), but only
    row, ready and triple start or grow rows.
    """
    n = len(steps)
    rows: list[Optional[list[dict[int, int]]]] = [None] * n
    todo: list[list[tuple[int, int]]] = [[]] * n  # the level each row resumes from
    started: list[int] = []

    def row(v: int, target: Optional[int] = None) -> list[dict[int, int]]:
        fams = rows[v]
        if fams is None:
            fams, todo[v] = _start(n, v)
            rows[v] = fams
            started.append(v)
        if todo[v] and (target is None or not fams[target]):
            todo[v] = _grow(steps, fams, todo[v], cap, target)
        return fams

    def ready(v: int) -> list[dict[int, int]]:
        fams = rows[v]
        if fams is None:
            fams, level = _start(n, v)
            for t in range(n):
                if level and not fams[t]:
                    level = _grow(steps, fams, level, cap, t)
            rows[v], todo[v] = fams, level
            started.append(v)
        return fams

    def triple(a: int, b: int, c: int) -> Optional[tuple[int, int, int, int]]:
        hit = _tree_center(ready(a), ready(b), ready(c), cap)
        if hit is None and (todo[a] or todo[b] or todo[c]):
            hit = _tree_center(row(a), row(b), row(c), cap)
        return hit

    return rows, started, row, triple


def find_rainbow_tree(
    g: Graph,
    coloring: EdgeColoring,
    terminals: Iterable[int],
) -> Optional[tuple[int, ...]]:
    """Edge indices of a rainbow tree containing the 3-set, or None.

    The triple test of the row store (``_reach_rows``), the one every
    k=3 verdict runs, gives a center with pairwise color-disjoint reach
    masks to the terminals, and so three rainbow paths that use no color
    twice; the terminals' rows are grown only as far as that test needs.
    The witness walks each path out from the center on those rows and
    keeps an edge only when it reaches a new vertex: each kept edge
    hangs a new vertex on one already reached, so the kept edges form a
    tree through the terminals.
    """
    _require_match(g, coloring)
    s = vertex_triple(g, terminals)
    colors = _ranked(coloring.colors)
    rows, _, _, triple = _reach_rows(step_table(g, colors), len(set(colors)))
    hit = triple(*s)
    if hit is None:
        return None
    center, *masks = hit
    seen = {center}
    tree = []
    for v, mask in zip(s, masks):
        for e, w in _path_edges(g, colors, rows[v], center, mask):
            if w not in seen:
                seen.add(w)
                tree.append(e)
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

# Array elements in one numpy step of the first-mask filter: its
# buffers hold this many uint64 words (256 KB), beside the n * n pair
# words per 64 centers, and a step grows past it only to hold one
# vertex's (n - 1) x (n - 1) square.  It bounds memory, never the result.
_STEP_ELEMENTS = 1 << 15
_WORD = (1 << 64) - 1


def _first_row(steps: list[list[tuple[int, int]]], n: int, source: int) -> list[int]:
    """One rainbow path from ``source`` to each vertex, as its color mask,
    or -1 where the search found none.

    steps is the step table (``step_table``) of a total coloring, the
    one the exact rows of the same scan read, so no step has bit 0.  The
    search runs level by level and keeps one state per vertex: w takes
    m | bit from the first state m that reaches it over an edge whose bit
    is not in m.  The kept edges form a tree, so
    each mask is the color set of a simple rainbow path, and mask 0 is
    the source's alone.  A vertex can be missed though some rainbow path
    reaches it, so -1 proves nothing, and a mask need not be minimal.
    The search stops after the level that gives the last vertex its
    mask: a later level could only expand states, never change the row."""
    row = [-1] * n
    row[source] = 0
    level = [source]
    left = n - 1
    while level and left:
        nxt = []
        for v in level:
            m = row[v]
            for bit, w in steps[v]:
                if row[w] < 0 and not m & bit:
                    row[w] = m | bit
                    nxt.append(w)
        left -= len(nxt)
        level = nxt
    return row


def _first_mask_pairs(first: list[list[int]], top: int) -> np.ndarray:
    """Pair bitsets of the first-mask filter.

    first[v] is the first row of v (``_first_row``) on a total coloring
    whose highest color is ``top`` (a rank, so ``top + 1`` colors are in
    use).  Each (vertex, center) entry is the color mask of one rainbow
    path between them, or all ones where the row has none (-1).  The
    result has one n x n uint64 matrix per 64 centers: for a < b, bit j
    of ``pair[w, a, b]`` is set when the entries of a and b at the center
    numbered 64 * w + j are disjoint.  Entries with a >= b are never
    used (``_unsettled_triples`` masks them out), and most are left 0.
    All ones clashes with itself and with every nonempty mask, and only
    x's own entry is mask 0, so a missing path settles nothing: a center
    set in all three pair bitsets of a triple has three real, pairwise
    color-disjoint paths to it, and so a rainbow tree.

    The rows are converted once, with ``np.array`` when every mask fits
    in an int64, else in words of 64 colors.  The bitsets are built color
    by color: a plane per color holds, per vertex, the centers whose entry
    has that color, so the entries of a and b clash at the centers where
    the AND of their planes is set for some color.  The centers are
    numbered busiest first, fewest colors over their n entries first,
    so the first matrix settles most triples (``_unsettled_triples``).
    """
    import numpy as np

    n, bits = len(first), top + 1
    words = -(-n // 64)
    if bits < 64:
        masks = np.array(first, "<i8")  # -1 is all ones
    else:
        empty = (1 << bits) - 1
        masks = np.array([[(m & empty) >> s & _WORD for s in range(0, bits, 64)]
                          for row in first for m in row], "<u8")
    # has[v, x, c]: the entry of v at center x holds color c
    has = np.unpackbits(masks.view(np.uint8).reshape(n, n, -1), axis=-1, count=bits,
                        bitorder="little")
    if words > 1:  # within one word the order of centers is immaterial
        has = has[:, np.argsort(np.add.reduce(has, axis=0, dtype=np.int32).sum(axis=1),
                                 kind="stable")]
    # planes[c, v, w]: bit j is set when the entry of v at center
    # 64 * w + j holds color c; a center past n holds every color
    held = np.ones((bits, n, 64 * words), np.uint8)
    held[:, :, :n] = has.transpose(2, 0, 1)
    planes = np.packbits(held, axis=-1, bitorder="little").view("<u8")
    pair = np.zeros((words, n, n), np.uint64)
    step = max(1, _STEP_ELEMENTS // (bits * n))
    for free, plane in zip(pair, planes.transpose(2, 0, 1)):
        for a0 in range(0, n, step):
            rows = free[a0 : a0 + step, a0:]  # every b > a, and a few b <= a
            np.bitwise_or.reduce(plane[:, a0 : a0 + step, None] & plane[:, None, a0:],
                                 axis=0, out=rows)
            np.invert(rows, out=rows)
    return pair


def _unsettled_triples(pair: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """Every 3-set {a, b, c} that the first-mask filter leaves open, in
    lexicographic order.

    The filter settles {a, b, c} when some center x has the first-row
    masks of a, b and c at x pairwise disjoint: each is the color set of
    a real rainbow path to x, the three paths share no color, and so a
    settled triple has a rainbow tree.
    That is pair[w, a, b] & pair[w, a, c] & pair[w, b, c] nonzero for
    some word w (``_first_mask_pairs``).  A step takes a block of first
    vertices a and, in one fused pass, ANDs word 0 over the square of
    all b and c above them, keeps the zeros with a < b < c, and yields
    them in order once each later word has dropped those it settles, so
    a later word is read only for the triples still open.
    """
    import numpy as np

    n = pair.shape[1]
    first, later = pair[0], [p.ravel() for p in pair[1:]]
    # one pair of buffers for every step: a fresh array per step would
    # fault its pages in again
    size = max(min(_STEP_ELEMENTS, (n - 2) * (n - 1) ** 2), (n - 1) ** 2)
    common, zero = np.empty(size, np.uint64), np.empty(size, bool)
    upper = np.arange(n)[:, None] <= np.arange(n)
    a0 = 0
    while a0 < n - 2:
        lo = a0 + 1
        m = n - lo
        step = min(max(1, _STEP_ELEMENTS // (m * m)), n - 2 - a0)
        shape = (step, m, m)
        pa = first[a0 : a0 + step, lo:]
        both = np.bitwise_and(pa[:, :, None], pa[:, None, :],
                              out=common[: step * m * m].reshape(shape))
        both &= first[lo:, lo:]
        unsettled = np.equal(both, 0, out=zero[: step * m * m].reshape(shape))
        unsettled &= upper[1 : m + 1, :m]  # b < c
        unsettled &= upper[:step, :m, None]  # a < b
        i = np.flatnonzero(unsettled)
        if i.size:
            q = i // m
            c = i - q * m + lo
            a = q // m
            b = q - a * m + lo
            a += a0
            if later:
                ab, ac, bc = a * n + b, a * n + c, b * n + c
                for w in later:
                    keep = np.flatnonzero((w[ab] & w[ac] & w[bc]) == 0)
                    ab, ac, bc = ab[keep], ac[keep], bc[keep]
                a, b = np.divmod(ab, n)
                c = bc % n
            yield from zip(a.tolist(), b.tolist(), c.tolist())
        a0 += step


def _open_pairs(steps: list[list[tuple[int, int]]]) -> Iterator[tuple[int, int]]:
    """Every pair (a, b), a < b, in lexicographic order, that the first
    row of a (``_first_row``) misses; a pair it reaches has a rainbow
    path, the one whose color set the row holds."""
    n = len(steps)
    for a in range(n - 1):
        first = _first_row(steps, n, a)
        for b in range(a + 1, n):
            if first[b] < 0:
                yield a, b


def _open_triples(
    steps: list[list[tuple[int, int]]], cap: int
) -> Iterator[tuple[int, int, int]]:
    """Every triple, in lexicographic order, that first rows leave open,
    on a total coloring by ranks 0..cap-1: the head triples {0, 1, c}
    that no center of the first rows of 0, 1 and c settles, built one c
    at a time, then the rest that the first-mask filter leaves open, from
    the n first rows the head left built."""
    n = len(steps)
    first = [_first_row(steps, n, v) for v in (0, 1)]
    centers = [(x, a | b) for x, (a, b) in enumerate(zip(*first))
               if a >= 0 and b >= 0 and not a & b]
    for c in range(2, n):
        fc = _first_row(steps, n, c)
        first.append(fc)
        # ab is never 0, so a missing path (-1) clashes with it
        if all(ab & fc[x] for x, ab in centers):
            yield 0, 1, c
    # reached only once every triple of the head has passed
    pair = _first_mask_pairs(first, cap - 1)
    yield from dropwhile(lambda t: t[:2] == (0, 1), _unsettled_triples(pair))


def _source_hit(
    rows: list[Optional[list[dict[int, int]]]],
    started: list[int],
    t: tuple[int, int, int],
    cap: int,
) -> bool:
    """Whether the row of some source s in ``started`` (the started rows
    of the store ``rows``) holds pairwise-disjoint masks at the three
    vertices of t: ``_tree_center`` on rows of the one center s.  A row
    of s holds the masks of real rainbow paths from s, however far it is
    grown, so three disjoint ones are a rainbow tree centred at s.  The
    sources are tried in order, and the one that hits moves to the
    front, so they are tried the most recently useful first."""
    a, b, c = t
    for i, s in enumerate(started):
        fams = rows[s]
        if _tree_center((fams[a],), (fams[b],), (fams[c],), cap) is not None:
            if i:
                started.insert(0, started.pop(i))
            return True
    return False


def _first_bad_set(
    store: tuple, order: Iterable[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """First pair or triple of ``order`` with no rainbow tree, or None:
    the one scan loop, of the verdicts and the solver's partial checks,
    on the rows of the store ``store`` (``_reach_rows``) and no longer
    than its cap.  A pair (a, b), in either orientation, grows the row of
    min(a, b) until fams[max] holds a mask or the search ends, and fails
    when it is still empty.  A triple fails when the store's one triple
    test, ``triple``, finds no center even on complete rows."""
    _, _, row, triple = store
    for vs in order:
        if len(vs) == 2:
            a, b = vs if vs[0] < vs[1] else vs[::-1]
            if not row(a, b)[b]:
                return vs
        elif triple(*vs) is None:
            return vs
    return None


def as_k(k) -> int:
    """The set size ``k`` as an int: 2 or 3, else ValueError."""
    k = as_int(k, "k")
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    return k


def is_k_rainbow(
    g: Graph,
    coloring: EdgeColoring,
    k: int,
) -> Verdict:
    """Check that every k-set of vertices has a rainbow tree (k=2 means a
    rainbow path, i.e. rainbow connectivity).

    The failing verdict carries the lexicographically first bad set.
    The k-sets are scanned in lexicographic order: the settling stages
    of the module docstring (``_open_pairs``, or behind the size gate
    ``_open_triples`` and ``_source_hit``) build the order, and the scan
    loop (``_first_bad_set``) tests only the sets they leave open.
    """
    k = as_k(k)
    _require_match(g, coloring)
    if not is_connected(g):
        raise ValueError("k-rainbow checking requires a connected graph")
    colors = _ranked(coloring.colors)
    steps, cap, n = step_table(g, colors), len(set(colors)), g.n
    store = _reach_rows(steps, cap)
    if k == 2:
        order = _open_pairs(steps)
    elif comb(n, 3) - (n - 2) <= n * n:
        order = combinations(range(n), 3)
    else:
        rows, started = store[:2]
        order = (t for t in _open_triples(steps, cap)
                 if not _source_hit(rows, started, t, cap))
    bad = _first_bad_set(store, order)
    return Verdict(bad is None, bad)


def partial_failure(
    steps: list[list[tuple[int, int]]],
    order: Iterable[tuple[int, ...]],
    palette: int,
) -> Optional[tuple[int, ...]]:
    """Optimistic check for a partially colored graph, given by its step
    table (``step_table``), where an uncolored edge is a step of bit 0.
    Returns the first set of ``order`` (pairs and triples, in the scan
    loop ``_first_bad_set`` that ``is_k_rainbow`` runs too, with no
    settling stage in front) that no completion of the coloring with
    at most ``palette`` colors can give a rainbow tree, or None if no set
    is ruled out.  The solver keeps one table per palette and updates it
    in place as it colors and uncolors edges; the check only reads it.

    A rainbow tree has at most min(palette, n - 1) edges, one color
    each, and holds edge-disjoint paths from one center to its
    terminals: one path for a pair, three (one may be empty) for a
    triple.  So a set is ruled out when no center has such paths whose
    colored edges bear pairwise-disjoint color sets, none with a repeat,
    and whose lengths sum to at most that cap; an uncolored edge counts
    as one edge of a color of its own.  A palette of at least
    n - 1 never binds, since every tree has at most n - 1 edges, and the
    check is then the one on the total coloring that gives each None
    edge a new color.  The families
    the search keeps for a partial coloring need not be antichains: a
    longer path may bear fewer colors.
    """
    return _first_bad_set(_reach_rows(steps, min(palette, len(steps) - 1)), order)
