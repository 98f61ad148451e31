import random
from itertools import combinations, islice, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    EdgeColoring,
    Verdict,
    build_graph,
    cartesian_coloring,
    cartesian_product,
    complete,
    cycle,
    find_rainbow_tree,
    grid_coloring,
    has_rainbow_tree,
    is_k_rainbow,
    path,
    rainbow_reach,
    rx_exact,
    star,
)
from rainbowindex import rainbow
from rainbowindex.rainbow import (
    _first_bad_set,
    _first_mask_pairs,
    _first_row,
    _grow,
    _path_edges,
    _ranked,
    _reach_rows,
    _start,
    _tree_center,
    _unsettled_triples,
    coloring_from_json_dict,
    coloring_to_json_dict,
    partial_failure,
    step_table,
)

from oracles import (
    _edges_connected,
    covered_triples,
    has_rainbow_tree_brute,
    path_color_sets,
    random_coloring,
    random_connected_graph,
)
from test_verdict_hash import gnp, wide_pool


def masks_to_sets(masks):
    return sorted(
        frozenset(i for i in range(32) if m >> i & 1) for m in masks
    )


def materialize_fresh(colors, palette):
    """The total coloring that gives each None edge its own new color."""
    materialized = []
    fresh = palette
    for c in colors:
        if c is None:
            materialized.append(fresh)
            fresh += 1
        else:
            materialized.append(c)
    return EdgeColoring(tuple(materialized), fresh)


def test_coloring_validation_and_json():
    c = EdgeColoring((0, 2, 1), 3)
    assert coloring_from_json_dict(coloring_to_json_dict(c)) == c
    with pytest.raises(ValueError):
        EdgeColoring((0, 3), 3)
    with pytest.raises(ValueError):
        EdgeColoring((-1,), 2)
    with pytest.raises(ValueError):
        coloring_from_json_dict({"colors": [0]})


def test_reach_examples():
    p3 = path(3)
    fams = rainbow_reach(p3, EdgeColoring((0, 1), 2), 0)
    assert fams[2] == [0b11]
    fams = rainbow_reach(p3, EdgeColoring((0, 0), 1), 0)
    assert fams[2] == []
    # two routes around C_4, same color set
    fams = rainbow_reach(cycle(4), EdgeColoring((0, 1, 0, 1), 2), 0)
    assert fams[2] == [0b11]
    assert path_color_sets(cycle(4), EdgeColoring((0, 1, 0, 1), 2), 0, 2) == [
        frozenset({0, 1})
    ]


def test_reach_matches_path_enumeration():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(4))
        c = random_coloring(rng, g.m, rng.randrange(2, 5))
        s = rng.randrange(g.n)
        fams = rainbow_reach(g, c, s)
        for t in range(g.n):
            expect = path_color_sets(g, c, s, t)
            assert masks_to_sets(fams[t]) == expect


def test_reach_is_antichain():
    rng = random.Random(29)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(5))
        c = random_coloring(rng, g.m, rng.randrange(2, 5))
        fams = rainbow_reach(g, c, 0)
        for fam in fams:
            for a in fam:
                for b in fam:
                    if a != b:
                        assert not (a & b == a)  # no subset pairs


def complete_row(g, colors, source):
    """The complete reach row of source, as the solver's checks read it:
    each kept mask with its length."""
    fams, level = _start(g.n, source)
    _grow(step_table(g, colors), fams, level, g.n - 1)
    return fams


def minimal(sets):
    return {cs for cs in sets if not any(o < cs for o in sets)}


def test_relaxed_reach_matches_path_enumeration():
    # An uncolored edge acts as a color of its own: give each one a fresh
    # color, enumerate paths, then drop the fresh colors.  The complete
    # row that _start and _grow build holds, at each target, exactly the
    # minimal concrete color sets among its keys, and every key is the
    # concrete color set of a real path.
    rng = random.Random(71)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(6))
        palette = rng.randrange(1, 5)
        colors = [
            None if rng.random() < 0.4 else rng.randrange(palette)
            for _ in range(g.m)
        ]
        fresh = materialize_fresh(colors, palette)
        s = rng.randrange(g.n)
        fams = complete_row(g, colors, s)
        for t in range(g.n):
            concrete = {
                frozenset(c for c in cs if c < palette)
                for cs in path_color_sets(g, fresh, s, t)
            }
            keys = set(masks_to_sets(fams[t]))
            assert minimal(keys) == minimal(concrete)
            assert keys <= concrete
    # no size cliff: a 300-color path, whole and with every third edge
    # uncolored, gives one mask per target
    g = path(301)
    whole = list(range(300))
    for colors in (whole, [None if c % 3 == 0 else c for c in whole]):
        fams = complete_row(g, colors, 0)
        for t in range(301):
            assert list(fams[t]) == [sum(1 << c for c in colors[:t] if c is not None)]


def colors_grow(g, colors, fams, level, cap, target=None):
    """The reach search as it read colors before the step table: colors[e]
    is the color of edge e, or None for a color unique to that edge."""
    incidence = g.incidence
    v, mask = level[0]
    depth = fams[v][mask]
    while level:
        if depth == cap:
            return []
        depth += 1
        nxt = []
        for v, mask in level:
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


def test_step_table_grow_matches_the_colors_kernel():
    # On partial colorings with raw color ids up to 100, for every cap
    # and source, with and without a target, _grow on the step table
    # keeps the same masks with the same lengths in the same insertion
    # order as the colors-based search, and stops before the same level;
    # a row stopped at a target and run on to the end agrees too.
    rng = random.Random(149)
    stopped = several = wide = 0
    for _ in range(30):
        n = rng.randrange(3, 10)
        g = random_connected_graph(rng, n, rng.randrange(2 * n))
        palette = rng.choice((3, 8, 101))
        colors = [None if rng.random() < 0.3 else rng.randrange(palette) for _ in range(g.m)]
        steps = step_table(g, colors)
        for cap, source in product(range(1, n), range(n)):
            for target in (None, rng.randrange(n)):
                want, level = _start(n, source)
                want_level = colors_grow(g, colors, want, level, cap, target)
                got, level = _start(n, source)
                got_level = _grow(steps, got, level, cap, target)
                assert got_level == want_level
                assert [list(f.items()) for f in got] == [list(f.items()) for f in want]
                if got_level:
                    stopped += 1
                    assert (colors_grow(g, colors, want, want_level, cap)
                            == _grow(steps, got, got_level, cap) == [])
                    assert [list(f.items()) for f in got] == [list(f.items()) for f in want]
                several += any(len(f) > 1 for f in got)
                wide += any(m.bit_length() > 64 for f in got for m in f)
    assert stopped > 0 and several > 0 and wide > 0


def test_reach_errors():
    with pytest.raises(ValueError):
        rainbow_reach(path(3), EdgeColoring((0,), 1), 0)  # length mismatch
    # no palette bound: masks are Python ints
    fams = rainbow_reach(path(3), EdgeColoring((0, 39), 40), 0)
    assert fams[2] == [(1 << 0) | (1 << 39)]
    # the source must be an integer; numpy integers are
    with pytest.raises(ValueError):
        rainbow_reach(path(3), EdgeColoring((0, 39), 40), 1.0)
    assert rainbow_reach(path(3), EdgeColoring((0, 39), 40), np.int64(0)) == fams
    # terminals must be exactly three distinct in-range integers
    c = EdgeColoring((0, 1, 2, 3), 4)
    for terminals in (["0", 2, 4], [0, 2.9, 4], [0, 2, 2], [0, 2, 5]):
        with pytest.raises(ValueError):
            has_rainbow_tree(path(5), c, terminals)
    assert find_rainbow_tree(path(5), c, np.array([4, 0, 2])) == (0, 1, 2, 3)


def is_rainbow_tree_through(g, c, s, tree):
    """tree (edge indices) is a rainbow tree of g under c through the set s."""
    verts = {v for e in tree for v in g.edges[e]}
    return (len({c.colors[e] for e in tree}) == len(tree) == len(verts) - 1
            and set(s) <= verts and _edges_connected(g, tree, verts))


def test_rainbow_tree_star_examples():
    g = star(4)
    assert has_rainbow_tree(g, EdgeColoring((0, 1, 2), 3), [1, 2, 3])
    assert not has_rainbow_tree(g, EdgeColoring((0, 1, 1), 2), [1, 2, 3])
    assert has_rainbow_tree(path(4), EdgeColoring((0, 1, 2), 3), [0, 1, 3])


def test_rainbow_tree_witness_structure():
    rng = random.Random(37)
    found = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(4, 7), rng.randrange(4))
        c = random_coloring(rng, g.m, rng.randrange(2, 5))
        s = rng.sample(range(g.n), 3)
        tree = find_rainbow_tree(g, c, s)
        if tree is None:
            continue
        found += 1
        assert is_rainbow_tree_through(g, c, s, tree)
    assert found > 10


def test_rainbow_tree_where_paths_meet_away_from_center():
    # The witness keeps a path's edge only when it reaches a new vertex.
    # In the second instance (from a seeded search over random 5-vertex
    # graphs) the center is terminal 0, and the path 0-4-2-3 passes
    # terminal 2, which the path 0-2 reached first: the three paths hold
    # four edges, and the witness keeps three of them.
    cases = [
        (build_graph(4, [(0, 3), (2, 3), (1, 3), (1, 2)]), EdgeColoring((2, 4, 0, 3), 5),
         (0, 1, 3)),
        (build_graph(5, [(2, 4), (1, 4), (2, 3), (0, 2), (0, 4)]),
         EdgeColoring((2, 0, 1, 0, 5), 6), (0, 2, 3)),
    ]
    for g, c, s in cases:
        tree = find_rainbow_tree(g, c, s)
        assert is_rainbow_tree_through(g, c, s, tree)
    # the second instance's paths, walked on the rows its witness read
    colors = _ranked(c.colors)
    rows, _, _, triple = _reach_rows(step_table(g, colors), len(set(colors)))
    center, *masks = triple(*s)
    paths = [list(_path_edges(g, colors, rows[v], center, m)) for v, m in zip(s, masks)]
    assert sum(map(len, paths)) > len(tree)


def test_rainbow_tree_has_no_size_cliff():
    # on an all-distinct K8 the rows of any triple, grown one level,
    # already meet at a center over one-color edges, though a complete
    # row of K8 holds families of ~2,000 masks
    g = complete(8)
    c = EdgeColoring(tuple(range(g.m)), g.m)
    for s in combinations(range(g.n), 3):
        assert is_rainbow_tree_through(g, c, s, find_rainbow_tree(g, c, s))


def test_huge_color_ids_give_the_same_results():
    g = path(101)
    c = EdgeColoring(tuple(i % 60 for i in range(100)), 60)
    big = EdgeColoring(tuple(x * 10**6 + 7 for x in c.colors), 59 * 10**6 + 8)
    for k in (2, 3):
        assert is_k_rainbow(g, big, k) == is_k_rainbow(g, c, k) != Verdict(True)
    for s in ((0, 1, 60), (0, 1, 61), (10, 40, 69), (20, 50, 90)):
        assert find_rainbow_tree(g, big, s) == find_rainbow_tree(g, c, s)
    huge = EdgeColoring((0, 10**30), 10**30 + 1)
    assert is_k_rainbow(path(3), huge, 3).ok
    assert find_rainbow_tree(path(3), huge, (0, 1, 2)) == (0, 1)


def test_rainbow_tree_matches_brute_oracle():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(5))
        c = random_coloring(rng, g.m, rng.randrange(2, 5))
        want = covered_triples(g, c)
        for s in combinations(range(g.n), 3):
            assert has_rainbow_tree(g, c, s) == (s in want)


def test_is_k_rainbow_examples():
    ok = is_k_rainbow(cycle(4), EdgeColoring((0, 1, 0, 1), 2), 3)
    assert ok.ok and ok.failing is None
    assert is_k_rainbow(path(5), EdgeColoring((0, 1, 2, 3), 4), 3).ok
    # a tree needs all edges distinct: every 3-color attempt on P_5 fails
    for colors in product(range(3), repeat=4):
        assert not is_k_rainbow(path(5), EdgeColoring(colors, 3), 3).ok
    witness = rx_exact(build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]), 3).witness
    assert witness.palette_size == 2


def test_failing_set_is_lexicographically_first():
    g = star(4)
    c = EdgeColoring((0, 0, 0), 1)
    verdict = is_k_rainbow(g, c, 3)
    assert not verdict.ok
    all_failing = sorted(
        s for s in combinations(range(g.n), 3) if not has_rainbow_tree_brute(g, c, s)
    )
    assert verdict.failing == all_failing[0]


def test_k2_short_circuit():
    verdict = is_k_rainbow(path(3), EdgeColoring((0, 0), 1), 2)
    assert not verdict.ok and verdict.failing == (0, 2)
    assert is_k_rainbow(path(3), EdgeColoring((0, 1), 2), 2).ok


def test_k2_has_no_size_cliff():
    # a pair needs one rainbow path, so in an all-distinct K40 (780
    # colors, masks far wider than 64 bits) the first row of each vertex
    # settles every pair after one level and stops there
    g = complete(40)
    assert is_k_rainbow(g, EdgeColoring(tuple(range(g.m)), g.m), 2).ok
    # P300 with edges i < j sharing a color: (0, j + 1) is the first pair
    # whose path holds both, the first row of 0 misses it, and the exact
    # row 0 runs to its natural end
    g = path(300)
    for i, j in ((0, 1), (17, 250), (297, 298)):
        colors = list(range(g.m))
        colors[j] = i
        verdict = is_k_rainbow(g, EdgeColoring(tuple(colors), g.m), 2)
        assert verdict == Verdict(False, (0, j + 1))


def test_k3_has_no_size_cliff():
    # every triple of an all-distinct complete graph has a tree of two
    # one-color edges at one of its vertices, so rows grown one level
    # settle it, though a complete row of K8 holds families of ~2,000
    # masks; a monochromatic K8 fails at its first triple
    for n in (8, 12, 16):
        g = complete(n)
        assert is_k_rainbow(g, EdgeColoring(tuple(range(g.m)), g.m), 3) == Verdict(True)
    g = complete(8)
    assert is_k_rainbow(g, EdgeColoring((0,) * g.m, 1), 3) == Verdict(False, (0, 1, 2))


@st.composite
def colored_graphs(draw):
    """A small connected graph (a random tree plus extra edges) with a
    random total coloring."""
    n = draw(st.integers(2, 6))
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=4))
    g = build_graph(n, pairs)
    palette = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, palette - 1), min_size=g.m, max_size=g.m))
    return g, EdgeColoring(tuple(colors), palette)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(colored_graphs())
def test_failing_sets_and_rainbow_trees_match_brute_oracles(gc):
    # k=2: the first pair with no rainbow path; k=3: the first triple that
    # no rainbow tree covers, and a valid witness for every covered triple
    g, c = gc
    want = next(
        (p for p in combinations(range(g.n), 2) if not path_color_sets(g, c, *p)), None
    )
    verdict = is_k_rainbow(g, c, 2)
    assert verdict.failing == want and verdict.ok == (want is None)
    covered = covered_triples(g, c)
    triples = list(combinations(range(g.n), 3))
    want = next((s for s in triples if s not in covered), None)
    verdict = is_k_rainbow(g, c, 3)
    assert verdict.failing == want and verdict.ok == (want is None)
    for s in triples:
        tree = find_rainbow_tree(g, c, s)
        assert (tree is None) == (s not in covered)
        assert tree is None or is_rainbow_tree_through(g, c, s, tree)


def test_numpy_colors_match_python_ints():
    # 1 << np.int64(70) is 0, so numpy colors of 64 and up must become ints
    g = path(101)
    colors = list(range(100))
    colors[6] = 70
    as_ints = EdgeColoring(tuple(colors), 100)
    as_numpy = EdgeColoring(np.array(colors), np.int64(100))
    assert is_k_rainbow(g, as_ints, 2).failing == (0, 71)
    assert is_k_rainbow(g, as_ints, 3).failing == (0, 1, 71)
    for k in (2, 3):
        assert is_k_rainbow(g, as_numpy, k) == is_k_rainbow(g, as_ints, k)
    assert as_numpy.colors == as_ints.colors and type(as_numpy.colors[70]) is int
    assert type(as_numpy.palette_size) is int
    # numpy colors next to the shifted color 100 used to overflow
    report = cartesian_coloring(
        path(3), EdgeColoring(np.array([0, 1]), 100), path(2), EdgeColoring((0,), 1)
    )
    assert report.coloring.palette_size == 101
    for colors, palette in (
        ((0.5, 1), 2), ((0, "1"), 2), ((0, 1), 2.0), ((True, False), 2), ((0, 1), True)
    ):
        with pytest.raises(ValueError):
            EdgeColoring(colors, palette)


def test_is_k_rainbow_wide_masks_match_brute_oracle():
    # colors above 64: masks no longer fit one machine word
    rng = random.Random(43)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(5))
        high = rng.sample(range(64, 100), rng.randrange(2, 5))
        c = EdgeColoring(tuple(rng.choice(high) for _ in range(g.m)), 100)
        want = covered_triples(g, c)
        bad = [s for s in combinations(range(g.n), 3) if s not in want]
        verdict = is_k_rainbow(g, c, 3)
        assert verdict.ok == (not bad)
        assert verdict.failing == (bad[0] if bad else None)


def test_is_k_rainbow_errors():
    with pytest.raises(ValueError):
        is_k_rainbow(path(3), EdgeColoring((0, 1), 2), 4)
    with pytest.raises(ValueError):
        is_k_rainbow(path(3), EdgeColoring((0, 1), 2), 2.0)
    assert is_k_rainbow(path(3), EdgeColoring((0, 1), 2), np.int64(2)).ok
    with pytest.raises(ValueError):
        is_k_rainbow(build_graph(4, [(0, 1), (2, 3)]), EdgeColoring((0, 1), 2), 3)


def test_vacuous_small_graphs_pass():
    assert is_k_rainbow(path(2), EdgeColoring((0,), 1), 3).ok
    assert is_k_rainbow(path(1), EdgeColoring((), 0), 3).ok


def test_fresh_recolor_never_breaks_ok():
    rng = random.Random(53)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(4))
        c = random_coloring(rng, g.m, rng.randrange(2, 4))
        if not is_k_rainbow(g, c, 3).ok:
            continue
        e = rng.randrange(g.m)
        colors = list(c.colors)
        colors[e] = c.palette_size  # globally fresh color
        assert is_k_rainbow(g, EdgeColoring(tuple(colors), c.palette_size + 1), 3).ok


def test_spanning_subgraph_extension_stays_rainbow():
    rng = random.Random(59)
    for _ in range(15):
        h = random_connected_graph(rng, rng.randrange(4, 6), 0)  # a tree
        witness = rx_exact(h, 3).witness
        missing = [
            (u, v)
            for u in range(h.n)
            for v in range(u + 1, h.n)
            if not h.has_edge(u, v)
        ]
        rng.shuffle(missing)
        extras = missing[: rng.randrange(1, len(missing) + 1)]
        g = build_graph(h.n, list(h.edges) + extras)
        colors = list(witness.colors) + [
            rng.randrange(witness.palette_size) for _ in extras
        ]
        assert is_k_rainbow(g, EdgeColoring(tuple(colors), witness.palette_size), 3).ok


def test_partial_failure_matches_materialized_fresh_colors():
    # wildcard edges behave exactly like unique out-of-palette colors
    rng = random.Random(61)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(4))
        palette = rng.randrange(1, 4)
        colors = [
            rng.randrange(palette) if rng.random() < 0.6 else None
            for _ in range(g.m)
        ]
        full = materialize_fresh(colors, palette)
        steps = step_table(g, colors)
        for k in (2, 3):
            relaxed = partial_failure(steps, combinations(range(g.n), k), g.n - 1)
            exact = is_k_rainbow(g, full, k)
            assert (relaxed is None) == exact.ok


def test_partial_failure_returns_first_failing_triple_of_order():
    # pairs as well: one scan serves both set sizes
    rng = random.Random(67)
    pair_rng = random.Random(71)
    failures = pair_failures = binding = 0
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(4))
        palette = rng.randrange(1, 4)
        colors = [
            rng.randrange(palette) if rng.random() < 0.6 else None
            for _ in range(g.m)
        ]
        full = materialize_fresh(colors, palette)
        steps = step_table(g, colors)
        order = list(combinations(range(g.n), 3))
        rng.shuffle(order)
        want = next(
            (s for s in order if not has_rainbow_tree_brute(g, full, s)), None
        )
        assert partial_failure(steps, order, g.n - 1) == want
        failures += want is not None
        pairs = list(combinations(range(g.n), 2))
        pair_rng.shuffle(pairs)
        want = next((p for p in pairs if not path_color_sets(g, full, *p)), None)
        assert partial_failure(steps, pairs, g.n - 1) == want
        pair_failures += want is not None
        # Under a binding cap a set still fails or passes on its own, so
        # a shuffled order returns its first set that a one-set check
        # rules out: the set order changes no prune decision.
        for cap in range(1, g.n - 1):
            for sets in (order, pairs):
                want = next(
                    (s for s in sets if partial_failure(steps, [s], cap) == s), None
                )
                assert partial_failure(steps, sets, cap) == want
                # count the sets that only the cap rules out
                if want is not None and partial_failure(steps, [want], g.n - 1) is None:
                    binding += 1
    assert failures > 5 and pair_failures > 5 and binding > 20


def test_partial_failure_on_mixed_orders():
    # pairs in both orientations mixed with triples: a row grown only as
    # far as a pair needs must be finished before it serves a triple, and
    # must serve a reversed pair.  Shuffled orders catch a reversed pair;
    # putting the pairs first grows rows part way before any triple asks
    # for them.
    rng = random.Random(73)
    # the row of 3 stops once 4 has a mask, before it reaches 0, 1 or 2
    g = build_graph(5, [(0, 1), (1, 2), (2, 4), (4, 3)])
    for pair in ((3, 4), (4, 3)):
        assert partial_failure(step_table(g, [0, 1, 2, 3]), [pair, (0, 1, 3)], g.n - 1) is None
    failures = pair_failures = 0
    for _ in range(60):
        n = rng.randrange(3, 9)
        g = random_connected_graph(rng, n, rng.randrange(n // 2 + 1))
        palette = rng.randrange(1, g.m + 1)
        colors = [
            rng.randrange(palette) if rng.random() < 0.5 else None
            for _ in range(g.m)
        ]
        full = materialize_fresh(colors, palette)
        steps = step_table(g, colors)
        covered = covered_triples(g, full)
        pairs = [p if rng.random() < 0.5 else p[::-1] for p in combinations(range(n), 2)]
        triples = list(combinations(range(n), 3))
        rng.shuffle(pairs)
        rng.shuffle(triples)
        mixed = pairs + triples
        rng.shuffle(mixed)
        for order in (mixed, pairs + triples):
            want = next(
                (
                    s for s in order
                    if (not path_color_sets(g, full, *s) if len(s) == 2 else s not in covered)
                ),
                None,
            )
            assert partial_failure(steps, order, g.n - 1) == want
            failures += want is not None
            pair_failures += want is not None and len(want) == 2
    assert failures > 10 and pair_failures > 5


@st.composite
def partially_colored_graphs(draw):
    """A graph on 3..6 vertices with at most 9 edges, a palette of 1..4
    colors and a coloring from it that leaves at most 6 edges uncolored."""
    n = draw(st.integers(3, 6))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          unique=True, max_size=9))
    palette = draw(st.integers(1, 4))
    uncolored = draw(st.sets(st.integers(0, len(edges) - 1), max_size=6)) if edges else set()
    colors = [None if e in uncolored else draw(st.integers(0, palette - 1))
              for e in range(len(edges))]
    return build_graph(n, edges), colors, palette


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(partially_colored_graphs())
def test_capped_partial_failures_hold_in_every_completion(case):
    # every pair or triple that the check with a palette rules out has no
    # rainbow path or tree in any completion with colors from that palette
    g, colors, palette = case
    sets = list(combinations(range(g.n), 2)) + list(combinations(range(g.n), 3))
    steps = step_table(g, colors)
    ruled_out = [s for s in sets if partial_failure(steps, [s], palette) == s]
    holes = [e for e, c in enumerate(colors) if c is None]
    for fill in product(range(palette), repeat=len(holes)) if ruled_out else ():
        full = list(colors)
        for e, c in zip(holes, fill):
            full[e] = c
        completion = EdgeColoring(tuple(full), palette)
        for s in ruled_out:
            if len(s) == 2:
                assert not path_color_sets(g, completion, *s)
            else:
                assert not has_rainbow_tree_brute(g, completion, s)


def test_block_pass_on_long_paths_with_wide_masks():
    # P70 and P101 with all-distinct colors 0..n-2 (masks of 69 and 100
    # bits), 0-3 edges recolored to repeat a color.  {a, b, c} has a
    # rainbow tree iff the subpath between its outermost vertices repeats
    # no color.  A repeat fails a triple {0, 1, c} unless it straddles
    # vertices 0 and 1, so the renamed paths put them mid-path, between
    # the two edges of their first repeat.
    rng = random.Random(83)
    early = late = 0
    for n, repeats, renamed in product((70, 101), range(4), (False, True)):
        mid = n // 2
        order = list(range(n))
        if renamed:
            order = rng.sample(range(2, n), n - 2)
            order[mid:mid] = [0, 1]
        colors = list(range(n - 1))
        for i in range(repeats):
            if renamed and i == 0:
                e, f = rng.randrange(mid), rng.randrange(mid + 1, n - 1)
            else:
                e, f = rng.sample(range(n - 1), 2)
            colors[e] = colors[f]
        g = build_graph(n, [(order[i], order[i + 1]) for i in range(n - 1)])
        c = EdgeColoring(tuple(colors), n - 1)
        pos = {v: i for i, v in enumerate(order)}
        # the subpath from position lo to hi repeats a color iff hi >= limit[lo]
        limit = []
        for lo in range(n):
            seen, hi = set(), lo
            while hi < n - 1 and colors[hi] not in seen:
                seen.add(colors[hi])
                hi += 1
            limit.append(hi + 1 if hi < n - 1 else n)

        def covered(s):
            ps = [pos[v] for v in s]
            return max(ps) < limit[min(ps)]

        uncovered = sum(hi - lo - 1 for lo in range(n) for hi in range(limit[lo], n))
        want = None
        if uncovered:
            want = next(s for s in combinations(range(n), 3) if not covered(s))
            early += want[:2] == (0, 1)
            late += want[:2] != (0, 1)
        verdict = is_k_rainbow(g, c, 3)
        assert verdict.failing == want and verdict.ok == (want is None)
        assert (want is None) == (repeats == 0)
        # on a path the filter leaves open exactly the uncovered triples,
        # in lexicographic order
        fams = [complete_row(g, colors, v) for v in range(n)]
        pair = _first_mask_pairs([[next(iter(f), -1) for f in row] for row in fams], max(colors))
        unsettled = list(_unsettled_triples(pair))
        assert unsettled == sorted(set(unsettled)) and len(unsettled) == uncovered
        assert not any(covered(s) for s in unsettled)
    assert early > 0 and late > 0


def test_first_mask_filter_is_sound_on_multi_mask_families():
    # palettes of 2-4 colors leave many families with two or more masks;
    # the filter leaves open, in order, exactly the triples with no center
    # whose three first masks are pairwise disjoint, and every triple it
    # settles is one that the brute-force oracle covers
    rng = random.Random(97)
    beyond_single = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(5, 9), rng.randrange(2, 7))
        c = random_coloring(rng, g.m, rng.randrange(2, 5))
        fams = [complete_row(g, c.colors, v) for v in range(g.n)]

        def centers(t):
            return [x for x in range(g.n)
                    if all(fams[v][x] for v in t)
                    and not any(next(iter(fams[u][x])) & next(iter(fams[v][x]))
                                for u, v in combinations(t, 2))]

        first = [[next(iter(f), -1) for f in row] for row in fams]
        unsettled = list(_unsettled_triples(_first_mask_pairs(first, max(c.colors))))
        triples = list(combinations(range(g.n), 3))
        assert unsettled == [t for t in triples if not centers(t)]
        covered = covered_triples(g, c)
        for t in set(triples) - set(unsettled):
            assert t in covered
            # settled only at centers where some family has several masks
            beyond_single += all(any(len(fams[v][x]) > 1 for v in t) for x in centers(t))
    assert beyond_single > 0


def first_rows(g, colors):
    """The first row (``_first_row``) of every vertex, on raw colors."""
    steps = step_table(g, colors)
    return [_first_row(steps, g.n, v) for v in range(g.n)]


def test_first_rows_are_rainbow_paths():
    # every mask of a first row is the color set of a simple rainbow path
    # between its two vertices, and mask 0 is the source's alone, on
    # palettes of 2 to 100 colors.  The masks need not be minimal: here
    # the search reaches 3 first from 1 (colors {3, 4}), so 3 cannot go
    # on to 4 over color 3, and 4 is reached over 0-2-5-6-4 with colors
    # {1, 2, 3, 5}, a superset of those of 0-2-3-4
    g = build_graph(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 6), (6, 4)])
    c = EdgeColoring((4, 1, 3, 2, 3, 3, 2, 5), 6)
    assert first_rows(g, c.colors)[0][4] == 0b101110
    assert path_color_sets(g, c, 0, 4) == [frozenset({1, 2, 3})]
    rng = random.Random(113)
    found = wide = 0
    for _ in range(80):
        n = rng.randrange(4, 10)
        g = random_connected_graph(rng, n, rng.randrange(2 * n))
        c = random_coloring(rng, g.m, rng.choice((2, 3, 5, 8, 70, 100)))
        for s, row in enumerate(first_rows(g, c.colors)):
            for t, mask in enumerate(row):
                assert (mask == 0) == (s == t)
                if mask > 0:
                    cs = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
                    assert cs in path_color_sets(g, c, s, t, minimal=False)
                    found += 1
                    wide += mask.bit_length() > 64
    assert found > 0 and wide > 0


def test_first_row_filter_settles_only_covered_triples():
    # the filter, and the head's test before it, settle a triple only at
    # a center where its three first-row masks are pairwise disjoint; on
    # palettes of 2 to 100 colors every triple so settled is one that the
    # brute-force oracle covers
    rng = random.Random(127)
    settled = wide = 0
    for _ in range(60):
        n = rng.randrange(5, 9)
        g = random_connected_graph(rng, n, rng.randrange(1, 7))
        c = random_coloring(rng, g.m, rng.choice((2, 3, 4, 70, 100)))
        first = first_rows(g, c.colors)
        unsettled = list(_unsettled_triples(_first_mask_pairs(first, max(c.colors))))
        covered = covered_triples(g, c)
        for t in combinations(range(n), 3):
            center = any(all(first[v][x] >= 0 for v in t)
                         and not any(first[u][x] & first[v][x] for u, v in combinations(t, 2))
                         for x in range(n))
            assert (t in unsettled) == (not center)
            if center:
                assert t in covered
                settled += 1
        wide += max(c.colors) >= 64
    assert settled > 0 and wide > 0


def blockwise_first_mask_pairs(first, top):
    """The pair bitsets as built before the fused kernel: for a block of
    first vertices at a time, every entry's color mask ANDed in words of
    64 colors, centers packed in vertex order into (n, n, words) uint64."""
    n = len(first)
    bits = top + 1
    empty = (1 << bits) - 1
    flat = [m & empty for row in first for m in row]
    words = [
        np.array(flat if bits <= 64 else [m >> s & (1 << 64) - 1 for m in flat], np.uint64)
        .reshape(n, n)
        for s in range(0, bits, 64)
    ]
    pair = np.zeros((n, n, 8 * -(-n // 64)), np.uint8)
    step = max(1, (1 << 13) // (n * n))
    for a0 in range(0, n, step):
        free = (words[0][a0 : a0 + step, None] & words[0]) == 0
        for w in words[1:]:
            free &= (w[a0 : a0 + step, None] & w) == 0
        pair[a0 : a0 + step, :, : -(-n // 8)] = np.packbits(free, axis=-1)
    return pair.view(np.uint64)


def blockwise_unsettled_triples(pair):
    """The open triples as found before the fused kernel: for a block of
    first vertices, every center word ANDed over the whole square of b
    and c, then masked to a < b < c."""
    n = len(pair)
    step = max(1, (1 << 13) // (n * n))
    upper = np.arange(n)[:, None] < np.arange(n)
    for a0 in range(0, n - 2, step):
        a1, lo = min(a0 + step, n - 2), a0 + 1
        common = np.zeros((a1 - a0, n - lo, n - lo), np.uint64)
        for w in range(pair.shape[2]):
            pa = pair[a0:a1, lo:, w]
            both = pa[:, None, :] & pair[lo:, lo:, w]
            both &= pa[:, :, None]
            common |= both
        unsettled = (common == 0) & upper[a0:a1, lo:, None] & upper[lo:, lo:]
        ab, c = np.divmod(np.flatnonzero(unsettled), n - lo)
        a, b = np.divmod(ab, n - lo)
        yield from zip((a + a0).tolist(), (b + lo).tolist(), (c + lo).tolist())


def random_first_rows(rng, n, palette):
    """Rows shaped like first rows (``_first_row``): mask 0 on the
    diagonal, -1 (no path) now and then, else a random nonempty mask of
    colors below palette."""
    missing = rng.choice((0.0, 0.05, 0.3))
    size = max(1, palette // rng.choice((2, 4, 8)))
    return [[0 if v == x else -1 if rng.random() < missing
             else sum(1 << c for c in rng.sample(range(palette), rng.randrange(1, size + 1)))
             for x in range(n)]
            for v in range(n)]


def test_fused_filter_matches_the_blockwise_kernel():
    # On seeded rows of 5 to 140 vertices (1-3 words of centers) and 2 to
    # 130 colors (1-3 words of colors), with and without missing paths,
    # the fused filter leaves open the same triples in the same order as
    # the blockwise kernel it replaced, and a consumer that stops early
    # sees the same prefix
    rng = random.Random(151)
    sizes = [(5, 2), (9, 3), (12, 130), (30, 8), (40, 64), (64, 63), (64, 65),
             (65, 4), (70, 30), (100, 12), (128, 100), (129, 2), (129, 129), (140, 130)]
    mixed = deep = 0
    for n, palette in sizes:
        first = random_first_rows(rng, n, palette)
        want = list(blockwise_unsettled_triples(blockwise_first_mask_pairs(first, palette - 1)))
        got = _unsettled_triples(_first_mask_pairs(first, palette - 1))
        stop = rng.randrange(len(want) + 1)
        assert list(islice(got, stop)) == want[:stop]
        assert list(got) == want[stop:]
        mixed += 0 < len(want) < comb(n, 3)
        deep += n > 64 and 0 < len(want) < comb(n, 3)
    assert mixed >= 8 and deep >= 4


def test_passing_grid_verdict_starts_no_reach_row(monkeypatch):
    # first rows settle every triple of the passing 8x8 grid, in the head
    # and in the filter, so the verdict starts no exact reach row; the
    # shifted coloring fails in the head, on the rows of its failing set
    report = grid_coloring((8, 8))
    g, c = report.derived_graph, report.coloring
    started = []
    start = rainbow._start
    monkeypatch.setattr(rainbow, "_start", lambda n, v: started.append(v) or start(n, v))
    assert is_k_rainbow(g, c, 3).ok
    assert started == []
    colors = list(c.colors)
    colors[0] = (colors[0] + 1) % c.palette_size
    failing = is_k_rainbow(g, EdgeColoring(tuple(colors), c.palette_size), 3).failing
    assert failing[:2] == (0, 1) and set(started) == set(failing)


def test_passing_k2_verdicts_start_no_reach_row(monkeypatch):
    # first rows settle every pair of the passing 8x8 grid and of an
    # all-distinct K40, so their k=2 verdicts start no exact reach row;
    # the shifted grid coloring fails at (0, 16), the first pair that the
    # first row of 0 misses, and starts the exact row of 0 alone
    report = grid_coloring((8, 8))
    g, c = report.derived_graph, report.coloring
    started = []
    start = rainbow._start
    monkeypatch.setattr(rainbow, "_start", lambda n, v: started.append(v) or start(n, v))
    assert is_k_rainbow(g, c, 2).ok
    k40 = complete(40)
    assert is_k_rainbow(k40, EdgeColoring(tuple(range(k40.m)), k40.m), 2).ok
    assert started == []
    colors = list(c.colors)
    colors[0] = (colors[0] + 1) % c.palette_size
    verdict = is_k_rainbow(g, EdgeColoring(tuple(colors), c.palette_size), 2)
    assert verdict == Verdict(False, (0, 16)) and started == [0]


def test_started_sources_settle_only_triples_with_rainbow_trees(monkeypatch):
    # The total k=3 scan past the filter's size gate tries each open
    # triple at the sources of the rows already started (_source_hit)
    # before the store's triple test.  On seeded colorings of 10-16
    # vertices with 3 to 70 colors, passing and failing, and of trees on
    # 66-70 vertices with more than 64 distinct colors plus chords (masks
    # are color ranks, so wider masks need more than 64 edges, and on 16
    # vertices those would make every complete row hold nearly every
    # path), the verdict and failing set are those of the plain
    # lexicographic scan, and every triple a started row settles has a
    # rainbow tree by the brute oracle
    settled = []
    source_hit = rainbow._source_hit

    def spy(rows, sources, t, cap):
        hit = source_hit(rows, sources, t, cap)
        if hit:
            settled.append(t)
        return hit

    monkeypatch.setattr(rainbow, "_source_hit", spy)
    rng = random.Random(179)
    seen = {"pass": 0, "fail": 0, "settled": 0, "settled on failing": 0, "wide": 0}
    for i in range(62):
        if i < 60:
            n = rng.randrange(10, 17)
            g = random_connected_graph(rng, n, rng.randrange(n // 2, 2 * n))
            c = random_coloring(rng, g.m, rng.randrange(3, 71 if i % 2 else 9))
        else:
            n = rng.randrange(66, 71)
            g = random_connected_graph(rng, n, rng.randrange(4, 12))
            palette = rng.randrange(n - 1, 80)
            colors = rng.sample(range(palette), n - 1)  # the spanning tree's edges
            colors += [rng.randrange(palette) for _ in range(g.m - n + 1)]
            c = EdgeColoring(tuple(colors), palette)
        ranked = _ranked(c.colors)
        cap = len(set(ranked))
        want = _first_bad_set(_reach_rows(step_table(g, ranked), cap), combinations(range(n), 3))
        settled.clear()
        assert is_k_rainbow(g, c, 3) == Verdict(want is None, want)
        assert all(has_rainbow_tree_brute(g, c, t) for t in settled)
        seen["pass" if want is None else "fail"] += 1
        seen["settled"] += len(settled)
        if want is not None:
            seen["settled on failing"] += len(settled)
        if cap > 64:
            seen["wide"] += len(settled)
    assert min(seen.values()) > 0, seen


def test_started_sources_cut_the_rows_a_verdict_starts(monkeypatch):
    # rows started (rainbow._start calls) before -> after open triples
    # were tried at the sources of the rows already started
    started = []
    start = rainbow._start
    monkeypatch.setattr(rainbow, "_start", lambda n, v: started.append(v) or start(n, v))

    def verdict_and_rows(g, c):
        started.clear()
        return is_k_rainbow(g, c, 3), len(started)

    # the recolored P2xP33 (66 vertices) in its own and renamed vertex
    # order, the last two colorings of the wide verdict-hash pool:
    # 64 -> 41 and 64 -> 60
    *_, own, renamed = wide_pool(random.Random(163))
    assert verdict_and_rows(*own) == (Verdict(True), 41)
    assert verdict_and_rows(*renamed) == (Verdict(True), 60)
    # G(n, p) colorings drawn as the benchmark's verify-mixed draws them
    for seed, verdict, rows in (
        (12, Verdict(True), 13),  # 23 before
        (35, Verdict(False, (3, 4, 12)), 8),  # 23
        (8, Verdict(False, (9, 11, 13)), 14),  # 19
        (49, Verdict(False, (0, 1, 6)), 4),  # 5, failing in the head
    ):
        rng = random.Random(seed)
        g = gnp(rng, rng.randint(16, 24), rng.uniform(0.18, 0.30))
        palette = rng.randint(6, 10)
        c = EdgeColoring(tuple(rng.randrange(palette) for _ in range(g.m)), palette)
        assert verdict_and_rows(g, c) == (verdict, rows)
    # the solver's partial checks never meet the test: a C5xP2 solve
    # starts exactly the rows it did before
    started.clear()
    res = rx_exact(cartesian_product(cycle(5), path(2))[0], 3)
    assert res.nodes_explored == 16_415 and len(started) == 41_347


def test_settling_stages_run_only_in_verdicts(monkeypatch):
    # first rows, the first-mask filter and the started-row test read a
    # total coloring by ranks with the cap at the number of colors, so
    # only is_k_rainbow builds an order from them: the solver's partial
    # checks, the witness search and the reach rows never run them
    g, c = cycle(7), EdgeColoring((0, 1, 2, 0, 1, 2, 3), 4)
    steps = step_table(g, [0, None, 1, None, 0, 2, None])
    order = [(3, 0), (0, 2, 5), (6, 1), (1, 3, 5), (2, 4, 6), (0, 1, 2)]
    checks = [(order[i:], p) for i in range(len(order)) for p in (2, 3, 6)]
    want_partial = [partial_failure(steps, o, p) for o, p in checks]
    assert len(set(want_partial)) > 2
    want_reach = [rainbow_reach(g, c, v) for v in range(g.n)]
    k6, k8 = complete(6), complete(8)
    want_k6 = rx_exact(k6, 2)

    def banned(*args):
        raise AssertionError("a settling stage ran outside is_k_rainbow")

    for name in ("_first_row", "_first_mask_pairs", "_unsettled_triples", "_source_hit"):
        monkeypatch.setattr(rainbow, name, banned)
    c8 = EdgeColoring(tuple(range(k8.m)), k8.m)
    with pytest.raises(AssertionError, match="settling stage"):
        is_k_rainbow(k8, c8, 2)
    assert [partial_failure(steps, o, p) for o, p in checks] == want_partial
    assert [rainbow_reach(g, c, v) for v in range(g.n)] == want_reach
    for s in combinations(range(k8.n), 3):
        assert is_rainbow_tree_through(k8, c8, s, find_rainbow_tree(k8, c8, s))
    assert rx_exact(k6, 2) == want_k6
    res = rx_exact(cartesian_product(cycle(5), path(2))[0], 3)
    assert (res.exact, res.value, res.nodes_explored) == (True, 4, 16_415)


def test_first_row_stop_keeps_the_row():
    # _first_row stops once every vertex holds a mask; the same search run
    # until its levels run out gives the same row
    def full_row(steps, n, source):
        row = [-1] * n
        row[source] = 0
        level = [source]
        while level:
            nxt = []
            for v in level:
                for bit, w in steps[v]:
                    if row[w] < 0 and not row[v] & bit:
                        row[w] = row[v] | bit
                        nxt.append(w)
            level = nxt
        return row

    rng = random.Random(137)
    for _ in range(60):
        n = rng.randrange(2, 14)
        g = random_connected_graph(rng, n, rng.randrange(3 * n))
        c = random_coloring(rng, g.m, rng.choice((2, 3, 5, 8, 70)))
        steps = step_table(g, c.colors)
        for s in range(n):
            assert _first_row(steps, n, s) == full_row(steps, n, s)


def grown_row(g, colors, source, targets, cap):
    """The reach row of source grown until each of targets holds a mask,
    and whether its search is unfinished there."""
    steps = step_table(g, colors)
    fams, level = _start(g.n, source)
    for t in targets:
        if level and not fams[t]:
            level = _grow(steps, fams, level, cap, t)
    return fams, bool(level)


def test_grown_rows_give_the_verdicts_of_complete_rows():
    # the scan grows rows until every target has a mask and finishes them
    # only for triples that fail there; both the k=3 verdict
    # and the explicit order of every triple return the first triple whose
    # complete rows give no center, on both sides of the first-mask
    # filter's size gate (n >= 10), and the k=2 verdict the
    # first pair with no path.  A pairs-first order grows rows for its
    # pairs that its triples then finish; complete rows give its answer
    # too.
    rng = random.Random(107)
    seen = {"pass": 0, "head": 0, "late": 0, "gated": 0, "finished": 0, "unfinished": 0}
    for _ in range(40):
        n = rng.randrange(4, 17)
        g = random_connected_graph(rng, n, rng.randrange(n // 2, 2 * n + 1))
        # ranks, as is_k_rainbow passes them: the k=3 verdict's filter
        # reads cap - 1 as the highest color
        colors = _ranked(random_coloring(rng, g.m, rng.randrange(3, 9)).colors)
        steps = step_table(g, colors)
        triples = list(combinations(range(n), 3))
        cap = len(set(colors))  # a cap that never binds on a total coloring
        complete = [complete_row(g, colors, v) for v in range(n)]

        def fails(s):
            if len(s) == 2:
                return not complete[min(s)][max(s)]
            return _tree_center(*(complete[v] for v in s), cap) is None

        want = next((t for t in triples if fails(t)), None)
        assert _first_bad_set(_reach_rows(steps, cap), triples) == want
        assert is_k_rainbow(g, EdgeColoring(tuple(colors), cap), 3) == Verdict(want is None, want)
        assert is_k_rainbow(g, EdgeColoring(tuple(colors), cap), 2).failing == next(
            (p for p in combinations(range(n), 2) if fails(p)), None
        )
        seen["pass" if want is None else "head" if want[:2] == (0, 1) else "late"] += 1
        seen["gated"] += len(triples) - (n - 2) > n * n
        grown = [grown_row(g, colors, v, range(n), cap)[0] for v in range(n)]
        seen["finished"] += sum(
            _tree_center(*(grown[v] for v in t), cap) is None and not fails(t)
            for t in triples
        )
        seen["unfinished"] += sum(
            grown_row(g, colors, v, range(v + 1, n), cap)[1] for v in range(n)
        )
        pairs = [p if rng.random() < 0.5 else p[::-1] for p in combinations(range(n), 2)]
        rng.shuffle(pairs)
        rng.shuffle(triples)
        order = pairs + triples
        assert _first_bad_set(_reach_rows(steps, cap), order) == next(
            (s for s in order if fails(s)), None
        )
    assert min(seen.values()) > 0, seen


def renamed_vertices(g, rng):
    """g with its vertices renamed at random and its edge indices kept."""
    name = rng.sample(range(g.n), g.n)
    return build_graph(g.n, [(name[u], name[v]) for u, v in g.edges])


def first_uncovered(g, colors):
    """The first triple whose complete rows give no center."""
    rows = [complete_row(g, colors, v) for v in range(g.n)]
    cap = len(set(colors))  # a cap that never binds on a total coloring
    return next((s for s in combinations(range(g.n), 3)
                 if _tree_center(*(rows[v] for v in s), cap) is None), None)


def test_block_pass_on_recolored_products():
    # recolored grid and Cartesian colorings (n <= 30), in their own vertex
    # order and renamed; complete rows, which the checker never builds
    # up front, give the first triple with no rainbow tree
    rng = random.Random(89)
    c4, c5 = (rx_exact(cycle(n), 3).witness for n in (4, 5))
    p5 = EdgeColoring((0, 1, 2, 3), 4)
    reports = [grid_coloring((5, 5)), grid_coloring((3, 3, 3)), grid_coloring((5, 6)),
               cartesian_coloring(cycle(5), c5, path(5), p5),
               cartesian_coloring(cycle(5), c5, cycle(4), c4)]
    early = late = 0
    for report in reports:
        g, c = report.derived_graph, report.coloring
        assert report.ok
        for _ in range(3):
            e = rng.randrange(g.m)
            colors = list(c.colors)
            colors[e] = (colors[e] + 1) % c.palette_size
            bad = EdgeColoring(tuple(colors), c.palette_size)
            for h in (g, renamed_vertices(g, rng)):
                want = first_uncovered(h, bad.colors)
                assert is_k_rainbow(h, bad, 3).failing == want
                if want is not None:
                    early += want[:2] == (0, 1)
                    late += want[:2] != (0, 1)
    assert early > 0 and late > 0
    # random graphs with 5-8 colors: most families hold several masks, so
    # the first-mask filter settles triples no single-mask rule could;
    # every one of these instances is large enough to meet it
    passed = late = 0
    for _ in range(20):
        n = rng.randrange(10, 15)
        g = random_connected_graph(rng, n, rng.randrange(n, 3 * n + 1))
        c = random_coloring(rng, g.m, rng.randrange(5, 9))
        want = first_uncovered(g, c.colors)
        assert is_k_rainbow(g, c, 3).failing == want
        passed += want is None
        late += want is not None and want[:2] != (0, 1)
    assert passed > 0 and late > 0
