import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    EdgeColoring,
    build_graph,
    cartesian_coloring,
    cycle,
    find_rainbow_tree,
    has_rainbow_tree,
    is_k_rainbow,
    path,
    rainbow_reach,
    rx_exact,
    star,
)
from rainbowindex.rainbow import (
    _reach,
    coloring_from_json_dict,
    coloring_to_json_dict,
    partial_failure,
)

from oracles import (
    covered_triples,
    has_rainbow_tree_brute,
    path_color_sets,
    random_coloring,
    random_connected_graph,
)


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


def test_relaxed_reach_matches_path_enumeration():
    # An uncolored edge acts as a color of its own: give edge e the fresh
    # color palette + e, enumerate paths, then drop the fresh colors.
    rng = random.Random(71)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(6))
        palette = rng.randrange(1, 5)
        colors = [
            None if rng.random() < 0.4 else rng.randrange(palette)
            for _ in range(g.m)
        ]
        fresh = EdgeColoring(
            tuple(palette + e if c is None else c for e, c in enumerate(colors)),
            palette + g.m,
        )
        s = rng.randrange(g.n)
        fams, _ = _reach(g, colors, s)
        for t in range(g.n):
            concrete = {
                frozenset(c for c in cs if c < palette)
                for cs in path_color_sets(g, fresh, s, t)
            }
            expect = {cs for cs in concrete if not any(o < cs for o in concrete)}
            assert set(masks_to_sets(fams[t])) == expect
            assert fams[t] == sorted(fams[t], key=lambda x: (x.bit_count(), x))
    # no size cliff: a 300-color path, whole and with every third edge
    # uncolored, gives one mask per target
    g = path(301)
    whole = list(range(300))
    for colors in (whole, [None if c % 3 == 0 else c for c in whole]):
        fams, _ = _reach(g, colors, 0)
        for t in range(301):
            assert fams[t] == [sum(1 << c for c in colors[:t] if c is not None)]


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
        cols = [c.colors[e] for e in tree]
        assert len(set(cols)) == len(cols)
        verts = {v for e in tree for v in g.edges[e]}
        assert set(s) <= verts
        assert len(tree) == len(verts) - 1
    assert found > 10


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
def test_k2_failing_pair_is_first_pair_without_rainbow_path(gc):
    g, c = gc
    want = next(
        (p for p in combinations(range(g.n), 2) if not path_color_sets(g, c, *p)), None
    )
    verdict = is_k_rainbow(g, c, 2)
    assert verdict.failing == want and verdict.ok == (want is None)


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
        for k in (2, 3):
            relaxed = partial_failure(g, colors, combinations(range(g.n), k))
            exact = is_k_rainbow(g, full, k)
            assert (relaxed is None) == exact.ok


def test_partial_failure_returns_first_failing_triple_of_order():
    # pairs as well: one scan serves both set sizes
    rng = random.Random(67)
    pair_rng = random.Random(71)
    failures = pair_failures = 0
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(4))
        palette = rng.randrange(1, 4)
        colors = [
            rng.randrange(palette) if rng.random() < 0.6 else None
            for _ in range(g.m)
        ]
        full = materialize_fresh(colors, palette)
        order = list(combinations(range(g.n), 3))
        rng.shuffle(order)
        want = next(
            (s for s in order if not has_rainbow_tree_brute(g, full, s)), None
        )
        assert partial_failure(g, colors, order) == want
        failures += want is not None
        pairs = list(combinations(range(g.n), 2))
        pair_rng.shuffle(pairs)
        want = next((p for p in pairs if not path_color_sets(g, full, *p)), None)
        assert partial_failure(g, colors, pairs) == want
        pair_failures += want is not None
    assert failures > 5 and pair_failures > 5
