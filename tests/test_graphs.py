import random
import sys
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    SplitSpec,
    build_graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    empty,
    is_complete,
    is_connected,
    join,
    lexicographic_product,
    path,
    split_vertex,
    star,
    strong_product,
    subdivide_edge,
)
from rainbowindex.graphs import (
    automorphism_transversal,
    bfs,
    graph_from_json_dict,
    graph_to_json_dict,
    product_vertex_labels,
    to_dot,
)

from oracles import automorphism_count_brute, random_connected_graph


def test_build_path_and_cycle():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert p3.n == 3 and p3.m == 2
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.m == 4
    assert c4.edges[3] == (0, 3)  # normalized


def test_build_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(2, [(-1, 0)])


def test_build_rejects_non_integral_endpoints():
    with pytest.raises(ValueError, match="integers"):
        build_graph(3, [(0, 1.7)])
    with pytest.raises(ValueError, match="integers"):
        build_graph(3, [("0", 1)])
    with pytest.raises(ValueError, match="integers"):
        build_graph(3, [(True, 2)])
    # an edge is exactly two endpoints: a longer, shorter or
    # non-iterable pair is rejected, not truncated or left to IndexError
    for pair in ((0, 1, 2), (0,), 5, None):
        with pytest.raises(ValueError, match="integers"):
            build_graph(3, [pair])
    # numpy integers are integral, so they are accepted
    g = build_graph(3, [(np.int64(0), np.int32(2))])
    assert g.edges == ((0, 2),) and type(g.edges[0][1]) is int
    # so is the vertex count, which must be an integer too
    with pytest.raises(ValueError, match="integer"):
        build_graph(3.0, [(0, 1)])
    with pytest.raises(ValueError, match="integer"):
        build_graph(True, [])
    g = build_graph(np.int64(3), [(0, 1)])
    assert g.n == 3 and type(g.n) is int


def test_build_dedup_keeps_first_index():
    g = build_graph(3, [(1, 0), (1, 2), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.edge_index[(0, 1)] == 0
    # a file's order defines edge indices, so the JSON reader refuses what
    # build_graph would drop
    with pytest.raises(ValueError, match=r"edge \[0, 1\] is repeated"):
        graph_from_json_dict({"n": 3, "edges": [[1, 0], [1, 2], [0, 1]]})


def test_adjacency_follows_incidence_order():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randrange(1, 12)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.4]
        rng.shuffle(pairs)
        g = build_graph(n, [p if rng.random() < 0.5 else p[::-1] for p in pairs])
        for v in range(n):
            assert g.adjacency[v] == tuple(w for _, w in g.incidence[v])


def test_connectivity():
    assert is_connected(path(3))
    assert not is_connected(empty(2))
    assert is_connected(cycle(5))
    # fewer than n - 1 edges cannot connect n vertices; a huge empty graph
    # is answered without building a per-vertex list
    assert not is_connected(build_graph(10**30, []))
    assert not is_connected(build_graph(10**30, [(0, 1)]))
    assert is_connected(path(1))


def test_cartesian_counts_and_classes():
    prod, vm, classes = cartesian_product(path(4), path(3))
    assert prod.n == 12
    assert prod.m == 3 * 3 + 4 * 2  # 17
    assert len(classes) == prod.m  # one class per product edge
    assert all(cl.kind in ("G", "H") for cl in classes)
    # layer edges map to valid operand edge indices
    for cl in classes:
        bound = 3 if cl.kind == "G" else 2
        assert 0 <= cl.operand_edge < bound


def test_cartesian_k1_factor_is_identity():
    h = cycle(5)
    prod, _, classes = cartesian_product(path(1), h)
    assert prod.n == h.n and prod.edges == h.edges
    assert [cl.operand_edge for cl in classes] == list(range(h.m))


def test_cartesian_connectivity_iff_both():
    # spot set from the contract: {P_2, 2K_1} plus extras
    parts = [path(2), empty(2), path(3), empty(3), cycle(3)]
    for g, h in product(parts, repeat=2):
        prod = cartesian_product(g, h)[0]
        assert is_connected(prod) == (is_connected(g) and is_connected(h))


def test_vertex_map_bijection():
    _, vm, _ = cartesian_product(path(4), path(3))
    seen = set()
    for i in range(4):
        for j in range(3):
            v = vm.vertex(i, j)
            assert vm.coords(v) == (i, j)
            seen.add(v)
    assert seen == set(range(12))


def test_cartesian_distance_additivity():
    # exhaustive on products up to 60 vertices
    from rainbowindex import all_pairs_distances

    cases = [(path(4), cycle(5)), (cycle(6), path(5)), (complete(4), path(3))]
    for g, h in cases:
        prod, vm, _ = cartesian_product(g, h)
        dg, dh, dp = (
            all_pairs_distances(g),
            all_pairs_distances(h),
            all_pairs_distances(prod),
        )
        for g1 in range(g.n):
            for h1 in range(h.n):
                for g2 in range(g.n):
                    for h2 in range(h.n):
                        assert (
                            dp[vm.vertex(g1, h1), vm.vertex(g2, h2)]
                            == dg[g1, g2] + dh[h1, h2]
                        )


def test_cartesian_associative_up_to_regrouping():
    triples = [
        (path(2), path(3), cycle(3)),
        (cycle(4), path(2), path(2)),
        (path(3), star(4), path(2)),
    ]
    for g, h, k in triples:
        gh, vm_gh, _ = cartesian_product(g, h)
        left, vm_l, _ = cartesian_product(gh, k)
        hk, vm_hk, _ = cartesian_product(h, k)
        right, vm_r, _ = cartesian_product(g, hk)

        def regroup(v):  # ((i,j),l) -> (i,(j,l))
            ij, l = vm_l.coords(v)
            i, j = vm_gh.coords(ij)
            return vm_r.vertex(i, vm_hk.vertex(j, l))

        mapped = {
            (min(regroup(u), regroup(v)), max(regroup(u), regroup(v)))
            for u, v in left.edges
        }
        assert mapped == set(right.edges)


def test_strong_product():
    k4, _, _ = strong_product(path(2), path(2))
    assert k4.n == 4 and k4.m == 6
    p33 = strong_product(path(3), path(3))[0]
    assert p33.m == 2 * 3 + 3 * 2 + 2 * 2 * 2  # 20
    # Cartesian product is a spanning subgraph
    cart = cartesian_product(path(3), path(3))[0]
    assert cart.n == p33.n
    assert set(cart.edges) <= set(p33.edges)
    # and shares the leading edge indices
    assert p33.edges[: cart.m] == cart.edges


def test_lexicographic_product():
    k4 = lexicographic_product(path(2), path(2))[0]
    assert k4.n == 4 and k4.m == 6 and is_complete(k4)
    a = lexicographic_product(path(3), path(2))[0]
    assert a.m == 2 * 4 + 3 * 1  # 11
    # asymmetric: K_2[P_3] has 1*9 + 2*2 = 13 edges
    b = lexicographic_product(path(2), path(3))[0]
    assert b.m == 13
    assert a.m != b.m
    # cross class includes equal H-coordinates; H-layer only inside copies
    _, _, classes = lexicographic_product(path(3), path(3))
    kinds = [cl.kind for cl in classes]
    assert kinds.count("cross") == 2 * 9 and kinds.count("H") == 3 * 2


def test_edge_count_formulas_random():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 5), rng.randrange(3))
        h = random_connected_graph(rng, rng.randrange(2, 5), rng.randrange(3))
        assert cartesian_product(g, h)[0].m == g.m * h.n + g.n * h.m
        assert strong_product(g, h)[0].m == g.m * h.n + g.n * h.m + 2 * g.m * h.m
        assert lexicographic_product(g, h)[0].m == g.m * h.n**2 + g.n * h.m


def test_join():
    fan = join(path(1), path(3))
    assert fan.n == 4 and fan.m == 5
    kst = join(empty(2), empty(3))
    assert set(kst.edges) == set(complete_bipartite(2, 3).edges)
    k5 = join(complete(2), complete(3))
    assert is_complete(k5) and k5.n == 5


def test_split_star_center():
    g = star(4)  # center 0, leaves 1..3
    split, origins = split_vertex(g, SplitSpec(0, frozenset({1}), frozenset({2, 3})))
    assert split.n == 5 and split.m == 4
    assert is_connected(split)
    # tree: n - 1 edges
    assert split.m == split.n - 1
    assert origins == (0, 1, 2, None)


def test_split_pendant_and_empty_side():
    g = path(4)
    # degree-1 vertex with everything on one side appends a pendant
    split, _ = split_vertex(g, SplitSpec(0, frozenset({1}), frozenset()))
    assert split.n == 5 and split.m == 4 and is_connected(split)
    # empty first side leaves v1 holding only the bridge
    rng = random.Random(3)
    for _ in range(10):
        h = random_connected_graph(rng, 5, rng.randrange(3))
        v = rng.randrange(5)
        split2, _ = split_vertex(h, SplitSpec(v, frozenset(), frozenset(h.neighbors(v))))
        assert is_connected(split2) == is_connected(h)
        assert split2.degree(v) == 1


def test_split_validation():
    g = star(4)
    with pytest.raises(ValueError):
        split_vertex(g, SplitSpec(0, frozenset({1}), frozenset({1, 2, 3})))
    with pytest.raises(ValueError):
        split_vertex(g, SplitSpec(0, frozenset({1}), frozenset({2})))
    with pytest.raises(ValueError):
        split_vertex(g, SplitSpec(9, frozenset(), frozenset()))
    # the split vertex is an integer: numpy integers pass, floats and
    # bools do not
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="integer"):
            split_vertex(g, SplitSpec(bad, frozenset({0}), frozenset()))
    assert split_vertex(g, SplitSpec(np.int64(1), frozenset({0}), frozenset())) == (
        split_vertex(g, SplitSpec(1, frozenset({0}), frozenset()))
    )


def test_subdivide():
    for n in (3, 4, 5):
        g = cycle(n)
        sub, origins = subdivide_edge(g, 1)
        assert sub.n == n + 1 and sub.m == n + 1
        assert all(sub.degree(v) == 2 for v in range(sub.n))
        assert is_connected(sub)
        assert origins[-1] is None and origins[1] == 1
    p3, _ = subdivide_edge(path(2), 0)
    assert p3.n == 3 and p3.m == 2 and is_connected(p3)
    with pytest.raises(ValueError):
        subdivide_edge(path(3), 5)
    # the edge index is an integer: numpy integers pass, floats and bools
    # do not
    for bad in (True, 1.5, 1.0):
        with pytest.raises(ValueError, match="integer"):
            subdivide_edge(cycle(5), bad)
    assert subdivide_edge(cycle(5), np.int64(1)) == subdivide_edge(cycle(5), 1)


def test_subdivide_inherited_side():
    # edge (u, v): u keeps its half at the old index, x-v is fresh
    g = path(3)
    sub, origins = subdivide_edge(g, 0)  # edge (0, 1)
    assert sub.edges[0] == (0, 3)  # u-side half, index preserved
    assert sub.edges[-1] == (1, 3)  # fresh half
    assert origins == (0, 1, None)


def test_json_round_trip_preserves_indices():
    g = build_graph(5, [(3, 1), (0, 4), (2, 3)])
    g2 = graph_from_json_dict(graph_to_json_dict(g))
    assert g2 == g
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": [[0, 1]]})


def test_dot_export():
    g, vm, _ = cartesian_product(path(2), path(2))
    dot = to_dot(g, edge_colors=[0, 1, 0, 1], vertex_labels=product_vertex_labels(vm))
    assert 'label="(0,1)"' in dot
    assert "--" in dot and 'color="' in dot


def test_graph_immutability_contract():
    g = path(3)
    with pytest.raises(Exception):
        g.n = 5  # frozen dataclass


@st.composite
def connected_graphs(draw):
    """A connected graph on 1..7 vertices: a random spanning tree plus
    any set of further edges."""
    n = draw(st.integers(1, 7))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return build_graph(n, sorted(tree) + extra)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(connected_graphs())
def test_automorphism_transversal_against_brute_force(g):
    levels = automorphism_transversal(g)
    assert len(levels) == g.n
    for i, level in enumerate(levels):
        targets = [image[i] for image in level]
        assert targets == sorted(set(targets)) and i not in targets
        for image in level:
            assert sorted(image) == list(range(g.n))
            assert image[:i] == list(range(i))
            assert all(g.has_edge(image[u], image[v]) for u, v in g.edges)
    assert prod(1 + len(level) for level in levels) == automorphism_count_brute(g)


def recursive_transversal(g):
    """automorphism_transversal as one recursive call per placed vertex:
    the reference whose maps the explicit-stack search must give."""
    n = g.n
    dist = [bfs(g, v)[1] for v in range(n)]
    cell = [sorted(row) for row in dist]
    image = list(range(n))
    used = [False] * n

    def fits(w, x):
        return cell[x] == cell[w] and all(dist[w][u] == dist[x][image[u]] for u in range(w))

    def place(w):
        if w == n:
            return True
        for x in range(n):
            if not used[x] and fits(w, x):
                image[w] = x
                used[x] = True
                if place(w + 1):
                    return True
                used[x] = False
        return False

    levels = []
    for i in range(n):
        image[:i] = range(i)
        level = []
        for v in range(i + 1, n):
            if fits(i, v):
                image[i] = v
                used[:] = [u < i or u == v for u in range(n)]
                if place(i + 1):
                    level.append(image[:])
        levels.append(level)
    return levels


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(connected_graphs())
def test_automorphism_transversal_matches_the_recursive_search(g):
    assert automorphism_transversal(g) == recursive_transversal(g)


def test_automorphism_transversal_needs_no_recursion_depth():
    # the search keeps its own stack, so a 300-vertex path, whose maps
    # place 300 vertices each, needs no deeper recursion than a small one
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        levels = automorphism_transversal(path(300))
    finally:
        sys.setrecursionlimit(limit)
    assert [len(level) for level in levels] == [1] + [0] * 299
    assert levels[0][0] == list(range(299, -1, -1))


def test_automorphism_transversal_known_groups():
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    cube = cartesian_product(cartesian_product(path(2), path(2))[0], path(2))[0]
    for g, order in [
        (complete(8), 40320),
        (complete_bipartite(2, 6), 1440),
        (cartesian_product(cycle(4), cycle(4))[0], 384),
        (petersen, 120),
        (cube, 48),
        (path(9), 2),
        (build_graph(2, []), 2),  # distances of -1 are kept too
    ]:
        levels = automorphism_transversal(g)
        assert prod(1 + len(level) for level in levels) == order
        assert sum(map(len, levels)) <= g.n * (g.n - 1) // 2
