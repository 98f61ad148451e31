import random
from itertools import combinations, product

import numpy as np
import pytest

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
    graph_from_json_dict,
    graph_to_json_dict,
    product_vertex_labels,
    to_dot,
)

from oracles import random_connected_graph


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


def test_connectivity():
    assert is_connected(path(3))
    assert not is_connected(empty(2))
    assert is_connected(cycle(5))
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
