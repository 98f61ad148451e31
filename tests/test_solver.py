import random

import numpy as np
import pytest

from rainbowindex import (
    EdgeColoring,
    bfs_edge_order,
    build_graph,
    canonicalize_colors,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    is_k_rainbow,
    lower_bound,
    path,
    rx_exact,
    sdiam3,
    star,
)

from oracles import random_connected_graph, rx3_brute


def test_lower_bound_values():
    assert lower_bound(path(5), 3) == 4
    assert lower_bound(complete(6), 3) == 2
    assert lower_bound(cycle(7), 3) == 4
    assert lower_bound(path(4), 2) == 3
    with pytest.raises(ValueError):
        lower_bound(build_graph(3, [(0, 1)]), 3)


def test_lower_bound_not_always_tight():
    # C_7: the Steiner bound is 4 but the index is 5
    assert lower_bound(cycle(7), 3) == 4
    assert rx_exact(cycle(7), 3).value == 5


def test_known_values():
    assert rx_exact(path(5), 3).value == 4
    assert rx_exact(cycle(5), 3).value == 3
    assert rx_exact(complete(4), 3).value == 2
    assert rx_exact(complete_bipartite(2, 3), 3).value == 3
    assert rx_exact(path(4), 2).value == 3


def test_witness_always_verifies():
    rng = random.Random(67)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(3))
        for k in (2, 3):
            res = rx_exact(g, k)
            assert res.exact
            assert res.witness.palette_size == res.value
            assert is_k_rainbow(g, res.witness, k).ok
            # the Steiner diameter never exceeds a valid coloring's size
            assert lower_bound(g, k) <= res.witness.colors_used


def test_optimality_against_all_colorings():
    rng = random.Random(71)
    graphs = [cycle(6), complete_bipartite(2, 3), path(4), star(5)]
    for _ in range(6):
        graphs.append(random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(3)))
    for g in graphs:
        if g.m > 7:
            continue
        brute = rx3_brute(g, 4)
        res = rx_exact(g, 3)
        if brute is None:
            assert res.value > 4
        else:
            assert res.value == brute


def test_canonicalization():
    rng = random.Random(73)
    for _ in range(40):
        m = rng.randrange(1, 8)
        palette = rng.randrange(1, 5)
        colors = tuple(rng.randrange(palette) for _ in range(m))
        canon = canonicalize_colors(colors)
        # canonical: color t+1 appears only after color t
        seen_max = -1
        for c in canon:
            assert c <= seen_max + 1
            seen_max = max(seen_max, c)
        # idempotent, and invariant under color permutation
        assert canonicalize_colors(canon) == canon
        perm = list(range(palette))
        rng.shuffle(perm)
        permuted = tuple(perm[c] for c in colors)
        assert canonicalize_colors(permuted) == canon


def test_validity_invariant_under_color_permutation():
    rng = random.Random(79)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(3))
        res = rx_exact(g, 3)
        perm = list(range(res.value))
        rng.shuffle(perm)
        permuted = EdgeColoring(
            tuple(perm[c] for c in res.witness.colors), res.value
        )
        assert is_k_rainbow(g, permuted, 3).ok


def test_rx2_at_most_rx3():
    rng = random.Random(83)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(3))
        assert rx_exact(g, 2).value <= rx_exact(g, 3).value


def test_budget_exhaustion_is_explicit():
    g = cycle(6)
    res = rx_exact(g, 3, budget=3)
    assert not res.exact
    assert res.value is None
    assert res.lower <= 4 <= res.upper  # true value stays inside the bracket
    assert res.witness is not None
    assert is_k_rainbow(g, res.witness, 3).ok
    # an exhausted solve reports exactly its budget
    for budget in (0, 3, 10, 68):
        res = rx_exact(g, 3, budget=budget)
        assert not res.exact and res.nodes_explored == budget
    # C6 with k=3 needs 69 nodes, so a budget of 69 is enough
    res = rx_exact(g, 3, budget=69)
    assert res.exact and res.value == 4 and res.nodes_explored == 69
    with pytest.raises(ValueError):
        rx_exact(g, 3, budget=-1)
    # a budget that is not an integer is rejected, not ignored
    with pytest.raises(ValueError):
        rx_exact(g, 3, budget=3.5)
    assert rx_exact(g, 3, budget=np.int64(3)).nodes_explored == 3


def test_vacuous_and_trivial_graphs():
    assert rx_exact(path(2), 3).value == 1
    assert rx_exact(path(1), 3).value == 0
    res = rx_exact(path(2), 2)
    assert res.value == 1


def test_bfs_edge_order():
    g = cycle(5)
    order = bfs_edge_order(g)
    assert sorted(order) == list(range(g.m))
    first_u, first_v = g.edges[order[0]]
    assert 0 in (first_u, first_v)
    # exact orders: neighbors visited in ascending id, edges by endpoint
    assert bfs_edge_order(cartesian_product(path(2), path(3))[0]) == [3, 0, 4, 1, 5, 2, 6]
    assert bfs_edge_order(cartesian_product(cycle(4), path(2))[0]) == [
        8, 0, 6, 1, 7, 9, 2, 4, 11, 3, 5, 10
    ]


def test_relabeling_invariance():
    rng = random.Random(89)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(3))
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = build_graph(
            g.n, [(perm[u], perm[v]) for u, v in g.edges]
        )
        assert rx_exact(g, 3).value == rx_exact(relabeled, 3).value


def test_value_equals_steiner_bound_on_paths_and_grids():
    for n in (3, 4, 5):
        res = rx_exact(path(n), 3)
        assert res.value == sdiam3(path(n)) == n - 1


@pytest.mark.parametrize(
    "make, k, nodes",
    [
        (lambda: cycle(7), 3, 322),
        (lambda: complete_bipartite(2, 4), 3, 302),
        (lambda: complete_bipartite(3, 3), 3, 654),
        (lambda: cartesian_product(path(2), path(3))[0], 3, 192),
        (lambda: cycle(7), 2, 435),
        (lambda: complete_bipartite(2, 5), 2, 1014),
    ],
    ids=["C7", "K2,4", "K3,3", "P2xP3", "C7,k=2", "K2,5,k=2"],
)
def test_search_node_counts_are_pinned(make, k, nodes):
    # A speedup must not change a prune decision; a change to the
    # pruning itself updates these counts on purpose.
    assert rx_exact(make(), k).nodes_explored == nodes
