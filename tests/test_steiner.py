import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from rainbowindex import (
    all_pairs_distances,
    build_graph,
    cartesian_product,
    complete,
    cycle,
    diameter,
    path,
    sdiam3,
    steiner_distance_3,
)
from rainbowindex.steiner import steiner_records, triples_by_steiner_desc

from oracles import random_connected_graph, sdiam3_brute, steiner_brute


def test_distance_examples():
    assert all_pairs_distances(path(4))[0, 3] == 3
    assert all_pairs_distances(cycle(6))[0, 3] == 3
    d = all_pairs_distances(build_graph(3, [(0, 1)]))
    assert math.isinf(d[0, 2])


def test_distance_matrix_invariants():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 8), rng.randrange(4))
        d = all_pairs_distances(g)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        for a, b, c in combinations(range(g.n), 3):
            assert d[a, c] <= d[a, b] + d[b, c]


def test_diameter():
    assert diameter(path(4)) == 3
    assert diameter(cycle(6)) == 3
    assert diameter(complete(5)) == 1
    with pytest.raises(ValueError):
        diameter(build_graph(2, []))


def test_steiner_examples():
    for triple in combinations(range(4), 3):
        assert steiner_distance_3(complete(4), triple).value == 2
    assert steiner_distance_3(path(5), [0, 2, 4]).value == 4
    # frozen from the subtree-enumeration oracle
    assert steiner_brute(cycle(7), [0, 2, 4]) == 4
    assert steiner_distance_3(cycle(7), [0, 2, 4]).value == 4


def test_steiner_errors():
    with pytest.raises(ValueError):
        steiner_distance_3(path(5), [0, 1])
    with pytest.raises(ValueError):
        steiner_distance_3(path(5), [0, 1, 1])
    for terminals in ([0, 2.9, 4], ["0", 2, 4], [0, 2, 5]):
        with pytest.raises(ValueError):
            steiner_distance_3(path(5), terminals)
    assert steiner_distance_3(path(5), np.array([4, 0, 2])).value == 4
    with pytest.raises(ValueError):
        steiner_distance_3(build_graph(4, [(0, 1), (2, 3)]), [0, 1, 2])


def test_median_formula_matches_brute_force():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randrange(4, 9)
        g = random_connected_graph(rng, n, rng.randrange(4))
        for _ in range(6):
            s = rng.sample(range(n), 3)
            assert steiner_distance_3(g, s).value == steiner_brute(g, s)


def test_witness_is_tree_containing_terminals():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(4, 9)
        g = random_connected_graph(rng, n, rng.randrange(5))
        s = rng.sample(range(n), 3)
        res = steiner_distance_3(g, s)
        verts = {v for e in res.witness for v in e}
        assert set(s) <= verts
        assert len(res.witness) == res.value
        # acyclic + connected: |E| = |V| - 1 and all terminals reachable
        assert len(res.witness) == len(verts) - 1
        adj = {v: [] for v in verts}
        for u, v in res.witness:
            adj[u].append(v)
            adj[v].append(u)
        seen = {s[0]}
        stack = [s[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == verts


def test_witness_deterministic():
    g = cycle(6)
    a = steiner_distance_3(g, [0, 2, 4])
    b = steiner_distance_3(g, [0, 2, 4])
    assert a == b


def test_sdiam3_values():
    assert sdiam3(path(4)) == 3
    for n in (3, 4, 5, 6):
        assert sdiam3(complete(n)) == 2
    assert sdiam3(cycle(7)) == 4  # frozen from exhaustive triple enumeration
    assert sdiam3_brute(cycle(7)) == 4


def test_sdiam3_matches_brute():
    rng = random.Random(31)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(4))
        assert sdiam3(g) == sdiam3_brute(g)
        records = steiner_records(g)
        assert [r["triple"] for r in records] == [
            list(t) for t in combinations(range(g.n), 3)
        ]
        for r in records:
            assert type(r["d"]) is int
            assert r["d"] == steiner_brute(g, r["triple"])


def test_triples_by_steiner_desc_matches_stable_brute_sort():
    rng = random.Random(37)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(4))
        expected = sorted(
            combinations(range(g.n), 3), key=lambda t: -steiner_brute(g, t)
        )
        assert triples_by_steiner_desc(g) == expected
    assert triples_by_steiner_desc(path(2)) == []


def test_sdiam3_errors():
    with pytest.raises(ValueError):
        sdiam3(path(2))
    with pytest.raises(ValueError):
        sdiam3(build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        steiner_records(build_graph(4, [(0, 1), (2, 3)]))


def test_sdiam3_memory_stays_quadratic():
    # a dense n^3 table of C150 would need about 27 MB of float64
    tracemalloc.start()
    try:
        assert sdiam3(cycle(150)) == 100
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sdiam3_additive_under_cartesian():
    rng = random.Random(42)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(3))
        h = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(3))
        prod = cartesian_product(g, h)[0]
        assert sdiam3(prod) == sdiam3(g) + sdiam3(h)


def test_sdiam3_monotone_under_edge_addition():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(3))
        missing = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        g2 = build_graph(g.n, list(g.edges) + [extra])
        assert sdiam3(g2) <= sdiam3(g)
