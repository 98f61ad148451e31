import hashlib
import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rainbowindex import solver, steiner
from rainbowindex.rainbow import step_table

from oracles import covered_triples, path_color_sets, random_connected_graph, rx3_brute


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
    # an exhausted solve reports exactly its budget, children cut by
    # symmetry included
    for budget in (0, 3, 10, 15):  # 21 before symmetry breaking
        res = rx_exact(g, 3, budget=budget)
        assert not res.exact and res.nodes_explored == budget
    # C6 with k=3 needs 16 nodes (22 before symmetry breaking), so a
    # budget of 16 is enough
    res = rx_exact(g, 3, budget=16)
    assert res.exact and res.value == 4 and res.nodes_explored == 16
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


@st.composite
def connected_graphs_with_relabeling(draw):
    """A connected graph on 1..6 vertices with at most 7 edges (a random
    spanning tree plus extra edges), and a copy of it with its vertices
    permuted and its edges listed in another order."""
    n = draw(st.integers(1, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = []
    if others:
        extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=8 - n))
    edges = draw(st.permutations(tree + extra))
    perm = draw(st.permutations(range(n)))
    copy_edges = draw(st.permutations([(perm[u], perm[v]) for u, v in edges]))
    return build_graph(n, edges), build_graph(n, copy_edges)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(connected_graphs_with_relabeling())
def test_solver_properties(pair):
    g, relabeled = pair
    for k in (2, 3):
        res = rx_exact(g, k)
        assert res.exact
        assert rx_exact(relabeled, k).value == res.value
        assert lower_bound(g, k) <= res.value <= g.m
        assert is_k_rainbow(g, res.witness, k).ok
        assert res.witness.colors_used == res.value


def canonical_colorings(m: int, palette: int):
    """Every coloring of positions 0..m-1 with colors below ``palette``
    in which color t+1 appears only after color t, in lexicographic
    order."""
    def extend(prefix: tuple[int, ...], maxc: int):
        if len(prefix) == m:
            yield prefix
            return
        for t in range(min(maxc + 1, palette - 1) + 1):
            yield from extend(prefix + (t,), max(maxc, t))

    return extend((), -1)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(connected_graphs_with_relabeling())
def test_witness_is_the_first_valid_canonical_coloring(pair):
    # Symmetry breaking never cuts a prefix of the lexicographically
    # least valid canonical coloring, so that coloring, found here by
    # enumeration and brute-force checks, is the witness.
    g, _ = pair
    order = bfs_edge_order(g)
    for k in (2, 3):
        res = rx_exact(g, k)
        for seq in canonical_colorings(g.m, res.value):
            colors = [0] * g.m
            for e, c in zip(order, seq):
                colors[e] = c
            coloring = EdgeColoring(tuple(colors), res.value)
            if k == 3:
                valid = len(covered_triples(g, coloring)) == comb(g.n, 3)
            else:
                valid = all(
                    path_color_sets(g, coloring, a, b) for a, b in combinations(range(g.n), 2)
                )
            if valid:
                break
        else:
            raise AssertionError("no valid coloring at the solved palette")
        assert coloring == res.witness


def compare_from_start(x, pos, rho):
    """Compare the first-appearance relabelling of the image of x[0..pos]
    under position map rho with x itself, from position 0, on the
    positions both determine: "smaller", "larger", or the positions
    compared equal and the relabelling."""
    labels, k = {}, 0
    while k <= pos and rho[k] <= pos:
        lab = labels.setdefault(x[rho[k]], len(labels))
        if lab != x[k]:
            return "smaller" if lab < x[k] else "larger"
        k += 1
    return k, labels


# Edge count and position maps of a few graphs with many automorphisms.
SYMMETRIC_MAPS = [
    (g.m, solver._position_maps(g, bfs_edge_order(g)))
    for g in (
        complete(5), complete(6), cycle(7),
        cartesian_product(cycle(4), path(2))[0], complete_bipartite(2, 4),
    )
]


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(
    st.sampled_from(SYMMETRIC_MAPS),
    st.integers(2, 5),
    st.lists(st.integers(0, 4), min_size=15, max_size=15),
)
def test_lex_leader_step_matches_a_comparison_from_the_start(graph, palette, choices):
    # Walk a random canonical prefix down the search, one position at a
    # time, as the solver does.  At each step the tied maps carried from
    # the parent must give what comparing every map afresh gives, and the
    # parent's list and label maps must be left as they were.
    m, maps = graph
    x, maxc = [], -1
    tied = [(rho, 0, {}) for rho in maps]
    for pos, choice in enumerate(choices[:m]):
        t = choice % (min(maxc + 1, palette - 1) + 1)
        x.append(t)
        maxc = max(maxc, t)
        before = [(rho, k, dict(labels)) for rho, k, labels in tied]
        still = solver._still_tied(x, pos, tied)
        assert tied == before
        results = [compare_from_start(x, pos, rho) for rho in maps]
        if still is None:
            assert "smaller" in results
            return
        assert "smaller" not in results
        assert still == [(rho, *r) for rho, r in zip(maps, results) if r != "larger"]
        tied = still


def test_value_equals_steiner_bound_on_paths_and_grids():
    for n in (3, 4, 5):
        res = rx_exact(path(n), 3)
        assert res.value == sdiam3(path(n)) == n - 1


@pytest.mark.parametrize(
    "make, k, nodes",
    [
        (lambda: cycle(7), 3, 42),  # 63 before symmetry breaking
        (lambda: complete_bipartite(2, 4), 3, 71),  # 146
        (lambda: complete_bipartite(3, 3), 3, 66),  # 186
        (lambda: cartesian_product(path(2), path(3))[0], 3, 20),  # 20
        (lambda: cycle(7), 2, 74),  # 141
        (lambda: complete_bipartite(2, 5), 2, 227),  # 951
    ],
    ids=["C7", "K2,4", "K3,3", "P2xP3", "C7,k=2", "K2,5,k=2"],
)
def test_search_node_counts_are_pinned(make, k, nodes):
    # A speedup must not change a prune decision; a change to the
    # pruning itself updates these counts on purpose.
    assert rx_exact(make(), k).nodes_explored == nodes


@pytest.mark.parametrize(
    "make, value, nodes",
    [
        (lambda: complete(6), 3, 305),  # 3,127 before symmetry breaking
        (lambda: cartesian_product(cycle(4), path(2))[0], 3, 26),  # 92
        (lambda: cartesian_product(path(3), path(3))[0], 4, 60),  # 92
        (lambda: complete(7), 3, 643),  # 35,120
        (lambda: complete_bipartite(2, 6), 4, 1185),  # 31,215
        (lambda: cartesian_product(cycle(4), cycle(4))[0], 4, 560),  # 134,557
        (lambda: cartesian_product(cycle(5), path(2))[0], 4, 16_415),
        (lambda: cartesian_product(path(3), path(4))[0], 5, 2_403),
        (lambda: cartesian_product(complete(3), complete(3))[0], 4, 1_891),
        # 28 position maps, more than any other solve pinned here
        (lambda: complete(8), 3, 13_486),
    ],
    ids=["K6", "C4xP2", "P3xP3", "K7", "K2,6", "C4xC4", "C5xP2", "P3xP4", "K3xK3", "K8"],
)
def test_capped_pruning_decides_hard_k3_cases(make, value, nodes):
    # Capping each check's trees at the palette decides the first three
    # within the benchmark's budget of 20,000 nodes (without the cap all
    # three ran out of it; their values are those of bench/refs.json).
    # The next three need symmetry breaking to fit that budget.  C5xP2 is
    # the largest search decided here, so a costlier check shows up in
    # its time.
    g = make()
    res = rx_exact(g, 3, budget=20_000)
    assert res.exact and res.value == value and res.nodes_explored == nodes
    assert is_k_rainbow(g, res.witness, 3).ok


# The 18 graphs of the benchmark's solve-families workload.
SOLVE_FAMILIES = (
    ("P6", path(6)), ("P8", path(8)),
    ("C5", cycle(5)), ("C6", cycle(6)), ("C7", cycle(7)), ("C8", cycle(8)),
    ("K4", complete(4)), ("K5", complete(5)), ("K6", complete(6)),
    ("K2,3", complete_bipartite(2, 3)), ("K2,4", complete_bipartite(2, 4)),
    ("K2,5", complete_bipartite(2, 5)), ("K3,3", complete_bipartite(3, 3)),
    ("S6", star(6)),
    ("P2xP3", cartesian_product(path(2), path(3))[0]),
    ("P2xP4", cartesian_product(path(2), path(4))[0]),
    ("C4xP2", cartesian_product(cycle(4), path(2))[0]),
    ("P3xP3", cartesian_product(path(3), path(3))[0]),
)

# sha256 of repr([(name, k, value, exact, lower, upper, nodes_explored,
# witness colors), ...]) over the solves of test_solver_outcomes_match_the_pinned_hash
SOLVES_PINNED = "21818a566ea1d8ad146150cb8e164d83f2021d19aa2e99b029bd403dcd7a4bae"


def test_solver_outcomes_match_the_pinned_hash():
    # Every family at k = 2 and 3 within the benchmark's budget, plus
    # C7xP2 at k = 3, which exhausts 2,000 nodes.  A change to the set
    # order or to the cost of a check must leave every value, witness,
    # node count and bracket as it is.
    solves = [(name, g, k, 20_000) for name, g in SOLVE_FAMILIES for k in (2, 3)]
    solves.append(("C7xP2", cartesian_product(cycle(7), path(2))[0], 3, 2_000))
    outcomes = []
    for name, g, k, budget in solves:
        r = rx_exact(g, k, budget=budget)
        outcomes.append(
            (name, k, r.value, r.exact, r.lower, r.upper, r.nodes_explored, r.witness.colors)
        )
    assert sum(o[3] for o in outcomes) == 36  # all exact but the last
    assert outcomes[-1][2:7] == (None, False, 5, 21, 2_000)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == SOLVES_PINNED


def test_checks_read_the_table_kept_in_place(monkeypatch):
    # Each palette's search updates one step table in place as it colors
    # and uncolors edges.  At every check that table must equal the one
    # built afresh from the colors assigned so far, uncolored edges being
    # None.  The solver builds its table from its own colors list, which
    # it then keeps up to date, so wrapping step_table finds that list.
    built, calls = [], [0]

    def build(g, colors):
        steps = step_table(g, colors)
        built.append((steps, g, colors))
        return steps

    def check(steps, order, palette):
        table, g, colors = built[-1]
        assert steps is table and steps == step_table(g, colors)
        calls[0] += 1
        return real(steps, order, palette)

    real = solver.partial_failure
    monkeypatch.setattr(solver, "step_table", build)
    monkeypatch.setattr(solver, "partial_failure", check)
    solves = [(g, k) for _, g in SOLVE_FAMILIES for k in (2, 3)]
    solves.append((cartesian_product(cycle(5), path(2))[0], 3))
    for g, k in solves:
        calls[0] = 0
        assert rx_exact(g, k, budget=20_000).exact and calls[0] > 0
    calls[0] = 0
    r = rx_exact(cartesian_product(cycle(7), path(2))[0], 3, budget=2_000)
    assert not r.exact and (r.lower, r.upper) == (5, 21) and calls[0] > 0


def test_k3_solve_runs_one_steiner_pass(monkeypatch):
    # The lower bound's sdiam3 is the only Steiner pass of a k=3 solve,
    # so one distance matrix is built.
    real = steiner.all_pairs_distances
    calls = []
    monkeypatch.setattr(
        steiner, "all_pairs_distances", lambda g: calls.append(g.n) or real(g)
    )
    res = rx_exact(cartesian_product(cycle(4), path(2))[0], 3)
    assert res.exact and res.value == 3 and calls == [8]
