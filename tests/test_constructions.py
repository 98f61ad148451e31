import random
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowindex import (
    EdgeColoring,
    RoutedToFamilyError,
    SplitSpec,
    build_graph,
    cartesian_coloring,
    complete,
    cycle,
    diameter,
    grid_coloring,
    is_complete,
    is_k_rainbow,
    join_coloring,
    lex_coloring_general,
    lex_coloring_h2,
    path,
    rx_exact,
    sdiam3,
    split_coloring,
    star,
    strong_coloring,
    subdivision_coloring,
)

from oracles import random_connected_graph


def solve_coloring(g, k=3):
    return rx_exact(g, k).witness


def test_cartesian_figure_instance():
    report = cartesian_coloring(
        path(4), solve_coloring(path(4)), path(3), solve_coloring(path(3))
    )
    assert report.ok
    assert report.colors_used == 5
    assert report.claimed_bound == 5
    assert sdiam3(report.derived_graph) == 5  # certifies exactness


def test_cartesian_two_edges_make_c4():
    report = cartesian_coloring(
        path(2), EdgeColoring((0,), 1), path(2), EdgeColoring((0,), 1)
    )
    g = report.derived_graph
    assert g.n == 4 and g.m == 4 and all(g.degree(v) == 2 for v in range(4))
    assert report.ok and report.colors_used == 2


def test_cartesian_k1_factor_copies_coloring():
    ch = solve_coloring(cycle(5))
    report = cartesian_coloring(path(1), EdgeColoring((), 0), cycle(5), ch)
    assert report.coloring.colors == ch.colors
    assert report.ok


def test_cartesian_rejects_bad_operand_coloring():
    bad = EdgeColoring((0, 0, 0), 1)  # P_4 needs 3 colors
    with pytest.raises(ValueError, match="not 3-rainbow"):
        cartesian_coloring(path(4), bad, path(3), solve_coloring(path(3)))


def test_grid_colorings():
    # (34, 2) needs 34 colors: no palette bound may reject it
    for dims, want in [((4, 3), 5), ((2, 2), 2), ((3, 3), 4), ((34, 2), 34)]:
        report = grid_coloring(dims)
        assert report.ok
        assert report.colors_used == want
        assert report.claimed_bound == want == report.known_bound
    with pytest.raises(ValueError):
        grid_coloring((1, 3))
    with pytest.raises(ValueError):
        grid_coloring(())
    # dims are integers: strings, floats and bools are rejected, numpy passes
    for dims in (["3", "4"], (3.0, 4), (True, 3)):
        with pytest.raises(ValueError, match="grid dim must be an integer"):
            grid_coloring(dims)
    assert grid_coloring(np.array([4, 3])).colors_used == 5


def test_strong_colorings():
    rep = strong_coloring(
        path(2), EdgeColoring((0,), 1), path(2), EdgeColoring((0,), 1)
    )
    assert is_complete(rep.derived_graph) and rep.derived_graph.n == 4
    assert rep.ok and rep.colors_used <= 2
    rep2 = strong_coloring(
        path(3), solve_coloring(path(3)), path(2), EdgeColoring((0,), 1)
    )
    assert rep2.ok and rep2.colors_used <= 3


def test_strong_never_exceeds_cartesian_palette():
    operands = [path(2), path(3), cycle(3), cycle(4)]
    colorings = {g: solve_coloring(g) for g in operands}
    for g in operands:
        for h in operands:
            cart = cartesian_coloring(g, colorings[g], h, colorings[h])
            strong = strong_coloring(g, colorings[g], h, colorings[h])
            assert strong.ok
            assert strong.colors_used <= cart.colors_used


def test_lex_h2():
    rep = lex_coloring_h2(path(3), solve_coloring(path(3)))
    assert rep.ok and rep.colors_used == 3
    rep = lex_coloring_h2(path(4), solve_coloring(path(4)))
    assert rep.ok and rep.colors_used == 4
    with pytest.raises(RoutedToFamilyError):
        lex_coloring_h2(complete(3), solve_coloring(complete(3)))


def test_lex_general():
    rep = lex_coloring_general(
        path(3), solve_coloring(path(3)), path(3), solve_coloring(path(3), k=2)
    )
    assert rep.derived_graph.m == 24
    assert rep.ok and rep.colors_used <= 4
    rep = lex_coloring_general(
        cycle(5), solve_coloring(cycle(5)), complete(3), solve_coloring(complete(3), k=2)
    )
    assert rep.ok and rep.colors_used <= 4


def test_lex_general_validation():
    with pytest.raises(ValueError, match="V\\(H\\)"):
        lex_coloring_general(
            path(3), solve_coloring(path(3)), path(2), EdgeColoring((0,), 1)
        )
    with pytest.raises(RoutedToFamilyError):
        lex_coloring_general(
            complete(3),
            solve_coloring(complete(3)),
            complete(3),
            solve_coloring(complete(3), k=2),
        )
    # slack palette rejected: the rotation rule needs every color present
    slack = EdgeColoring(tuple(solve_coloring(path(3)).colors), 5)
    with pytest.raises(ValueError, match="every color of its palette"):
        lex_coloring_general(
            path(3), slack, path(3), solve_coloring(path(3), k=2)
        )
    # a disconnected operand is rejected, on either side
    two_edges = path(4).__class__(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="connected"):
        lex_coloring_general(
            two_edges, EdgeColoring((0, 1), 2), path(3), solve_coloring(path(3), k=2)
        )
    with pytest.raises(ValueError, match="connected"):
        lex_coloring_general(
            path(3), solve_coloring(path(3)), path(3).__class__(3, ((0, 1),)),
            EdgeColoring((0,), 1),
        )


def test_lex_equality_class_certified():
    # diam(G) = rx3(G) and complete H force index rx3(G) + 1 exactly
    for g in (path(3), path(4), cycle(4)):
        rx3_g = rx_exact(g, 3).value
        assert diameter(g) == rx3_g
        rep_k2 = lex_coloring_h2(g, solve_coloring(g))
        assert rep_k2.ok and rep_k2.colors_used <= rx3_g + 1
        assert sdiam3(rep_k2.derived_graph) >= diameter(g) + 1
        if g.n == 4 and g.m == 3:  # solve one instance end to end as well
            assert rx_exact(rep_k2.derived_graph, 3).value == rx3_g + 1
        rep_k3 = lex_coloring_general(
            g, solve_coloring(g), complete(3), solve_coloring(complete(3), k=2)
        )
        assert rep_k3.ok and rep_k3.colors_used <= rx3_g + 1
        assert sdiam3(rep_k3.derived_graph) >= diameter(g) + 1


def test_join_single_vertex():
    rep = join_coloring(path(1), path(4), ch=solve_coloring(path(4)))
    assert rep.ok and rep.colors_used == 4


def test_join_two_vertices():
    rep = join_coloring(path(2), path(4), ch_rc=solve_coloring(path(4), k=2))
    assert rep.ok
    assert rep.colors_used == 6  # rc(P_4) + 3
    assert rep.claimed_bound == 6
    assert rep.known_bound == 3  # the two-side bipartite value undercuts it


def test_join_three_plus_exact():
    rep = join_coloring(
        path(3), path(3), cg=solve_coloring(path(3)), ch=solve_coloring(path(3))
    )
    assert rep.ok
    assert rep.claimed_bound == 3  # max(2, 2) + 1
    assert rep.known_bound == 3
    assert rx_exact(rep.derived_graph, 3).value == 3


def test_join_validation():
    with pytest.raises(RoutedToFamilyError):
        join_coloring(complete(2), complete(3))
    with pytest.raises(ValueError, match="smaller operand"):
        join_coloring(path(4), path(3))
    with pytest.raises(ValueError, match="needs ch"):
        join_coloring(path(1), path(4))
    with pytest.raises(ValueError, match="ch_rc"):
        join_coloring(path(2), path(4))
    with pytest.raises(ValueError, match="connected"):
        join_coloring(
            path(1),
            path(4).__class__(4, ((0, 1), (2, 3))),
            ch=EdgeColoring((0, 1), 2),
        )


def test_split_colorings():
    # splitting a degree-2 vertex of C_4 into singleton sides gives C_5
    c4 = cycle(4)
    rep = split_coloring(
        c4, solve_coloring(c4), SplitSpec(1, frozenset({0}), frozenset({2}))
    )
    g5 = rep.derived_graph
    assert g5.n == 5 and g5.m == 5 and all(g5.degree(v) == 2 for v in range(5))
    assert rep.ok and rep.colors_used == 3
    assert rx_exact(g5, 3).value == 3  # tight

    rep = split_coloring(
        path(4),
        solve_coloring(path(4)),
        SplitSpec(0, frozenset({1}), frozenset()),
    )
    assert rep.ok and rep.colors_used == 4

    k4 = complete(4)
    rep = split_coloring(
        k4, solve_coloring(k4), SplitSpec(0, frozenset({1}), frozenset({2, 3}))
    )
    assert rep.ok and rep.colors_used <= 3


def test_split_invalid_spec():
    with pytest.raises(ValueError):
        split_coloring(
            cycle(4),
            solve_coloring(cycle(4)),
            SplitSpec(1, frozenset({0}), frozenset()),
        )


def test_subdivision_colorings():
    rep = subdivision_coloring(path(2), EdgeColoring((0,), 1), 0)
    assert rep.derived_graph.m == 2 and rep.ok and rep.colors_used == 2
    rep = subdivision_coloring(cycle(4), solve_coloring(cycle(4)), 0)
    assert rep.ok and rep.colors_used == 3
    assert rx_exact(rep.derived_graph, 3).value == 3  # tight
    rep = subdivision_coloring(path(4), solve_coloring(path(4)), 1)
    assert rep.ok and rep.colors_used == 4
    assert rx_exact(rep.derived_graph, 3).value == 4  # tight
    with pytest.raises(ValueError):
        subdivision_coloring(path(3), solve_coloring(path(3)), 9)


def test_palette_arithmetic_random_batch():
    rng = random.Random(97)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(2, 5), rng.randrange(2))
        h = random_connected_graph(rng, rng.randrange(2, 5), rng.randrange(2))
        cg, ch = solve_coloring(g), solve_coloring(h)
        for rep in (cartesian_coloring(g, cg, h, ch), strong_coloring(g, cg, h, ch)):
            assert rep.ok
            assert rep.colors_used <= rep.claimed_bound
        v = rng.randrange(g.n)
        nbhd = list(g.neighbors(v))
        rng.shuffle(nbhd)
        cut = rng.randrange(len(nbhd) + 1)
        rep = split_coloring(
            g, cg, SplitSpec(v, frozenset(nbhd[:cut]), frozenset(nbhd[cut:]))
        )
        assert rep.ok and rep.colors_used <= rep.claimed_bound
        rep = subdivision_coloring(g, cg, rng.randrange(g.m))
        assert rep.ok and rep.colors_used <= rep.claimed_bound


def test_equality_class_for_steiner_tight_operands():
    # operands whose index equals their Steiner diameter certify the
    # product's index as the palette sum
    operands = [path(3), path(4), cycle(4), cycle(6), star(4)]
    for g in operands:
        for h in operands:
            rg, rh = rx_exact(g, 3), rx_exact(h, 3)
            if rg.value != sdiam3(g) or rh.value != sdiam3(h):
                continue
            rep = cartesian_coloring(g, rg.witness, h, rh.witness)
            assert rep.ok
            assert sdiam3(rep.derived_graph) == rg.value + rh.value
            assert rep.colors_used <= rg.value + rh.value


OPERANDS = {
    "P2": path(2), "P3": path(3), "P4": path(4),
    "C4": cycle(4), "C5": cycle(5), "K3": complete(3), "K4": complete(4),
}


@cache
def witness(name, k=3):
    """The solver's witness coloring of an operand."""
    return solve_coloring(OPERANDS[name], k)


@cache
def exact_value(n, edges):
    return rx_exact(build_graph(n, edges), 3).value


@st.composite
def small_constructions(draw):
    """One construction on operands from P2-P4, C4-C5 and K3-K4 with the
    solver's witnesses as operand colorings; the kinds a pair of operands
    does not admit are never drawn."""
    g, h = draw(st.sampled_from(sorted(OPERANDS))), draw(st.sampled_from(sorted(OPERANDS)))
    G, H = OPERANDS[g], OPERANDS[h]
    kinds = ["cartesian", "strong", "split", "subdivision"]
    if not is_complete(G):
        kinds.append("lex_h2")
    if H.n >= 3 and not (is_complete(G) and is_complete(H)):
        if set(witness(g).colors) == set(range(witness(g).palette_size)):
            kinds.append("lex_general")
    if G.n <= H.n and not (is_complete(G) and is_complete(H)):
        kinds.append("join")
    kind = draw(st.sampled_from(kinds))
    if kind == "cartesian":
        return partial(cartesian_coloring, G, witness(g), H, witness(h))
    if kind == "strong":
        return partial(strong_coloring, G, witness(g), H, witness(h))
    if kind == "lex_h2":
        return partial(lex_coloring_h2, G, witness(g))
    if kind == "lex_general":
        return partial(lex_coloring_general, G, witness(g), H, witness(h, 2))
    if kind == "join":
        if G.n == 2:
            return partial(join_coloring, G, H, ch_rc=witness(h, 2))
        return partial(join_coloring, G, H, cg=witness(g), ch=witness(h))
    if kind == "split":
        v = draw(st.integers(0, G.n - 1))
        side = draw(st.lists(st.booleans(), min_size=G.degree(v), max_size=G.degree(v)))
        parts = ([], [])
        for u, second in zip(sorted(G.neighbors(v)), side):
            parts[second].append(u)
        spec = SplitSpec(v, frozenset(parts[0]), frozenset(parts[1]))
        return partial(split_coloring, G, witness(g), spec)
    e = draw(st.integers(0, G.m - 1))
    return partial(subdivision_coloring, G, witness(g), e)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(small_constructions())
def test_construction_properties(construct):
    # every construction keeps its palette promise and verifies, and on
    # small derived graphs the exact index never exceeds the colors used
    report = construct()
    assert report.colors_used <= report.claimed_bound
    assert report.verified.ok
    g = report.derived_graph
    if g.m <= 9:
        assert exact_value(g.n, g.edges) <= report.colors_used
