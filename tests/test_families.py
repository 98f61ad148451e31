import tracemalloc

import numpy as np
import pytest

from rainbowindex import (
    EdgeColoring,
    FamilySpec,
    complete_bipartite,
    cycle,
    generate,
    is_complete,
    is_k_rainbow,
    oracle_coloring,
    oracle_rx3,
    path,
    rx_exact,
)
from rainbowindex.families import oracle_entry_to_json_dict


def spec(kind, **kw):
    return FamilySpec(kind, **kw)


def test_generate_basics():
    p4 = generate(spec("path", n=4))
    assert p4.n == 4 and p4.m == 3
    k23 = generate(spec("complete_bipartite", s=2, t=3))
    assert k23.n == 5 and k23.m == 6
    # bipartite sides are contiguous: 0..s-1 vs s..s+t-1
    assert all(u < 2 <= v for u, v in k23.edges)
    s5 = generate(spec("star", n=5))
    assert s5.degree(0) == 4
    assert generate(spec("empty", n=3)).m == 0
    assert is_complete(generate(spec("complete", n=5)))


def test_generate_validation():
    with pytest.raises(ValueError):
        generate(spec("cycle", n=2))
    with pytest.raises(ValueError):
        generate(spec("path"))
    with pytest.raises(ValueError):
        generate(spec("wheel", n=5))
    with pytest.raises(ValueError):
        generate(spec("complete_bipartite", s=0, t=3))
    # the builders take integers only; numpy integers are integers
    for build, args in ((path, (3.0,)), (cycle, ("4",)), (complete_bipartite, (2, 1.5))):
        with pytest.raises(ValueError, match="integer"):
            build(*args)
    assert path(np.int64(3)).n == 3


def test_oracle_exact_values():
    assert oracle_rx3(spec("path", n=7)).value == 6
    assert oracle_rx3(spec("cycle", n=3)).value == 2
    assert oracle_rx3(spec("cycle", n=6)).value == 4
    assert oracle_rx3(spec("complete", n=4)).value == 2
    assert oracle_rx3(spec("complete", n=9)).value == 3
    assert oracle_rx3(spec("star", n=6)).value == 5
    assert oracle_rx3(spec("complete_bipartite", s=1, t=5)).value == 5
    assert oracle_rx3(spec("complete_bipartite", s=2, t=2)).value == 2
    assert oracle_rx3(spec("complete_bipartite", s=2, t=9)).value == 5
    assert oracle_rx3(spec("complete_bipartite", s=3, t=3)).value == 3
    assert oracle_rx3(spec("complete_bipartite", s=6, t=6)).value == 3
    # symmetric in the two sides
    assert oracle_rx3(spec("complete_bipartite", s=9, t=2)).value == 5


def test_oracle_two_left_blocks():
    # explicit rows
    for t, want in [(2, 2), (3, 3), (4, 3), (5, 4), (8, 4), (9, 5), (20, 5)]:
        entry = oracle_rx3(spec("complete_bipartite", s=2, t=t))
        assert entry.value == want
        assert not entry.oracle_only
    # formula blocks: value k on (k-1)(k-2) < t <= k(k-1), flagged oracle-only
    for t, want in [(21, 6), (30, 6), (31, 7), (42, 7), (43, 8)]:
        entry = oracle_rx3(spec("complete_bipartite", s=2, t=t))
        assert entry.value == want
        assert entry.oracle_only
        assert entry.tag == "bipartite-two-left"


def test_oracle_bounds_and_notes():
    entry = oracle_rx3(spec("complete_bipartite", s=3, t=4))
    assert (entry.lower, entry.upper) == (3, 4)
    assert not entry.exact and entry.value is None
    assert entry.tag == "bipartite-bound"
    wide = oracle_rx3(spec("complete_bipartite", s=3, t=500))
    assert wide.upper == 6
    assert wide.note is not None  # tightness regime recorded, not asserted
    assert oracle_rx3(spec("complete_bipartite", s=3, t=431)).note is None


def test_oracle_builds_no_graph():
    # K_{2,10^6} or K_{10^6} would not fit in memory: the oracle checks
    # the parameters without generating the graph
    big = 10**6
    specs = [
        spec("path", n=big), spec("star", n=big), spec("cycle", n=big),
        spec("complete", n=big), spec("empty", n=big),
        spec("complete_bipartite", s=1, t=big), spec("complete_bipartite", s=2, t=big),
        spec("complete_bipartite", s=3, t=big), spec("complete_bipartite", s=big, t=big),
    ]
    tracemalloc.start()
    try:
        entries = [oracle_rx3(s) for s in specs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    bounds = [None if e is None else (e.lower, e.upper) for e in entries]
    assert bounds == [
        (big - 1, big - 1), (big - 1, big - 1), (big - 2, big - 2), (3, 3), None,
        (big, big), (1001, 1001), (3, 6), (3, 3),
    ]


@pytest.mark.parametrize(
    "bad",
    [
        spec("path", n=0), spec("star", n=1), spec("cycle", n=2), spec("complete", n=0),
        spec("empty", n=0), spec("path"), spec("complete_bipartite", s=0, t=3),
        spec("complete_bipartite", s=2), spec("cycle", n=4.0),
    ],
    ids=repr,
)
def test_oracle_rejects_what_generate_rejects(bad):
    with pytest.raises(ValueError) as built:
        generate(bad)
    with pytest.raises(ValueError) as checked:
        oracle_rx3(bad)
    assert str(checked.value) == str(built.value)


def test_oracle_no_statement():
    assert oracle_rx3(spec("path", n=2)) is None
    assert oracle_rx3(spec("complete", n=2)) is None
    assert oracle_rx3(spec("empty", n=3)) is None
    assert oracle_rx3(spec("complete_bipartite", s=1, t=1)) is None


def test_oracle_entry_json():
    obj = oracle_entry_to_json_dict(oracle_rx3(spec("path", n=5)))
    assert obj == {
        "lower": 4,
        "upper": 4,
        "exact": True,
        "value": 4,
        "tag": "tree",
        "oracle_only": False,
    }


def test_oracle_coloring():
    c = oracle_coloring(spec("path", n=5), 3)
    assert c == EdgeColoring((0, 1, 2, 3), 4)
    c6 = oracle_coloring(spec("cycle", n=6), 3)
    assert c6.palette_size == 4
    assert is_k_rainbow(generate(spec("cycle", n=6)), c6, 3).ok
    k5 = oracle_coloring(spec("complete", n=5), 3)
    assert k5.palette_size == 2
    assert is_k_rainbow(generate(spec("complete", n=5)), k5, 3).ok
    assert oracle_coloring(spec("cycle", n=6), 3, budget=2) is None


def test_solver_agrees_with_exact_oracle_small():
    cases = [
        spec("path", n=4),
        spec("path", n=6),
        spec("cycle", n=4),
        spec("cycle", n=7),
        spec("complete", n=5),
        spec("star", n=5),
        spec("star", n=8),
        spec("complete_bipartite", s=2, t=4),
        spec("complete_bipartite", s=2, t=6),
        spec("complete_bipartite", s=3, t=3),
    ]
    for fs in cases:
        g = generate(fs)
        assert g.m <= 12
        assert rx_exact(g, 3).value == oracle_rx3(fs).value


def test_bound_respected_where_solvable():
    # desk-scale slice of the min(6, s+t-3) upper bound
    for s, t in [(3, 4)]:
        g = generate(spec("complete_bipartite", s=s, t=t))
        entry = oracle_rx3(spec("complete_bipartite", s=s, t=t))
        value = rx_exact(g, 3).value
        assert entry.lower <= value <= entry.upper


def test_lexicographic_products_of_complete_operands():
    from rainbowindex import lexicographic_product, path

    k4 = lexicographic_product(path(2), path(2))[0]
    assert rx_exact(k4, 3).value == 2
    k6 = lexicographic_product(generate(spec("complete", n=3)), path(2))[0]
    assert is_complete(k6) and k6.n == 6
    assert rx_exact(k6, 3).value == 3
