"""k=2 and k=3 verdicts and first failing sets pinned by one hash each.

A seeded pool of colorings on both sides of the first-mask filter's size
gate (constructions, their recolorings in their own vertex order and
renamed, and G(n, p) colorings with 4 to 100 colors) goes through
``is_k_rainbow``, and the (ok, failing) pairs hash to a pinned constant.
A faster checker must give every verdict and failing set unchanged.  A
second pool, pinned on its own, holds colorings on 65 to 130 vertices,
where the filter holds more than one word of centers.
"""

import hashlib
import random

from rainbowindex import (
    EdgeColoring,
    build_graph,
    cartesian_coloring,
    cycle,
    grid_coloring,
    is_connected,
    is_k_rainbow,
    path,
    rx_exact,
    strong_coloring,
)

# sha256 of repr([(ok, failing), ...]) over verdict_pool(random.Random(131))
PINNED = "17150ad35876d8d2061c65eda64761bb10eb77da11086c4dc7f01715e14fa89b"
# the same at k=2
PINNED_K2 = "b0f55eac4799440c8adc7776ae129f3e5373e19e70ac1eb23cdc6b4a01a80816"


def gnp(rng, n, p):
    """A connected G(n, p) sample: edges drawn until the graph is connected."""
    while True:
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])
        if is_connected(g):
            return g


def verdict_pool(rng):
    """The pool's (graph, coloring) pairs, in a fixed order."""
    c4, c5 = (rx_exact(cycle(n), 3).witness for n in (4, 5))
    p3, p5 = EdgeColoring((0, 1), 2), EdgeColoring((0, 1, 2, 3), 4)
    reports = [grid_coloring(d) for d in ((3, 3), (4, 4), (5, 5), (3, 3, 3), (5, 6), (8, 8))]
    reports += [cartesian_coloring(cycle(5), c5, path(5), p5),
                cartesian_coloring(cycle(5), c5, cycle(4), c4),
                strong_coloring(cycle(5), c5, path(3), p3),
                strong_coloring(cycle(4), c4, path(5), p5)]
    for report in reports:
        g, c = report.derived_graph, report.coloring
        yield g, c
        for _ in range(12):
            colors = list(c.colors)
            e = rng.randrange(g.m)
            colors[e] = (colors[e] + 1) % c.palette_size
            bad = EdgeColoring(tuple(colors), c.palette_size)
            yield g, bad
            name = rng.sample(range(g.n), g.n)
            yield build_graph(g.n, [(name[u], name[v]) for u, v in g.edges]), bad
    for _ in range(300):
        g = gnp(rng, rng.randrange(6, 19), rng.uniform(0.2, 0.6))
        palette = rng.randrange(4, 101)
        yield g, EdgeColoring(tuple(rng.randrange(palette) for _ in range(g.m)), palette)


def test_k3_verdicts_match_the_pinned_hash():
    verdicts, gated = [], 0
    for g, c in verdict_pool(random.Random(131)):
        v = is_k_rainbow(g, c, 3)
        verdicts.append((v.ok, v.failing))
        gated += g.n >= 10
    assert len(verdicts) == 550 and 300 < gated < 550
    assert sum(ok for ok, _ in verdicts) == 326
    assert sum(failing[:2] == (0, 1) for ok, failing in verdicts if not ok) == 60
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == PINNED


def test_k2_verdicts_match_the_pinned_hash():
    verdicts = []
    for g, c in verdict_pool(random.Random(131)):
        v = is_k_rainbow(g, c, 2)
        verdicts.append((v.ok, v.failing))
    assert len(verdicts) == 550
    assert sum(ok for ok, _ in verdicts) == 438
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == PINNED_K2


# sha256 of repr([(ok, failing), ...]) over wide_pool(random.Random(163))
PINNED_WIDE = "566f648626274f0a7a3983573f8517d9a13ed2eca2f2b03789d5127a3e98e4ad"


def wide_pool(rng):
    """Colorings on 65 to 130 vertices, so the first-mask filter holds
    two or three words of centers: grids, a Cartesian and a strong
    product, each followed by recolorings in its own vertex order and
    renamed."""
    c5 = rx_exact(cycle(5), 3).witness
    p2, p14, p33 = (EdgeColoring(tuple(range(n - 1)), n - 1) for n in (2, 14, 33))
    reports = [grid_coloring(d) for d in ((5, 5, 3), (9, 9), (10, 10), (13, 10))]
    reports += [cartesian_coloring(cycle(5), c5, path(14), p14),
                strong_coloring(path(2), p2, path(33), p33)]
    for report in reports:
        g, c = report.derived_graph, report.coloring
        yield g, c
        for _ in range(6):
            colors = list(c.colors)
            e = rng.randrange(g.m)
            colors[e] = (colors[e] + 1) % c.palette_size
            bad = EdgeColoring(tuple(colors), c.palette_size)
            yield g, bad
            name = rng.sample(range(g.n), g.n)
            yield build_graph(g.n, [(name[u], name[v]) for u, v in g.edges]), bad


def test_k3_verdicts_past_one_word_match_the_pinned_hash():
    verdicts, sizes = [], set()
    for g, c in wide_pool(random.Random(163)):
        v = is_k_rainbow(g, c, 3)
        verdicts.append((v.ok, v.failing))
        sizes.add(g.n)
    assert len(verdicts) == 78 and min(sizes) > 64 and max(sizes) == 130
    assert sum(ok for ok, _ in verdicts) == 14
    assert sum(failing[:2] != (0, 1) for ok, failing in verdicts if not ok) == 42
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == PINNED_WIDE
