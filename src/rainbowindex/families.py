"""Named graph families and known rainbow-index values.

The oracle returns exact 3-rainbow indexes where a closed form is
known (trees, cycles, complete graphs, two- and balanced-side complete
bipartite graphs) and lower/upper bounds otherwise.  Entries outside
desk scale are flagged oracle-only: tests assert their tags, never
solver-verify their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .graphs import Graph, as_int, build_graph
from .rainbow import EdgeColoring
from .solver import DEFAULT_BUDGET, rx_exact


@dataclass(frozen=True)
class FamilySpec:
    """One of: path n, cycle n, complete n, complete_bipartite s t,
    star n, empty n."""

    kind: str
    n: Optional[int] = None
    s: Optional[int] = None
    t: Optional[int] = None


KINDS = ("path", "cycle", "complete", "complete_bipartite", "star", "empty")
_LEAST_N = {"path": 1, "cycle": 3, "complete": 1, "star": 2, "empty": 1}


def _check_n(kind: str, n: int) -> int:
    n = as_int(n, f"{kind} vertex count")
    if n < _LEAST_N[kind]:
        raise ValueError(f"{kind} needs n >= {_LEAST_N[kind]}, got {n}")
    return n


def _check_sides(s: int, t: int) -> tuple[int, int]:
    s, t = as_int(s, "complete_bipartite s"), as_int(t, "complete_bipartite t")
    if s < 1 or t < 1:
        raise ValueError(f"complete_bipartite needs s, t >= 1, got {s}, {t}")
    return s, t


def path(n: int) -> Graph:
    n = _check_n("path", n)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    n = _check_n("cycle", n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    n = _check_n("complete", n)
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(s: int, t: int) -> Graph:
    """Sides 0..s-1 and s..s+t-1; edges in (left, right) order."""
    s, t = _check_sides(s, t)
    return build_graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def star(n: int) -> Graph:
    """Center 0 with n - 1 leaves."""
    n = _check_n("star", n)
    return build_graph(n, [(0, i) for i in range(1, n)])


def empty(n: int) -> Graph:
    n = _check_n("empty", n)
    return build_graph(n, [])


def generate(spec: FamilySpec) -> Graph:
    """Build the family instance with its canonical vertex numbering."""
    if spec.kind == "path":
        return path(_req(spec.n, "n"))
    if spec.kind == "cycle":
        return cycle(_req(spec.n, "n"))
    if spec.kind == "complete":
        return complete(_req(spec.n, "n"))
    if spec.kind == "complete_bipartite":
        return complete_bipartite(_req(spec.s, "s"), _req(spec.t, "t"))
    if spec.kind == "star":
        return star(_req(spec.n, "n"))
    if spec.kind == "empty":
        return empty(_req(spec.n, "n"))
    raise ValueError(f"unknown family kind {spec.kind!r}; expected one of {KINDS}")


def _req(value: Optional[int], name: str) -> int:
    if value is None:
        raise ValueError(f"family parameter {name} is required")
    return value


@dataclass(frozen=True)
class OracleEntry:
    """Known value or bounds for the 3-rainbow index of a family instance.

    lower == upper means the value is exact.  oracle_only marks rows
    whose value is beyond desk-scale solver verification; note carries
    extra regime remarks that are recorded but never asserted.
    """

    lower: int
    upper: int
    tag: str
    oracle_only: bool = False
    note: Optional[str] = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None


def _two_side_bipartite_value(t: int) -> tuple[int, bool]:
    """Exact index of the two-left-vertices bipartite graph on t right
    vertices, and whether the row is beyond desk scale.

    Explicit small rows, then value k on the block (k-1)(k-2) < t <= k(k-1)
    for k >= 6 (blocks are contiguous from t = 21 on).
    """
    if t == 2:
        return 2, False
    if t in (3, 4):
        return 3, False
    if 5 <= t <= 8:
        return 4, False
    if 9 <= t <= 20:
        return 5, False
    k = (1 + isqrt(1 + 4 * t)) // 2  # largest k with k(k-1) <= t
    while k * (k - 1) < t:
        k += 1
    return k, True


def oracle_rx3(spec: FamilySpec) -> Optional[OracleEntry]:
    """Known 3-rainbow index (or bounds) for the instance; None when no
    covered statement applies.  The parameters are checked as
    ``generate`` checks them, but no graph is built."""
    if spec.kind in _LEAST_N:
        n = _check_n(spec.kind, _req(spec.n, "n"))
    if spec.kind in ("path", "star"):
        if n < 3:
            return None
        return OracleEntry(n - 1, n - 1, "tree")
    if spec.kind == "cycle":
        if n == 3:
            return OracleEntry(2, 2, "cycle")
        return OracleEntry(n - 2, n - 2, "cycle")
    if spec.kind == "complete":
        if n < 3:
            return None
        value = 2 if n <= 5 else 3
        return OracleEntry(value, value, "complete")
    if spec.kind == "complete_bipartite":
        s, t = _check_sides(_req(spec.s, "s"), _req(spec.t, "t"))
        if s > t:
            s, t = t, s
        if s == 1:
            if 1 + t < 3:
                return None
            return OracleEntry(t, t, "tree")
        if s == 2:
            value, beyond = _two_side_bipartite_value(t)
            return OracleEntry(value, value, "bipartite-two-left", oracle_only=beyond)
        if s == t:
            return OracleEntry(3, 3, "bipartite-balanced")
        upper = min(6, s + t - 3)
        note = None
        if t >= 2 * 6**s:
            note = "upper bound 6 is attained for right sides this large"
        return OracleEntry(3, upper, "bipartite-bound", note=note)
    if spec.kind == "empty":
        return None  # disconnected (or a single vertex): no index statement
    raise ValueError(f"unknown family kind {spec.kind!r}")


def oracle_coloring(
    spec: FamilySpec, k: int = 3, budget: int = DEFAULT_BUDGET
) -> Optional[EdgeColoring]:
    """A verified k-rainbow coloring of the instance at solver-exact
    palette, or None when the search budget runs out.

    Paths and stars at k=3 short-circuit to the forced all-distinct
    coloring.
    """
    g = generate(spec)
    if k == 3 and spec.kind in ("path", "star") and g.m > 0:
        return EdgeColoring(tuple(range(g.m)), g.m)
    result = rx_exact(g, k, budget=budget)
    if not result.exact:
        return None
    return result.witness


def oracle_entry_to_json_dict(entry: OracleEntry) -> dict:
    out = {
        "lower": entry.lower,
        "upper": entry.upper,
        "exact": entry.exact,
        "value": entry.value,
        "tag": entry.tag,
        "oracle_only": entry.oracle_only,
    }
    if entry.note is not None:
        out["note"] = entry.note
    return out
