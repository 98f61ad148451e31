"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

They check that the traced run's wrappers see every call (known counts
inside the grid constructions), that the exact counts repeat across two
runs with one seed, that the pinned references agree with the
brute-force oracles in ``tests/oracles.py`` and the known family values,
that the host clock scales time as documented and puts the signal
handler back, and that the benchmark refuses to run without the
package's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from itertools import combinations, islice
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import hostclock  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rainbowindex import constructions, families, rainbow, solver  # noqa: E402

REFS = json.loads(workloads.REFS_PATH.read_text())


def _traced(call) -> tracing.PassView:
    """The spans of ``call`` run with the wrappers installed."""
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("op", "test"):
        call()
    return tracing.PassView(tracer.spans, 0, len(tracer.spans))


@pytest.mark.parametrize("dims, verify_calls", [((8, 8), 4), ((5, 5, 3), 7)])
def test_wrappers_see_every_verification_inside_grid_coloring(dims, verify_calls):
    view = _traced(lambda: constructions.grid_coloring(dims))
    inside = view.top({"rainbow.is_k_rainbow"}, under=tracing.CONSTRUCTIONS)
    assert len(inside) == verify_calls
    assert len(view.top({"steiner.sdiam3"})) == 1
    assert len(view.top({"graphs.cartesian_product"})) == len(dims) - 1


def test_wrappers_see_the_solvers_imported_names():
    view = _traced(lambda: solver.rx_exact(families.cycle(6), 3))
    assert len(view.top({"solver.lower_bound"})) == 1
    assert len(view.top({"steiner.sdiam3"})) == 1
    partial = view.top({"rainbow.partial_failure"})
    assert partial and all(s.parent >= 0 for s in partial)


def test_restore_puts_every_original_back():
    originals = {
        (m.__name__, a): v
        for m in tracing._package_modules() for a, v in vars(m).items() if callable(v)
    }
    tracer = tracing.Tracer()
    assert tracer.install() > len(tracing.TRACED)
    assert hasattr(constructions.is_k_rainbow, "bench_span")
    tracer.restore()
    after = {
        (m.__name__, a): v
        for m in tracing._package_modules() for a, v in vars(m).items() if callable(v)
    }
    assert after == originals


def test_harrell_davis_estimates_the_quantile():
    assert run.harrell_davis([4.0, 1.0, 3.0, 2.0, 5.0], 0.5) == pytest.approx(3.0)
    assert run.harrell_davis([7.0] * 9, 0.9) == pytest.approx(7.0)
    assert run.harrell_davis(list(range(1000)), 0.9) == pytest.approx(899.5, abs=0.5)
    # Between two clusters the estimate lies between them, not on either edge.
    two = [1.0] * 45 + [10.0] * 55
    assert 1.0 < run.harrell_davis(two, 0.45) < 10.0


def test_host_clock_divides_each_gap_by_the_probe_before_it():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_PROBE_S
    # Probes at 0 s (reference speed) and at 1 s (twice as slow), then a
    # last one at 3 s; the probes' own time is left out.
    clock.starts = [0.0, 1.0, 3.0]
    clock.ends = [ref, 1.0 + 2 * ref, 3.0 + ref]
    assert clock.elapsed(ref, 1.0) == pytest.approx(1.0 - ref)
    assert clock.elapsed(1.0, 1.0 + 2 * ref) == 0.0
    assert clock.elapsed(1.0 + 2 * ref, 3.0) == pytest.approx((2.0 - 2 * ref) / 2)
    assert clock.elapsed(0.5, 2.0) == pytest.approx(0.5 + (1.0 - 2 * ref) / 2)


def test_host_clock_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock().start()
    t0 = perf_counter()
    while perf_counter() - t0 < 0.05:
        pass
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.starts) >= 3
    assert 0 < clock.elapsed(t0, t0 + 0.05)


def test_triple_rank_is_the_lexicographic_position():
    n = 9
    for rank, t in enumerate(combinations(range(n), 3)):
        assert tracing.triple_rank(n, t) == rank


# ---------------------------------------------------------------------------
# Pinned references against independent oracles
# ---------------------------------------------------------------------------

FAMILY_SPECS = {
    "P6": ("path", {"n": 6}), "P8": ("path", {"n": 8}),
    "C5": ("cycle", {"n": 5}), "C6": ("cycle", {"n": 6}),
    "C7": ("cycle", {"n": 7}), "C8": ("cycle", {"n": 8}),
    "K4": ("complete", {"n": 4}), "K5": ("complete", {"n": 5}), "K6": ("complete", {"n": 6}),
    "K2,3": ("complete_bipartite", {"s": 2, "t": 3}),
    "K2,4": ("complete_bipartite", {"s": 2, "t": 4}),
    "K2,5": ("complete_bipartite", {"s": 2, "t": 5}),
    "K3,3": ("complete_bipartite", {"s": 3, "t": 3}),
    "S6": ("star", {"n": 6}),
}
# rc of K_{s,t} is ceil(t ** (1/s)) for 2 <= s <= t; trees need every edge.
RC_KNOWN = {"P6": 5, "P8": 7, "C5": 3, "C6": 3, "C7": 4, "C8": 4, "K4": 1, "K5": 1, "K6": 1,
            "K2,3": 2, "K2,4": 2, "K2,5": 3, "K3,3": 2, "S6": 5,
            "P2xP3": 3, "P2xP4": 4, "P3xP3": 4, "C4xP2": 3}


def test_solve_references_match_known_values():
    for name, (kind, params) in FAMILY_SPECS.items():
        entry = families.oracle_rx3(families.FamilySpec(kind, **params))
        assert entry is not None and entry.exact, name
        assert REFS["solve"][f"{name}/3"] == entry.value, name
    for name, value in RC_KNOWN.items():
        assert REFS["solve"][f"{name}/2"] == value, name
    # Grids P_a x P_b: sum(n_i) - k, the certified grid value.
    for name, (a, b) in {"P2xP3": (2, 3), "P2xP4": (2, 4), "P3xP3": (3, 3)}.items():
        assert REFS["solve"][f"{name}/3"] == a + b - 2, name


@pytest.mark.parametrize(
    "name", ["P6", "C5", "C6", "K4", "K5", "K2,3", "K2,4", "K3,3", "S6", "P2xP3"]
)
def test_solve_references_match_brute_force(name):
    g = dict(workloads.SOLVE_GRAPHS)[name]()
    value = REFS["solve"][f"{name}/3"]
    assert oracles.rx3_brute(g, max_palette=value) == value


def _brute_cost(g, coloring) -> int:
    cap = min(coloring.palette_size, g.n - 1, g.m)
    return sum(comb(g.m, s) for s in range(2, cap + 1))


def _brute_first_failure(g, coloring, k):
    if k == 3:
        covered = oracles.covered_triples(g, coloring)
        return next((t for t in combinations(range(g.n), 3) if t not in covered), None)
    for a, b in combinations(range(g.n), 2):
        if not oracles.path_color_sets(g, coloring, a, b):
            return (a, b)
    return None


def test_verify_references_match_brute_force_on_small_instances():
    checked = 0
    for name, g, c, k in workloads.verify_pool():
        if _brute_cost(g, c) > 500_000:
            continue
        ref = REFS["verify"][name]
        first = _brute_first_failure(g, c, k)
        assert ref["ok"] == (first is None), name
        assert ref["failing"] == (None if first is None else list(first)), name
        checked += 1
    assert checked >= 35


def test_scrambling_keeps_the_pinned_verdicts():
    import random

    rng = random.Random(7)
    for name, g, c, k in islice(workloads.verify_pool(), 0, None, 5):
        g2, c2 = workloads.scrambled(rng, g, c)
        v = rainbow.is_k_rainbow(g2, c2, k)
        ref = REFS["verify"][name]
        assert (v.ok, None if v.failing is None else list(v.failing)) == (ref["ok"], ref["failing"])


def test_closed_forms():
    for n in (4, 5, 6, 9, 12):
        assert oracles.sdiam3_brute(families.cycle(n)) == workloads.sdiam3_cycle_ref(n)
    for kind, n in workloads.OPERANDS:
        g = families.generate(families.FamilySpec(kind, n=n))
        assert solver.rx_exact(g, 3).value == workloads.rx3_ref(kind, n)
        assert solver.rx_exact(g, 2).value == workloads.rc_ref(kind, n)


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------

def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_for_one_seed(workload):
    results = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append({k: result["metrics"][k]["value"] for k in tracing.EXACT_COUNTS})
    assert results[0] == results[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
