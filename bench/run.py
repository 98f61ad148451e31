"""Benchmark of rainbowindex: one workload, one seed, one process (which
also starts, one at a time, fresh interpreters that time the import).

Run from the root of a checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 36 --trace 0

It imports the package from ``src/``, builds the workload's inputs from
the seed, and repeats the workload's operation list (a pass) until the
pass boundary nearest to ``--seconds``, and at least until 100
operations in four passes were timed; set-up is sampled before the
first pass and again between passes.  Every output is checked against
its reference.
Times are read with ``hostclock.HostClock``: raw wall-clock intervals
converted into seconds at a reference host speed, sampled every 10 ms
while the workload runs, because this kind of shared host changes speed
by up to 2x many times a second.  The raw figures are kept beside them.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run alternates untraced and traced passes and the
metrics are the per-layer ones, plus the tracing overhead.  The line
before it records sample counts and provenance.  Spans and results are
also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

MIN_SAMPLES = 100  # so that at least 10 operations lie beyond the 90th percentile
MIN_PASSES = 4  # wall_s is a median over passes
# Set-up is sampled about this many times, spread over the run: one sample
# before the first pass and one after a pass whenever --seconds / SETUP_SAMPLES
# have gone by since the last.  Samples taken together at the start all meet
# the host in one state; spread out, their median averages over the run.
SETUP_SAMPLES = 6
# Run in a fresh interpreter: the package's import time, read with a host
# clock of its own, as "<reference seconds> <raw seconds>".
_TIME_IMPORT = """\
import sys
sys.path[:0] = sys.argv[1:3]
from time import perf_counter
import hostclock
clock = hostclock.HostClock().start()
t0 = perf_counter()
import rainbowindex
t1 = perf_counter()
clock.stop()
print(clock.elapsed(t0, t1), t1 - t0)
"""
WORKLOADS = ("construct", "verify-mixed", "solve-families")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "decided_share": "ratio", "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library(root: Path) -> None:
    """Import the package from the checkout's ``src/``."""
    src = root / "src"
    if not (src / "rainbowindex" / "__init__.py").is_file():
        raise SystemExit(f"no rainbowindex package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import rainbowindex

    if Path(rainbowindex.__file__).resolve().parent != (src / "rainbowindex").resolve():
        raise SystemExit(f"imported rainbowindex from {rainbowindex.__file__}, not {src}")


def time_import(root: Path) -> tuple[float, float]:
    """The package's import time in a fresh interpreter, which this process
    waits for: (reference seconds, raw seconds)."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TIME_IMPORT,
         str(root / "src"), str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    ref, raw = proc.stdout.split()
    return float(ref), float(raw)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(root),
    }


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks.  Where the quantile falls between two operations of different
    cost, it moves smoothly with their samples instead of jumping from one
    to the other."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # The Beta density on a fine grid, summed into the n rank intervals.
    t = (np.arange(200_000) + 0.5) / 200_000
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.bincount((t * n).astype(int), weights=np.exp(log_pdf - log_pdf.max()), minlength=n)
    return float(w @ x / w.sum())


@dataclass
class Pass:
    """Outcome of running the operation list once, with raw
    ``perf_counter`` readings; ``HostClock.elapsed`` turns them into times."""

    stamps: list[tuple[float, float]]  # start and end of each operation
    start: float
    end: float
    failed: int
    decided: int
    errors: list[str]

    def latencies(self, clock: HostClock) -> list[float]:
        return [clock.elapsed(a, b) for a, b in self.stamps]

    def wall(self, clock: HostClock) -> float:
        return clock.elapsed(self.start, self.end)

    @property
    def raw_wall(self) -> float:
        return self.end - self.start


def run_pass(ops, tracer=None) -> Pass:
    """Run each operation, then check every output against its reference."""
    stamps, outputs = [], []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            with tracer.span("op", op.name) if tracer else nullcontext():
                out, error = op.run(), None
        except Exception:  # a raising operation counts as failed; the pass goes on
            out, error = None, traceback.format_exc(limit=3)
        stamps.append((t0, perf_counter()))
        outputs.append((op, out, error))
    end = perf_counter()
    failed = decided = 0
    errors = []
    for op, out, error in outputs:
        if error is None:
            error = op.check(out)
        if error is None:
            decided += op.decided(out)
        else:
            failed += 1
            errors.append(f"{op.name}: {error}")
    return Pass(stamps, start, end, failed, decided, errors)


def clock_info(clock: HostClock) -> dict:
    slow = sorted(clock.slowdowns())
    return {
        "probes": len(slow),
        "probe_share": clock.raw_probe_share(),
        "slowdown_quartiles": statistics.quantiles(slow, n=4) if len(slow) > 1 else slow,
    }


def measure(args, root: Path, workdir: Path, clock: HostClock) -> tuple[dict, dict, list[Pass]]:
    """Untraced run: passes, with set-up sampled before the first and
    between later ones; end-to-end metrics."""
    import workloads

    imports, setups = [], []

    def set_up():
        """One set-up sample: a fresh interpreter's import of the package,
        then this process's inputs, operand colorings and warm-up."""
        imports.append(time_import(root))
        t0 = perf_counter()
        built = workloads.build(args.workload, args.seed, workdir)
        workloads.warm_up(args.workload)
        setups.append((t0, perf_counter()))
        return built

    ops = set_up()
    passes: list[Pass] = []
    start = last_set_up = perf_counter()
    # Stop at the pass boundary nearest to --seconds, once enough samples exist.
    while (len(passes) < MIN_PASSES
           or perf_counter() - start + passes[-1].raw_wall / 2 < args.seconds
           or sum(len(p.stamps) for p in passes) < MIN_SAMPLES):
        passes.append(run_pass(ops))
        if perf_counter() - last_set_up >= args.seconds / SETUP_SAMPLES:
            set_up()
            last_set_up = perf_counter()
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the statistics

    per_pass = [p.latencies(clock) for p in passes]
    lat_ms = [x * 1000 for lat in per_pass for x in lat]
    attempted = len(lat_ms)
    import_s = statistics.median(ref for ref, _ in imports)
    setup_s = [clock.elapsed(a, b) for a, b in setups]
    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        "wall_s": statistics.median(p.wall(clock) for p in passes),
        "op_p50_ms": harrell_davis(lat_ms, 0.5),
        "op_p90_ms": harrell_davis(lat_ms, 0.9),
        "decided_share": sum(p.decided for p in passes) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "samples": attempted,
        "passes": len(passes),
        "pass_walls": [p.wall(clock) for p in passes],
        "ops_per_pass": len(ops),
        "setup_repeats": setup_s,
        "import_repeats": [ref for ref, _ in imports],
        "failed_share": sum(p.failed for p in passes) / attempted,
        "raw": {
            "setup_s": statistics.median(raw for _, raw in imports)
            + statistics.median(b - a for a, b in setups),
            "wall_s": statistics.median(p.raw_wall for p in passes),
            "op_p50_ms": harrell_davis([(b - a) * 1000 for p in passes for a, b in p.stamps], 0.5),
        },
        "clock": clock_info(clock),
        "latencies_ms": [[op.name, [lat[i] * 1000 for lat in per_pass]]
                         for i, op in enumerate(ops)],
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info, passes


def measure_traced(args, workdir: Path, clock: HostClock,
                   spans_path: Path) -> tuple[dict, dict, list[Pass]]:
    """Traced run: traced set-up, then untraced and traced passes in turn;
    per-layer metrics and the tracing overhead."""
    import tracing
    import workloads
    from rainbowindex import rainbow

    tracer = tracing.Tracer()
    with tracer.installed() as wrapped:
        with tracer.span("setup", "setup"):
            ops = workloads.build(args.workload, args.seed, workdir)
            workloads.warm_up(args.workload)
    setup_view = tracing.PassView(tracer.spans, 0, len(tracer.spans))

    untraced, traced, views = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start + untraced[-1].raw_wall < args.seconds:
        untraced.append(run_pass(ops))
        lo = len(tracer.spans)
        with tracer.installed():
            traced.append(run_pass(ops, tracer))
        views.append(tracing.PassView(tracer.spans, lo, len(tracer.spans)))
    probe = tracing.probe_reach(views[0], rainbow.rainbow_reach, clock.elapsed)
    clock.stop()
    tracer.retime(clock.reference_time)
    tracer.dump(spans_path)

    per_pass = [tracing.layer_metrics(v, setup_view, probe) for v in views]
    units = tracing.PER_LAYER_UNITS
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units[name] == "count":
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall(clock) for p in traced)
        - statistics.median(p.wall(clock) for p in untraced)
    )
    info = {
        "wrapped_bindings": wrapped,
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "spans": len(tracer.spans),
        "clock": clock_info(clock),
    }
    return {k: (v, units[k]) for k, v in metrics.items()}, info, untraced + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    sys.dont_write_bytecode = True  # leave no bytecode caches in the checkout
    clock = HostClock().start()
    out_dir = root / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        import_library(root)
        workdir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, info, passes = measure_traced(
                args, workdir, clock, out_dir / f"spans-{stem}.json")
        else:
            metrics, info, passes = measure(args, root, workdir, clock)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.stamps) for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **info, "errors": errors[:20], "provenance": provenance(root),
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps({**detail, **result}, indent=1) + "\n")
    for e in errors[:20]:
        print("FAILED", e, file=sys.stderr)
    print(json.dumps({k: v for k, v in detail.items() if k != "latencies_ms"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
