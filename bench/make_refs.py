"""Write bench/refs.json, the pinned references of the benchmark.

    PYTHONPATH=src python3 bench/make_refs.py

It records, from the code it runs against (the seed commit, when the
references were pinned):

- ``verify``: the verdict and the lexicographically first failing set of
  every verify-mixed pool instance;
- ``solve``: the exact index of every solve-families case, solved
  without a node budget;
- ``cli``: the exit code and the SHA-256 of the standard output and of
  every output file of each command-line workflow step.

Run it again only when a workload's instances change on purpose; a
change to the library must never need new references.
``bench/test_bench.py`` cross-checks the pinned values against the
brute-force oracles in ``tests/oracles.py`` and the known family values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402
from rainbowindex import rainbow, solver  # noqa: E402


def main() -> None:
    verify = {}
    for name, g, c, k in workloads.verify_pool():
        v = rainbow.is_k_rainbow(g, c, k)
        verify[name] = {"ok": v.ok, "failing": None if v.failing is None else list(v.failing)}

    solve = {}
    for name, make in workloads.SOLVE_GRAPHS:
        g = make()
        for k in (2, 3):
            solve[f"{name}/{k}"] = solver.rx_exact(g, k).value
            print(name, k, solve[f"{name}/{k}"], file=sys.stderr)

    workdir = Path(".bench_out") / "refs-work"
    workdir.mkdir(parents=True, exist_ok=True)
    cli = {}
    try:
        for name, command in workloads.CLI_COMMANDS:
            argv, outputs = workloads.cli_argv(command, workdir)
            code, stdout, stderr = workloads.run_cli(argv)
            if stderr:
                raise RuntimeError(f"{name} wrote to stderr: {stderr}")
            cli[name] = {
                "exit": code,
                "stdout": workloads.sha256(stdout.encode()),
                "files": {f: workloads.sha256((workdir / f).read_bytes()) for f in outputs},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passed = sum(r["ok"] for r in verify.values())
    print(f"verify pool: {len(verify)} instances, {passed} pass", file=sys.stderr)
    refs = {"verify": verify, "solve": solve, "cli": cli}
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
