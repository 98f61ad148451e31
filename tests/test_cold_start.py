"""numpy stays out of a fresh interpreter until a numpy kernel runs.

Each case runs in its own ``python -c`` subprocess, since this process
has loaded numpy long ago: ``import rainbowindex``, and ``cli.main`` on
the commands that never reach the Steiner pass or the k=3 first-mask
filter, must leave ``numpy`` out of ``sys.modules``; ``sdiam`` and a
passing k=3 verify of the 10x10 grid load it, and keep their outputs.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowindex
from rainbowindex.cli import main

# Imports the package, runs cli.main on argv, if any, and reports on
# stderr whether numpy is loaded.
_RUN = """\
import sys
import rainbowindex
code = 0
if sys.argv[1:]:
    from rainbowindex import cli
    code = cli.main(sys.argv[1:])
print(int("numpy" in sys.modules), code, file=sys.stderr)
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Graph and coloring files, written in this process."""
    d = tmp_path_factory.mktemp("cold")

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0

    cli("gen", "--family", "path", "--n", "4", "-o", str(d / "p4.json"))
    cli("gen", "--family", "path", "--n", "3", "-o", str(d / "p3.json"))
    cli("product", "--kind", "cartesian", "--g", str(d / "p4.json"),
        "--h", str(d / "p3.json"), "-o", str(d / "p4p3.json"))
    cli("solve", "--graph", str(d / "p4p3.json"), "--k", "2",
        "--emit-witness", str(d / "p4p3c2.json"))
    for dims, name in (("3,3", "g3"), ("10,10", "g10")):
        cli("color", "--op", "grid", "--dims", dims, "--out-graph", str(d / f"{name}.json"),
            "--out-coloring", str(d / f"{name}c.json"))
    # the CI step's shifted coloring: edge 0 takes the next color
    c = json.loads((d / "g10c.json").read_text())
    c["colors"][0] = (c["colors"][0] + 1) % c["palette"]
    (d / "g10bad.json").write_text(json.dumps(c))
    return d


def cold_run(cwd: Path, *argv: str) -> tuple[bool, int, str]:
    """(numpy loaded, exit code, stdout) of cli.main(argv) in a fresh
    interpreter; no argv runs only ``import rainbowindex``."""
    src = str(Path(rainbowindex.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, code = proc.stderr.split()[-2:]
    return loaded == "1", int(code), proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("gen", "--family", "cycle", "--n", "5", "-o", "c5.json"),
        ("product", "--kind", "strong", "--g", "p4.json", "--h", "p3.json"),
        ("oracle", "--family", "complete_bipartite", "--s", "2", "--t", "9"),
        ("solve", "--graph", "p4p3.json", "--k", "2"),
        ("verify", "--graph", "p4p3.json", "--coloring", "p4p3c2.json", "--k", "2"),
        ("verify", "--graph", "g10.json", "--coloring", "g10c.json", "--k", "2"),
        # 9 vertices: too few triples for the first-mask filter
        ("verify", "--graph", "g3.json", "--coloring", "g3c.json", "--k", "3"),
    ],
    ids=["import", "gen", "product", "oracle", "solve-k2", "verify-k2", "verify-k2-grid",
         "verify-k3-n9"],
)
def test_commands_without_numpy(inputs, argv):
    loaded, code, _ = cold_run(inputs, *argv)
    assert code == 0
    assert not loaded


def test_sdiam_loads_numpy(inputs):
    loaded, code, out = cold_run(inputs, "sdiam", "--graph", "p4p3.json")
    assert (code, json.loads(out)) == (0, {"sdiam3": 5})
    assert loaded


@pytest.mark.parametrize(
    "coloring, want_code, want, filtered",
    [
        ("g10c.json", 0, {"failing": None, "ok": True}, True),
        # fails among the triples {0, 1, c}, which the scan tries before
        # it builds the first-mask filter
        ("g10bad.json", 2, {"failing": [0, 1, 20], "ok": False}, False),
    ],
)
def test_k3_verify_of_the_grid(inputs, coloring, want_code, want, filtered):
    loaded, code, out = cold_run(
        inputs, "verify", "--graph", "g10.json", "--coloring", coloring, "--k", "3"
    )
    assert (code, json.loads(out)) == (want_code, want)
    assert loaded == filtered
