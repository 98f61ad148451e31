import concurrent.futures
import json

import pytest

from rainbowindex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_and_round_trip(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--family", "cycle", "--n", "5", "-o", str(out))
    assert code == 0
    obj = read(out)
    assert obj["n"] == 5 and len(obj["edges"]) == 5
    # file edge order defines indices: regen is byte-identical
    out2 = tmp_path / "g2.json"
    run(capsys, "gen", "--family", "cycle", "--n", "5", "-o", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_full_grid_workflow(tmp_path, capsys):
    p4, p3 = tmp_path / "p4.json", tmp_path / "p3.json"
    run(capsys, "gen", "--family", "path", "--n", "4", "-o", str(p4))
    run(capsys, "gen", "--family", "path", "--n", "3", "-o", str(p3))

    prod = tmp_path / "prod.json"
    code, _, _ = run(
        capsys, "product", "--kind", "cartesian", "--g", str(p4), "--h", str(p3),
        "-o", str(prod),
    )
    assert code == 0
    assert len(read(prod)["edges"]) == 17

    c4, c3 = tmp_path / "c4.json", tmp_path / "c3.json"
    code, out, _ = run(
        capsys, "solve", "--graph", str(p4), "--k", "3", "--emit-witness", str(c4)
    )
    assert code == 0 and json.loads(out)["value"] == 3
    run(capsys, "solve", "--graph", str(p3), "--k", "3", "--emit-witness", str(c3))

    gridg = tmp_path / "grid.json"
    gridc = tmp_path / "gridc.json"
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "color", "--op", "cartesian",
        "--g", str(p4), "--h", str(p3), "--cg", str(c4), "--ch", str(c3),
        "--out-graph", str(gridg), "--out-coloring", str(gridc),
        "--out-report", str(report),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["colors_used"] == 5
    assert read(report) == rep

    code, out, _ = run(
        capsys, "verify", "--graph", str(gridg), "--coloring", str(gridc), "--k", "3"
    )
    assert code == 0 and json.loads(out)["ok"]


def test_verify_failing_exits_2(tmp_path, capsys):
    g = tmp_path / "p5.json"
    c = tmp_path / "c.json"
    run(capsys, "gen", "--family", "path", "--n", "5", "-o", str(g))
    c.write_text(json.dumps({"palette": 3, "colors": [0, 1, 2, 0]}))
    code, out, _ = run(capsys, "verify", "--graph", str(g), "--coloring", str(c), "--k", "3")
    assert code == 2
    verdict = json.loads(out)
    assert not verdict["ok"]
    assert verdict["failing"] is not None and len(verdict["failing"]) == 3


def test_verify_jobs_match(tmp_path, capsys, monkeypatch):
    # --jobs is accepted and ignored: no process pool is started, even on
    # C10's 120 triples
    def no_pool(*args, **kwargs):
        raise AssertionError("verify started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    g = tmp_path / "g.json"
    run(capsys, "gen", "--family", "cycle", "--n", "10", "-o", str(g))
    for colors in ([0, 1, 2, 3, 4, 0, 1, 2, 3, 4], [0, 1] * 5):
        c = tmp_path / "c.json"
        c.write_text(json.dumps({"palette": 5, "colors": colors}))
        code1, out1, _ = run(capsys, "verify", "--graph", str(g), "--coloring", str(c))
        code4, out4, _ = run(
            capsys, "verify", "--graph", str(g), "--coloring", str(c), "--jobs", "4"
        )
        assert (code4, out4) == (code1, out1)


def test_solve_budget_exit_3(tmp_path, capsys):
    g = tmp_path / "c6.json"
    run(capsys, "gen", "--family", "cycle", "--n", "6", "-o", str(g))
    code, out, _ = run(capsys, "solve", "--graph", str(g), "--budget", "3")
    assert code == 3
    obj = json.loads(out)
    assert obj["exact"] is False and obj["value"] is None
    assert obj["lower"] <= obj["upper"]
    # a zero budget explores nothing and says so
    code, out, _ = run(capsys, "solve", "--graph", str(g), "--budget", "0")
    assert code == 3
    assert json.loads(out)["nodes_explored"] == 0


def test_solve_rx2(tmp_path, capsys):
    g = tmp_path / "p4.json"
    run(capsys, "gen", "--family", "path", "--n", "4", "-o", str(g))
    code, out, _ = run(capsys, "solve", "--graph", str(g), "--k", "2")
    assert code == 0 and json.loads(out)["value"] == 3


def test_input_errors_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0, 0]]}')
    code, _, err = run(capsys, "verify", "--graph", str(bad), "--coloring", str(bad))
    assert code == 4
    assert "error" in json.loads(err.strip().splitlines()[-1])

    code, _, _ = run(capsys, "gen", "--family", "cycle", "--n", "2", "-o", str(tmp_path / "x.json"))
    assert code == 4

    code, _, _ = run(capsys, "solve", "--graph", str(tmp_path / "missing.json"))
    assert code == 4

    p4 = tmp_path / "p4.json"
    run(capsys, "gen", "--family", "path", "--n", "4", "-o", str(p4))
    code, out, err = run(capsys, "solve", "--graph", str(p4), "--budget", "-5")
    assert code == 4 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"

    code, _, err = run(capsys, "gen", "--family", "moebius", "--n", "4")
    assert code == 4
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ArgumentError"

    code, _, err = run(capsys, "color", "--op", "cartesian")
    assert code == 4
    assert "--cg" in json.loads(err.strip().splitlines()[-1])["detail"]


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--graph", '{"n": 3, "edges": "01"}'),
        ("--graph", '{"n": 3, "edges": [[0, true], [1, 2]]}'),
        ("--graph", '{"n": 3, "edges": [[0, 1], [1.7, 2]]}'),
        ("--graph", '{"n": 3, "edges": [["0", 1], [1, 2]]}'),
        ("--graph", '{"n": 3, "edges": [[0, 1, 2], [1, 2]]}'),
        ("--graph", '{"n": 3.0, "edges": [[0, 1], [1, 2]]}'),
        pytest.param("--graph", "[" * 100_000 + "]" * 100_000, id="--graph-deeply-nested"),
        ("--coloring", '{"palette": 2.9, "colors": [0, 1]}'),
        ("--coloring", '{"palette": "2", "colors": [0, 1]}'),
        ("--coloring", '{"palette": 2, "colors": "01"}'),
        ("--coloring", '{"palette": 2, "colors": ["0", "1"]}'),
    ],
)
def test_malformed_json_exits_4(tmp_path, capsys, flag, text):
    g, c = tmp_path / "g.json", tmp_path / "c.json"
    g.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    c.write_text('{"palette": 2, "colors": [0, 1]}')
    (g if flag == "--graph" else c).write_text(text)
    code, _, err = run(capsys, "verify", "--graph", str(g), "--coloring", str(c))
    assert code == 4
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"
    if flag == "--graph":
        code, _, err = run(capsys, "sdiam", "--graph", str(g))
        assert code == 4 and "Traceback" not in err


def test_verify_palette_over_32(tmp_path, capsys):
    g, c = tmp_path / "p40.json", tmp_path / "c.json"
    run(capsys, "gen", "--family", "path", "--n", "40", "-o", str(g))
    c.write_text(json.dumps({"palette": 39, "colors": list(range(39))}))
    code, out, _ = run(capsys, "verify", "--graph", str(g), "--coloring", str(c))
    assert code == 0 and json.loads(out)["ok"]


def test_color_split_and_subdiv(tmp_path, capsys):
    g = tmp_path / "c4.json"
    w = tmp_path / "w.json"
    run(capsys, "gen", "--family", "cycle", "--n", "4", "-o", str(g))
    run(capsys, "solve", "--graph", str(g), "--emit-witness", str(w))
    code, out, _ = run(
        capsys, "color", "--op", "split", "--g", str(g), "--cg", str(w),
        "--vertex", "1", "--n1", "0", "--n2", "2",
    )
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(
        capsys, "color", "--op", "subdiv", "--g", str(g), "--cg", str(w), "--edge", "0"
    )
    assert code == 0 and json.loads(out)["colors_used"] == 3


def test_color_grid_and_join(tmp_path, capsys):
    code, out, _ = run(capsys, "color", "--op", "grid", "--dims", "3,3")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["colors_used"] == 4

    k1, p4, cw = tmp_path / "k1.json", tmp_path / "p4.json", tmp_path / "cw.json"
    run(capsys, "gen", "--family", "path", "--n", "1", "-o", str(k1))
    run(capsys, "gen", "--family", "path", "--n", "4", "-o", str(p4))
    run(capsys, "solve", "--graph", str(p4), "--emit-witness", str(cw))
    code, out, _ = run(
        capsys, "color", "--op", "join", "--g", str(k1), "--h", str(p4), "--ch", str(cw)
    )
    assert code == 0 and json.loads(out)["colors_used"] == 4


def test_color_lex_auto_dispatch(tmp_path, capsys):
    p3, k2, cg = tmp_path / "p3.json", tmp_path / "k2.json", tmp_path / "cg.json"
    run(capsys, "gen", "--family", "path", "--n", "3", "-o", str(p3))
    run(capsys, "gen", "--family", "path", "--n", "2", "-o", str(k2))
    run(capsys, "solve", "--graph", str(p3), "--emit-witness", str(cg))
    code, out, _ = run(
        capsys, "color", "--op", "lex", "--g", str(p3), "--h", str(k2), "--cg", str(cg)
    )
    assert code == 0 and json.loads(out)["colors_used"] == 3
    # three-vertex right operand requires the rainbow-connected coloring
    code, _, err = run(
        capsys, "color", "--op", "lex", "--g", str(p3), "--h", str(p3), "--cg", str(cg)
    )
    assert code == 4 and "ch-rc" in json.loads(err.strip().splitlines()[-1])["detail"]


def test_sdiam_records(tmp_path, capsys):
    g = tmp_path / "c7.json"
    run(capsys, "gen", "--family", "cycle", "--n", "7", "-o", str(g))
    code, out, _ = run(capsys, "sdiam", "--graph", str(g), "--triples")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines if line.startswith('{"')]
    triples = [r for r in records if "triple" in r]
    assert len(triples) == 35  # C(7,3)
    assert triples[0] == {"d": 2, "triple": [0, 1, 2]}
    assert json.loads("".join(lines[len(triples):]))["sdiam3"] == 4


def test_sdiam_records_disconnected_exits_4(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
    code, out, err = run(capsys, "sdiam", "--graph", str(g), "--triples")
    assert code == 4 and out == ""
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"


def test_oracle_command(capsys):
    code, out, _ = run(
        capsys, "oracle", "--family", "complete_bipartite", "--s", "2", "--t", "9"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 5 and obj["tag"] == "bipartite-two-left"
    code, out, _ = run(capsys, "oracle", "--family", "path", "--n", "2")
    assert code == 0 and json.loads(out)["oracle"] is None


def test_dot_outputs(tmp_path, capsys):
    g, d = tmp_path / "g.json", tmp_path / "g.dot"
    run(capsys, "gen", "--family", "path", "--n", "4", "-o", str(g), "--dot", str(d))
    assert "--" in d.read_text()
    p = tmp_path / "prod.dot"
    run(
        capsys, "product", "--kind", "cartesian", "--g", str(g), "--h", str(g),
        "-o", str(tmp_path / "prod.json"), "--dot", str(p),
    )
    assert 'label="(0,0)"' in p.read_text()


def test_manifest(tmp_path, capsys):
    g = tmp_path / "g.json"
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run(capsys, "gen", "--family", "path", "--n", "4", "-o", str(g))
    run(capsys, "sdiam", "--graph", str(g), "--manifest", str(m1))
    run(capsys, "sdiam", "--graph", str(g), "--manifest", str(m2))
    a, b = read(m1), read(m2)
    assert a["inputs"] == b["inputs"]  # digests stable across reruns
    assert a["command"] == "sdiam"
    assert set(a) == {"command", "inputs", "parameters", "outputs", "wall_time_s"}


def test_deterministic_outputs(tmp_path, capsys):
    g, w = tmp_path / "g.json", tmp_path / "w.json"
    run(capsys, "gen", "--family", "cycle", "--n", "5", "-o", str(g))
    run(capsys, "solve", "--graph", str(g), "--emit-witness", str(w))
    first = w.read_bytes()
    run(capsys, "solve", "--graph", str(g), "--emit-witness", str(w))
    assert w.read_bytes() == first
