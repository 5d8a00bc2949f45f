"""Command-line behavior: outputs, determinism, and exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from graphwalk import (
    OracleSpec,
    complete_graph,
    greedy_coloring,
    guaranteed_search,
    polarity_from_coloring,
    search,
    star_graph,
    to_edge_list,
)
from graphwalk.cli import main


@pytest.fixture
def tri(tmp_path):
    f = tmp_path / "triangle.txt"
    f.write_text("0 1\n1 2\n0 2\n")
    return str(f)


@pytest.fixture
def path3(tmp_path):
    f = tmp_path / "path3.txt"
    f.write_text("0 1\n1 2\n")
    return str(f)


@pytest.fixture
def single_edge(tmp_path):
    f = tmp_path / "k2.txt"
    f.write_text("0 1\n")
    return str(f)


@pytest.fixture
def star16(tmp_path):
    f = tmp_path / "star16.txt"
    f.write_text(to_edge_list(star_graph(16)))
    return str(f)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_search_single_edge_always_succeeds(single_edge, capsys):
    code = main(
        ["search", "--graph", single_edge, "--mark-edge", "0", "1",
         "--steps", "0", "--guaranteed"]
    )
    assert code == 0
    doc = read_json(capsys)
    assert doc["edge_index"] == 0
    assert doc["edge"] == [0, 1]
    assert doc["calls"] == 1
    assert doc["is_marked"] is True
    assert doc["node"] is None


def test_search_star16_guaranteed(star16, capsys):
    code = main(
        ["search", "--graph", star16, "--mark-edge", "0", "3",
         "--steps", "4", "--seed", "7", "--guaranteed"]
    )
    assert code == 0
    doc = read_json(capsys)
    assert doc["is_marked"] is True
    assert doc["edge"] == [0, 3]
    assert doc["calls"] >= 1
    assert doc["marked_edges"] == [2]


def test_search_marked_node_reports_node(tri, capsys):
    code = main(
        ["search", "--graph", tri, "--mark-node", "1",
         "--steps", "2", "--guaranteed"]
    )
    assert code == 0
    doc = read_json(capsys)
    assert doc["is_marked"] is True
    assert doc["node"] == 1
    assert doc["marked_node"] == 1
    assert doc["edge"] == [1, 4]  # pendant edge to node 1's virtual twin


def test_search_multi_trial_frequency(star16, capsys):
    code = main(
        ["search", "--graph", star16, "--mark-edge", "0", "1",
         "--steps", "4", "--trials", "20", "--seed", "1"]
    )
    assert code == 0
    doc = read_json(capsys)
    assert len(doc["results"]) == 20
    assert [r["trial"] for r in doc["results"]] == list(range(20))
    hits = sum(r["is_marked"] for r in doc["results"])
    assert doc["marked_frequency"] == pytest.approx(hits / 20)
    assert doc["marked_frequency"] >= 0.8  # peak probability is 0.978


def test_search_deterministic_output(star16, tmp_path):
    args = ["search", "--graph", star16, "--mark-edge", "0", "1",
            "--steps", "4", "--trials", "3", "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_rejects_jobs(star16, capsys):
    # Trials share one evolution; there is no worker pool to size.
    code = main(["search", "--graph", star16, "--mark-edge", "0", "1",
                 "--steps", "4", "--trials", "4", "--seed", "3", "--jobs", "2"])
    assert code == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("guaranteed", [False, True])
def test_search_trials_equal_seeded_library_calls(star16, capsys, guaranteed):
    # Trials share one evolution, but each draws with its own child seed,
    # exactly as independent library searches would.
    argv = ["search", "--graph", star16, "--mark-edge", "0", "1",
            "--steps", "1", "--trials", "5", "--seed", "11"]
    assert main(argv + ["--guaranteed"] * guaranteed) == 0
    results = read_json(capsys)["results"]
    g = star_graph(16)
    p = polarity_from_coloring(g, greedy_coloring(g))
    oracle = OracleSpec(marked=frozenset({0}))
    seqs = np.random.SeedSequence(11).spawn(5)
    assert len(results) == len(seqs)
    for r, seq in zip(results, seqs):
        rng = np.random.default_rng(seq)
        if guaranteed:
            assert (r["edge_index"], r["calls"]) == guaranteed_search(g, p, oracle, 1, rng)
        else:
            assert r["edge_index"] == search(g, p, oracle, 1, rng)


def test_search_call_cap_exit_code(star16, capsys):
    # With seed 0 the first draw of the unevolved walk lands off the marked
    # edge, so a cap of one oracle call trips deterministically.
    code = main(
        ["search", "--graph", star16, "--mark-edge", "0", "1", "--steps", "0",
         "--seed", "0", "--guaranteed", "--max-calls", "1"]
    )
    assert code == 3
    assert "after 1 oracle calls" in capsys.readouterr().err


def test_sweep_csv_output(path3, capsys):
    code = main(["sweep", "--graph", path3, "--mark-edge", "0", "1", "--t-max", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,p_marked"
    assert len(lines) == 5
    assert lines[1].startswith("0,0.5")


def test_sweep_unmarked_zero_column(path3, capsys):
    code = main(["sweep", "--graph", path3, "--t-max", "4"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_sweep_star64_peak(tmp_path):
    f = tmp_path / "star64.txt"
    f.write_text(to_edge_list(star_graph(64)))
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--graph", str(f), "--mark-edge", "0", "1",
         "--t-max", "12", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["t_star"] == 8
    assert doc["p_star"] == pytest.approx(0.98919, abs=1e-4)
    assert doc["marked_node"] is None
    assert len(doc["p_t"]) == 13


def test_sweep_marked_node_complete16(tmp_path):
    f = tmp_path / "k16.txt"
    f.write_text(to_edge_list(complete_graph(16)))
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--graph", str(f), "--mark-node", "0",
         "--t-max", "19", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["t_star"] == 12
    assert doc["p_star"] == pytest.approx(0.8859, abs=1e-4)
    assert doc["marked_node"] == 0
    assert doc["n_edges"] == 136  # 120 real + 16 pendant


def test_sweep_csv_file_output(path3, tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["sweep", "--graph", path3, "--mark-edge", "1", "2",
         "--t-max", "2", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "t,p_marked"


def test_analyze_star_100(capsys):
    assert main(["analyze-star", "100"]) == 0
    doc = read_json(capsys)
    assert doc["leaves"] == 100
    assert doc["t_opt"] == pytest.approx(11.0979, abs=1e-3)
    assert doc["p_asymptotic"] == pytest.approx(1.0, abs=0.02)
    assert len(doc["eigenvalues"]) == 3
    assert doc["eigenvalues"][0] == [-1.0, 0.0]


def test_analyze_star_2_closed_form(capsys):
    assert main(["analyze-star", "2"]) == 0
    doc = read_json(capsys)
    assert doc["lambda"] == pytest.approx(math.pi / 3)
    re, im = doc["eigenvalues"][1]
    assert complex(re, im) == pytest.approx((1 + 1j * math.sqrt(3)) / 2)


def test_analyze_star_rejects_tiny(capsys):
    assert main(["analyze-star", "1"]) == 1
    assert "at least 2 leaves" in capsys.readouterr().err


def test_analyze_complete_8(capsys):
    assert main(["analyze-complete", "8"]) == 0
    doc = read_json(capsys)
    assert doc["predicted_T"] == pytest.approx(2 * math.pi)
    assert doc["t_star"] == 7
    assert doc["p_star"] == pytest.approx(0.8271, abs=1e-3)
    assert doc["peak_relative_error"] < 0.25


def test_compile_single_edge(single_edge, tmp_path, capsys):
    audit_out = tmp_path / "audit.json"
    code = main(
        ["compile", "--graph", single_edge, "--mark-edge", "0", "1",
         "--audit-out", str(audit_out)]
    )
    assert code == 0
    doc = read_json(capsys)
    assert set(doc) == {"layout", "instructions", "phases"}
    assert doc["layout"] == {"facing": [[1], [0]]}
    gates = [ins["gate"] for ins in doc["instructions"]]
    assert gates[:3] == ["z", "z", "swap"]
    audit = json.loads(audit_out.read_text())
    assert audit["ok"] is True
    assert audit["violations"] == []
    assert len(audit["nodes"]) == 2


def test_compile_deterministic_bytes(tri, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compile", "--graph", tri, "--mark-edge", "0", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_compiled_step(path3, capsys):
    code = main(["verify", "--graph", path3, "--mark-edge", "0", "1"])
    assert code == 0
    doc = read_json(capsys)
    assert doc["ok"] is True
    assert doc["max_deviation"] < 1e-10
    assert doc["max_leakage"] < 1e-10


def test_verify_tampered_circuit_exits_4(path3, tmp_path, capsys):
    circ_file = tmp_path / "circuit.json"
    assert main(
        ["compile", "--graph", path3, "--mark-edge", "0", "1",
         "--out", str(circ_file)]
    ) == 0
    doc = json.loads(circ_file.read_text())
    doc["instructions"].append(
        {"gate": "x", "controls": [], "targets": [0],
         "locus": {"kind": "edge", "id": 0}}
    )
    doc["phases"][-1]["stop"] += 1  # the stray gate ends the last phase
    circ_file.write_text(json.dumps(doc))
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1",
         "--circuit", str(circ_file)]
    )
    assert code == 4
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_verify_warning_names_worst_column(path3, tmp_path, capsys, caplog):
    circ_file = tmp_path / "circuit.json"
    assert main(
        ["compile", "--graph", path3, "--mark-edge", "0", "1",
         "--out", str(circ_file)]
    ) == 0
    doc = json.loads(circ_file.read_text())
    doc["instructions"].append(
        {"gate": "z", "controls": [], "targets": [3],  # edge 1's - pole
         "locus": {"kind": "edge", "id": 1}}
    )
    doc["phases"][-1]["stop"] += 1  # the stray gate ends the last phase
    circ_file.write_text(json.dumps(doc))
    with caplog.at_level("WARNING", logger="graphwalk"):
        code = main(
            ["verify", "--graph", path3, "--mark-edge", "0", "1",
             "--circuit", str(circ_file)]
        )
    assert code == 4
    worst = json.loads(capsys.readouterr().out)["worst_column"]
    assert f"worst at edge {worst['edge']} pole {worst['pole']}" in caplog.text
    assert worst != {"edge": 0, "pole": 0}


def test_verify_non_unitary_circuit_exits_1(path3, tmp_path, capsys):
    circ_file = tmp_path / "circuit.json"
    assert main(
        ["compile", "--graph", path3, "--mark-edge", "0", "1",
         "--out", str(circ_file)]
    ) == 0
    doc = json.loads(circ_file.read_text())
    doc["instructions"].append(
        {"gate": "ctrl-unitary", "controls": [0], "targets": [1],
         "locus": {"kind": "edge", "id": 0},
         "matrix": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}
    )
    circ_file.write_text(json.dumps(doc))
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1",
         "--circuit", str(circ_file)]
    )
    assert code == 1
    assert "'ctrl-unitary' is not a valid Gate" in capsys.readouterr().err


def test_verify_malformed_circuit_document_exits_1(path3, tmp_path, capsys):
    circ_file = tmp_path / "circuit.json"
    assert main(
        ["compile", "--graph", path3, "--mark-edge", "0", "1",
         "--out", str(circ_file)]
    ) == 0
    doc = json.loads(circ_file.read_text())
    doc["instructions"] = 5
    circ_file.write_text(json.dumps(doc))
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1",
         "--circuit", str(circ_file)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "graphwalk: instructions must be a JSON array\n"


def test_verify_circuit_for_another_edge_count_exits_1(tmp_path, capsys):
    star3 = tmp_path / "star3.txt"
    star3.write_text(to_edge_list(star_graph(3)))
    star4 = tmp_path / "star4.txt"
    star4.write_text(to_edge_list(star_graph(4)))
    circ_file = tmp_path / "circuit.json"
    assert main(
        ["compile", "--graph", str(star4), "--mark-edge", "0", "1",
         "--out", str(circ_file)]
    ) == 0
    capsys.readouterr()
    code = main(
        ["verify", "--graph", str(star3), "--mark-edge", "0", "1",
         "--circuit", str(circ_file)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "graphwalk: circuit has 4 edges, graph has 3\n"


@pytest.mark.parametrize("tolerance, shown", [("nan", "nan"), ("-1", "-1.0")])
def test_verify_rejects_nan_or_negative_tolerance(path3, capsys, tolerance, shown):
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1", "--tolerance", tolerance]
    )
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"graphwalk: tolerance must be nonnegative, got {shown}\n"


def test_verify_enumeration_seed(path3, capsys):
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1",
         "--enumeration-seed", "9"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_json_graph_with_colors(tmp_path, capsys):
    f = tmp_path / "path.json"
    f.write_text(json.dumps({"nodes": 3, "edges": [[0, 1], [1, 2]], "colors": [0, 1, 0]}))
    code = main(
        ["sweep", "--graph", str(f), "--format", "json",
         "--mark-edge", "0", "1", "--t-max", "2"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "t,p_marked"


def test_improper_colors_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]], "colors": [1, 1]}))
    code = main(
        ["sweep", "--graph", str(f), "--format", "json",
         "--mark-edge", "0", "1", "--t-max", "1"]
    )
    assert code == 2
    assert "color" in capsys.readouterr().err


def test_usage_error_returns_1(single_edge, capsys):
    assert main(["search", "--graph", single_edge, "--steps", "1"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert "graphwalk" in capsys.readouterr().out


def test_both_marks_rejected(single_edge, capsys):
    code = main(
        ["search", "--graph", single_edge, "--mark-edge", "0", "1",
         "--mark-node", "0", "--steps", "1"]
    )
    assert code == 1
    assert "not allowed" in capsys.readouterr().err


def test_missing_graph_file_returns_1(capsys):
    code = main(
        ["search", "--graph", "/no/such/file", "--mark-edge", "0", "1",
         "--steps", "1"]
    )
    assert code == 1
    assert "cannot read graph file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--graph", "{graph}", "--t-max", "2", "--out", "{out}"],
        ["sweep", "--graph", "{graph}", "--t-max", "2", "--out", "{out}.json"],
        ["search", "--graph", "{graph}", "--mark-edge", "0", "1", "--steps", "1",
         "--out", "{out}"],
        ["compile", "--graph", "{graph}", "--out", "{out}"],
        ["compile", "--graph", "{graph}", "--audit-out", "{out}"],
        ["verify", "--graph", "{graph}", "--out", "{out}"],
        ["analyze-star", "4", "--out", "{out}"],
        ["analyze-complete", "4", "--out", "{out}"],
    ],
    ids=["sweep-csv", "sweep-json", "search", "compile", "compile-audit", "verify",
         "analyze-star", "analyze-complete"],
)
def test_unwritable_output_returns_1(path3, tmp_path, capsys, args):
    out = tmp_path / "missing" / "result"
    code = main([a.format(graph=path3, out=out) for a in args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("graphwalk: cannot write output file: [Errno 2] ")
    assert str(out) in err
    assert not out.parent.exists()


def test_disconnected_graph_returns_2(tmp_path, capsys):
    f = tmp_path / "broken.txt"
    f.write_text("0 1\n2 3\n")
    code = main(["sweep", "--graph", str(f), "--t-max", "1"])
    assert code == 2
    assert "connected" in capsys.readouterr().err


def test_unknown_edge_returns_2(path3, capsys):
    code = main(
        ["search", "--graph", path3, "--mark-edge", "0", "2", "--steps", "1"]
    )
    assert code == 2
    assert "no edge" in capsys.readouterr().err


def test_marked_node_out_of_range_returns_2(path3, capsys):
    code = main(
        ["search", "--graph", path3, "--mark-node", "9", "--steps", "1"]
    )
    assert code == 2


def test_negative_steps_returns_1(single_edge, capsys):
    code = main(
        ["search", "--graph", single_edge, "--mark-edge", "0", "1",
         "--steps", "-3"]
    )
    assert code == 1
    assert "nonnegative" in capsys.readouterr().err


def test_logging_enabled_by_env(caplog, path3):
    with caplog.at_level("INFO", logger="graphwalk"):
        assert main(["sweep", "--graph", path3, "--t-max", "1"]) == 0
    assert "parsed graph: 3 nodes, 2 edges" in caplog.text


def test_console_entry_point_and_log_env(path3):
    env = dict(os.environ, GRAPHWALK_LOG="info")
    proc = subprocess.run(
        [sys.executable, "-m", "graphwalk.cli", "sweep", "--graph", path3,
         "--mark-edge", "0", "1", "--t-max", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "t,p_marked"
    assert "parsed graph" in proc.stderr
