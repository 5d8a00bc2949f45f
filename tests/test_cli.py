"""Command-line behavior: outputs, determinism, and exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graphwalk import (
    OracleSpec,
    PolarityMap,
    SimulationError,
    compile_step,
    complete_graph,
    greedy_coloring,
    guaranteed_search,
    polarity_from_coloring,
    random_connected_graph,
    search,
    star_graph,
    starify,
    sweep,
    to_edge_list,
    verify_circuit_equivalence,
)
from graphwalk import cli, simulator, spectral
from graphwalk.cli import main
from graphwalk.compiler import AuditReport


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


# sha256 of `search --mark-node 7 --steps 1 --trials 24 --seed 3` output on
# a starified random graph (marked mass about 0.003, so a guaranteed trial
# takes hundreds of draws), recorded while each draw searched the whole
# cumulative distribution; a cap of 20 calls misses and prints nothing.
_SEARCH_SHA256 = {
    "guaranteed": "c94f82e7edb8a86e86b457e38dab636f749fa8c29858335466229b2bbd55bf8e",
    "single-draw": "3711a29852156eb6e4410abac84e87e3386b5da5742b067beb5351698f2cc8a9",
    "cap-20": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}
_SEARCH_FLAGS = {
    "guaranteed": (["--guaranteed"], 0),
    "single-draw": ([], 0),
    "cap-20": (["--guaranteed", "--max-calls", "20"], 3),
}


@pytest.mark.parametrize("case", list(_SEARCH_SHA256))
def test_search_output_bytes_are_pinned(case, tmp_path, capsys):
    graph = tmp_path / "random.txt"
    graph.write_text(to_edge_list(random_connected_graph(300, 600, seed=1)))
    flags, want = _SEARCH_FLAGS[case]
    code = main(["search", "--graph", str(graph), "--mark-node", "7", "--steps", "1",
                 "--trials", "24", "--seed", "3", *flags])
    out, err = capsys.readouterr()
    assert code == want
    assert hashlib.sha256(out.encode()).hexdigest() == _SEARCH_SHA256[case]
    if want == 3:
        assert err == "graphwalk: no marked edge found after 20 oracle calls\n"


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
    assert capsys.readouterr().err == "graphwalk: star reduction needs at least 2 leaves, got m=1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze-star"], "star reduction needs m <= 2**1022 leaves, got m >= 2**1332"),
        (["analyze-complete"], "complete-graph analysis needs n <= 2**31, got n >= 2**1332"),
        (["analyze-complete", "--t-max", "3"],
         "complete-graph analysis needs n <= 2**31, got n >= 2**1332"),
    ],
    ids=["analyze-star", "analyze-complete", "analyze-complete-t-max"],
)
def test_analysis_of_a_huge_count_returns_1(capsys, argv, message):
    assert main([*argv, "9" * 401]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"graphwalk: {message}\n"


def test_analysis_takes_counts_up_to_its_bounds(capsys):
    assert main(["analyze-star", str(2**1022)]) == 0
    assert json.loads(capsys.readouterr().out)["leaves"] == 2**1022
    assert main(["analyze-star", str(2**1022 + 1)]) == 1
    assert capsys.readouterr().err == (
        "graphwalk: star reduction needs m <= 2**1022 leaves, got m >= 2**1022\n"
    )
    assert main(["analyze-complete", str(2**31 + 1), "--t-max", "3"]) == 1
    assert capsys.readouterr().err == (
        "graphwalk: complete-graph analysis needs n <= 2**31, got n >= 2**31\n"
    )


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
    assert set(doc) == {"layout", "instructions"}
    assert doc["layout"] == {"facing": [[1], [0]]}
    gates = [ins["gate"] for ins in doc["instructions"]]
    assert gates[:3] == ["z", "z", "swap"]
    audit = json.loads(audit_out.read_text())
    assert audit["ok"] is True
    assert audit["violations"] == []
    assert len(audit["nodes"]) == 2


def test_compile_reports_audit_violations(single_edge, tmp_path, capsys, monkeypatch):
    violation = "instruction 0: z touches qubits [3] outside its edge 0"
    report = AuditReport(nodes=(), violations=(violation,))
    monkeypatch.setattr(cli, "locality_audit", lambda circuit: report)
    out = tmp_path / "circuit.json"
    code = main(["compile", "--graph", single_edge, "--mark-edge", "0", "1", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"graphwalk: {violation}\n"
    assert captured.out == ""
    assert not out.exists()


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
        {"gate": "x", "controls": [], "targets": [doc["layout"]["facing"][-1][0]],
         "locus": {"kind": "node", "id": len(doc["layout"]["facing"]) - 1}}
    )  # the stray gate, on a qubit the last node faces, ends its scatter
    circ_file.write_text(json.dumps(doc))
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1",
         "--circuit", str(circ_file)]
    )
    assert code == 4
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_verify_simulation_error_exits_4(path3, capsys, monkeypatch):
    def broken(cols, circuit):
        raise SimulationError("circuit changed the squared norm by 1.000e+00")

    monkeypatch.setattr(simulator, "_evolve", broken)
    code = main(["verify", "--graph", path3, "--mark-edge", "0", "1"])
    assert code == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "graphwalk: simulation error: circuit changed the squared norm by 1.000e+00\n"
    )


def test_verify_non_local_circuit_exits_1(path3, tmp_path, capsys):
    circ_file = tmp_path / "circuit.json"
    assert main(
        ["compile", "--graph", path3, "--mark-edge", "0", "1",
         "--out", str(circ_file)]
    ) == 0
    doc = json.loads(circ_file.read_text())
    doc["instructions"].append(
        {"gate": "x", "controls": [], "targets": [0],
         "locus": {"kind": "node", "id": 2}}
    )  # node 2 faces qubit 3, not qubit 0
    circ_file.write_text(json.dumps(doc))
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1",
         "--circuit", str(circ_file)]
    )
    assert code == 1
    assert "instruction 6: x touches qubits [0] outside its node 2" in capsys.readouterr().err


# sha256 of `compile --mark-edge 0 1` output, pinned so that any change to
# the document's bytes is deliberate.
_GOLDEN_SHA256 = {
    "0 1\n1 2\n": "743e72cf2f14fd0a62ce4d9f2570e745af1aa7a3ae33de1474c563ecc10b52f4",
    "0 1\n0 2\n0 3\n": "4daf37b20041267d411d63dc279687be00cee7e78d436d92c1bf84f5fbd8e21f",
}


@pytest.mark.parametrize("edges", list(_GOLDEN_SHA256), ids=["path-3", "star-3"])
def test_compile_output_bytes_are_pinned(edges, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(edges)
    out = tmp_path / "circuit.json"
    assert main(["compile", "--graph", str(graph), "--mark-edge", "0", "1",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_SHA256[edges]


def test_verify_warning_names_worst_column(path3, tmp_path, capsys, caplog):
    circ_file = tmp_path / "circuit.json"
    assert main(
        ["compile", "--graph", path3, "--mark-edge", "0", "1",
         "--out", str(circ_file)]
    ) == 0
    doc = json.loads(circ_file.read_text())
    doc["instructions"].append(
        {"gate": "z", "controls": [], "targets": [3],  # edge 1's - pole
         "locus": {"kind": "node", "id": len(doc["layout"]["facing"]) - 1}}
    )  # the stray gate ends the last node's scatter
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


@pytest.mark.parametrize("node", [0, 3])
def test_verify_warning_names_the_node_whose_block_was_altered(node, tmp_path, capsys, caplog):
    # K5: every node has degree 4.  A diffusion over 3 of its 4 slots alters
    # node `node`'s block alone, so every deviating column enters its scatter.
    graph, circ_file = tmp_path / "k5.txt", tmp_path / "circuit.json"
    graph.write_text("".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
    args = ["--graph", str(graph), "--mark-edge", "0", "1"]
    assert main(["compile", *args, "--out", str(circ_file)]) == 0
    doc = json.loads(circ_file.read_text())
    (diffusion,) = [ins for ins in doc["instructions"]
                    if ins["gate"] == "diffusion" and ins["locus"]["id"] == node]
    diffusion["d"] = 3
    circ_file.write_text(json.dumps(doc))
    with caplog.at_level("WARNING", logger="graphwalk"):
        code = main(["verify", *args, "--circuit", str(circ_file)])
    assert code == 4
    worst = json.loads(capsys.readouterr().out)["worst_column"]
    assert caplog.text.rstrip().endswith(
        f"worst at edge {worst['edge']} pole {worst['pole']}, entering node {node}'s scatter"
    )


# sha256 of `verify --out` on path 3 with a stray cnot (which leaks one
# column) and a stray z appended, recorded with the dense comparison that
# the sparse one replaced.
_VERIFY_TAMPERED_SHA256 = "a8e0f75580109eb6ff3a59ff95de9bf4b9f2b9d91da1f76094f1c4d6b3fee547"


def test_verify_tampered_output_bytes_are_pinned(path3, tmp_path):
    circ_file, out = tmp_path / "circuit.json", tmp_path / "report.json"
    assert main(
        ["compile", "--graph", path3, "--mark-edge", "0", "1", "--out", str(circ_file)]
    ) == 0
    doc = json.loads(circ_file.read_text())
    facing = doc["layout"]["facing"]
    doc["instructions"] += [
        {"gate": "cnot", "controls": [facing[1][0]], "targets": [facing[1][1]],
         "locus": {"kind": "node", "id": 1}},
        {"gate": "z", "controls": [], "targets": [facing[2][0]],
         "locus": {"kind": "node", "id": 2}},
    ]
    circ_file.write_text(json.dumps(doc))
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1",
         "--circuit", str(circ_file), "--out", str(out)]
    )
    assert code == 4
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _VERIFY_TAMPERED_SHA256


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


def test_verify_circuit_takes_its_poles_from_the_document(tmp_path, capsys, monkeypatch):
    # K4 compiled under colors that the edge list does not carry: the
    # document names every pole, so it verifies on either file, uncolored.
    g = complete_graph(4)
    colored = tmp_path / "k4.json"
    colored.write_text(json.dumps({"nodes": 4, "edges": g.edges.tolist(), "colors": [3, 2, 1, 0]}))
    plain = tmp_path / "k4.txt"
    plain.write_text(to_edge_list(g))
    circ_file = tmp_path / "circuit.json"
    mark = ["--mark-edge", "0", "1"]
    assert main(["compile", "--graph", str(colored), "--format", "json", *mark,
                 "--out", str(circ_file)]) == 0
    calls = _counted_colorings(monkeypatch)
    for graph in (["--graph", str(colored), "--format", "json"], ["--graph", str(plain)]):
        assert main(["verify", *graph, *mark, "--circuit", str(circ_file)]) == 0
        assert read_json(capsys)["ok"] is True
    assert calls == []


def test_verify_circuit_whose_pole_is_off_the_graph_exits_2(path3, tmp_path, capsys):
    # Both poles of the path's edges sit at node 1, the higher color; the
    # other graph's edge 0 is (0, 2).
    circ_file = tmp_path / "circuit.json"
    assert main(["compile", "--graph", path3, "--out", str(circ_file)]) == 0
    other = tmp_path / "other.txt"
    other.write_text("0 2\n1 2\n")
    code = main(["verify", "--graph", str(other), "--circuit", str(circ_file)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "graphwalk: graph error: polarity of edge 0 points at node 1, not an endpoint of (0, 2)\n"
    )


def test_verify_refuses_a_circuit_with_an_enumeration_seed(path3, tmp_path, capsys):
    circ_file = tmp_path / "circuit.json"
    assert main(["compile", "--graph", path3, "--out", str(circ_file)]) == 0
    code = main(["verify", "--graph", path3, "--circuit", str(circ_file),
                 "--enumeration-seed", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "graphwalk verify: error: argument --enumeration-seed: "
        "not allowed with argument --circuit\n"
    )


@pytest.mark.parametrize(
    "tolerance, shown", [("nan", "nan"), ("-1", "-1.0"), ("inf", "inf")]
)
def test_verify_rejects_nan_or_negative_tolerance(path3, capsys, tolerance, shown):
    code = main(
        ["verify", "--graph", path3, "--mark-edge", "0", "1", "--tolerance", tolerance]
    )
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    rule = "finite" if tolerance == "inf" else "nonnegative"
    assert out.err == f"graphwalk: tolerance must be {rule}, got {shown}\n"


def test_verify_edgeless_graph_exits_1(tmp_path, capsys):
    f = tmp_path / "lonely.json"
    f.write_text(json.dumps({"nodes": 1, "edges": []}))
    assert main(["verify", "--graph", str(f), "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "graphwalk: graph has no edges to walk on\n"


@pytest.mark.parametrize(
    "command, flag",
    [
        (["search", "--mark-edge", "0", "1", "--steps", "1"], "--seed"),
        (["compile"], "--enumeration-seed"),
        (["verify"], "--enumeration-seed"),
    ],
    ids=["search", "compile", "verify"],
)
def test_negative_seed_names_its_flag(path3, capsys, command, flag):
    code = main([command[0], "--graph", path3, *command[1:], flag, "-1"])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"graphwalk: {flag} must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze-complete", "5", "--t-max", "-1"], "--t-max must be nonnegative, got -1"),
        (["search", "--graph", "{graph}", "--mark-edge", "0", "1", "--steps", "1",
          "--guaranteed", "--max-calls", "0"], "--max-calls must be positive, got 0"),
        (["search", "--graph", "{graph}", "--mark-edge", "0", "1", "--steps", "1",
          "--trials", "0"], "--trials must be positive, got 0"),
        (["sweep", "--graph", "{graph}", "--t-max", "-1"], "--t-max must be nonnegative, got -1"),
    ],
    ids=["t-max", "max-calls", "trials", "sweep-t-max"],
)
def test_bad_count_names_its_flag(path3, capsys, argv, message):
    code = main([arg.format(graph=path3) for arg in argv])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"graphwalk: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--t-max", "-1"], "--t-max must be nonnegative, got -1"),
        (["search", "--mark-edge", "0", "1", "--steps", "1", "--trials", "0"],
         "--trials must be positive, got 0"),
        (["compile", "--enumeration-seed", "-1"], "--enumeration-seed must be nonnegative, got -1"),
        (["verify", "--enumeration-seed", "-1"], "--enumeration-seed must be nonnegative, got -1"),
    ],
    ids=["sweep", "search", "compile", "verify"],
)
def test_bad_count_is_reported_before_the_graph_is_read(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing.txt"
    code = main([argv[0], "--graph", str(missing), *argv[1:]])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"graphwalk: {message}\n"


def test_max_calls_is_read_only_with_guaranteed(path3, capsys):
    argv = ["search", "--graph", path3, "--mark-edge", "0", "1", "--steps", "1"]
    assert main([*argv, "--max-calls", "0"]) == 0
    capsys.readouterr()


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


def test_json_graph_colors_are_ignored_in_node_mode(tmp_path, capsys):
    doc = {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    outs = []
    for name, extra in [("plain", {}), ("colored", {"colors": [1, 0, 1, 0]})]:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps({**doc, **extra}))
        code = main(
            ["sweep", "--graph", str(f), "--format", "json",
             "--mark-node", "2", "--t-max", "4"]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_improper_colors_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]], "colors": [1, 1]}))
    code = main(
        ["sweep", "--graph", str(f), "--format", "json",
         "--mark-edge", "0", "1", "--t-max", "1"]
    )
    assert code == 2
    assert "color" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--mark-edge", "0", "1", "--t-max", "1"],
        ["search", "--mark-edge", "0", "1", "--steps", "1"],
    ],
    ids=["sweep", "search"],
)
def test_supplied_colors_are_checked_but_leave_walk_output_alone(tmp_path, capsys, argv):
    doc = {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2]]}  # greedy: 0, 1, 2, 0
    outs = []
    for name, extra in [("plain", {}), ("colored", {"colors": [2, 0, 1, 0]}),
                        ("improper", {"colors": [0, 1, 1, 0]})]:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps({**doc, **extra}))
        code = main([argv[0], "--graph", str(f), "--format", "json", *argv[1:]])
        outs.append((code, *capsys.readouterr()))
    assert outs[0][:2] == outs[1][:2] and outs[0][0] == 0
    assert outs[2] == (2, "", "graphwalk: graph error: improper coloring: edge 1 joins "
                              "nodes 1 and 2 sharing color 1\n")


def _colored(g):
    return polarity_from_coloring(g, greedy_coloring(g))


def _counted_colorings(monkeypatch) -> list:
    """The graphs the CLI colors from now on, in call order."""
    calls = []

    def counted(h):
        calls.append(h)
        return greedy_coloring(h)

    monkeypatch.setattr(cli, "greedy_coloring", counted)
    return calls


def _search_doc(g, star, node, marked, steps, seed, trials, guaranteed) -> str:
    """`search`'s document, built from library calls under the coloring polarity."""
    p, oracle = _colored(g), OracleSpec(marked=frozenset(marked))
    doc = {"command": "search", "graph": {"nodes": g.n, "edges": g.n_edges},
           "marked_edges": sorted(marked), "marked_node": node, "steps": steps,
           "seed": seed, "guaranteed": guaranteed, "trials": trials}
    outcomes = []
    for seq in np.random.SeedSequence(seed).spawn(trials):
        if guaranteed:
            edge, calls = guaranteed_search(g, p, oracle, steps, seq)
        else:
            edge = search(g, p, oracle, steps, seq)
        out = {"edge_index": edge, "edge": g.edges[edge].tolist(), "node": None}
        if star is not None and star.is_virtual_edge(edge):
            out["node"] = edge - star.real_edge_count
        if guaranteed:
            out["calls"] = calls
        out["is_marked"] = edge in marked
        outcomes.append(out)
    if trials == 1:
        doc.update(outcomes[0])
    else:
        doc["results"] = [{**out, "trial": i} for i, out in enumerate(outcomes)]
        doc["marked_frequency"] = sum(out["is_marked"] for out in outcomes) / trials
    return json.dumps(doc, indent=2) + "\n"


def test_walk_commands_do_not_color(tmp_path, capsys, monkeypatch):
    # No walk output depends on the polarity, so every walk command prints
    # what the library prints under the coloring polarity, without coloring.
    g = random_connected_graph(30, 60, seed=2)
    star = starify(g)
    for h in (g, star.graph):
        assert _colored(h) != PolarityMap(h.edges[:, 0])
    f = tmp_path / "graph.txt"
    f.write_text(to_edge_list(g))
    u, v = g.edges[5].tolist()
    edge, virtual = {5}, {star.virtual_edge_of(4)}
    edge_sweep = sweep(g, _colored(g), OracleSpec(marked=frozenset(edge)), 9)
    node_sweep = sweep(star.graph, _colored(star.graph), OracleSpec(marked=frozenset(virtual)), 9)
    k6 = starify(complete_graph(6))
    k6_oracle = OracleSpec(marked=frozenset({k6.virtual_edge_of(0)}))
    report6 = replace(sweep(k6.graph, _colored(k6.graph), k6_oracle, math.ceil(math.pi * 6 / 2)),
                      predicted_t=math.pi * 6 / 4)
    doc6 = report6.to_json_dict()
    doc6["peak_relative_error"] = abs(report6.t_star - report6.predicted_t) / report6.predicted_t
    json_out = tmp_path / "sweep.json"
    mark = ["--graph", str(f), "--mark-edge", str(u), str(v)]
    cases = [
        (["sweep", *mark, "--t-max", "9"], edge_sweep.to_csv()),
        (["sweep", *mark, "--t-max", "9", "--out", str(json_out)],
         json.dumps({**edge_sweep.to_json_dict(), "marked_node": None}, indent=2) + "\n"),
        (["search", *mark, "--steps", "3", "--seed", "4"],
         _search_doc(g, None, None, edge, 3, 4, 1, False)),
        (["search", *mark, "--steps", "3", "--seed", "4", "--trials", "5"],
         _search_doc(g, None, None, edge, 3, 4, 5, False)),
        (["search", *mark, "--steps", "3", "--seed", "4", "--trials", "5", "--guaranteed"],
         _search_doc(g, None, None, edge, 3, 4, 5, True)),
        (["sweep", "--graph", str(f), "--mark-node", "4", "--t-max", "9"], node_sweep.to_csv()),
        (["search", "--graph", str(f), "--mark-node", "4", "--steps", "2", "--seed", "1",
          "--trials", "5", "--guaranteed"],
         _search_doc(star.graph, star, 4, virtual, 2, 1, 5, True)),
        (["analyze-complete", "6"], json.dumps(doc6, indent=2) + "\n"),
    ]

    def refuse(*args):
        raise AssertionError("a walk command colored the graph")

    for module in (cli, spectral):
        for name in ("greedy_coloring", "polarity_from_coloring"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for argv, want in cases:
        assert main(argv) == 0
        got = capsys.readouterr().out
        if "--out" in argv:
            got = json_out.read_text()
        assert got == want, argv


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_circuit_commands_color_once(tmp_path, capsys, monkeypatch, command):
    g = random_connected_graph(8, 12, seed=5)
    f = tmp_path / "graph.txt"
    f.write_text(to_edge_list(g))
    u, v = g.edges[3].tolist()
    p = _colored(g)
    if command == "compile":
        want = compile_step(g, p, [3]).to_json()
    else:
        report = verify_circuit_equivalence(g, p, [3], compile_step(g, p, [3]))
        want = json.dumps(report.to_json_dict(), indent=2) + "\n"
    calls = _counted_colorings(monkeypatch)
    assert main([command, "--graph", str(f), "--mark-edge", str(u), str(v)]) == 0
    assert capsys.readouterr().out == want
    assert len(calls) == 1


def test_usage_error_returns_1(single_edge, capsys):
    assert main(["search", "--graph", single_edge, "--steps", "1"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
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


def test_verify_missing_circuit_file_returns_1(path3, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code = main(["verify", "--graph", path3, "--circuit", str(missing)])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("graphwalk: cannot read circuit file: [Errno 2] ")
    assert str(missing) in out.err


def test_whitespace_only_edge_list_returns_2(tmp_path, capsys):
    f = tmp_path / "blank.txt"
    f.write_text("  \n\t\n")
    code = main(["sweep", "--graph", str(f), "--t-max", "1"])
    assert code == 2
    assert capsys.readouterr().err == "graphwalk: graph error: no edges found\n"


def test_edge_list_node_ids_are_ascii_digits(tmp_path, capsys):
    f = tmp_path / "signed.txt"
    f.write_text("0 1\n1 +2\n2 \u0663\n")
    code = main(["sweep", "--graph", str(f), "--t-max", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "graphwalk: graph error: line 2: non-integer node id in '1 +2'\n"
    )


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
    err = capsys.readouterr().err
    assert err == "graphwalk: graph error: node 9 is not a node of the original graph\n"


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


# A child interpreter does not see pytest's `pythonpath`, so it gets this
# checkout's `src` first on PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
)


def test_console_entry_point_and_log_env(path3):
    env = dict(_CHILD_ENV, GRAPHWALK_LOG="info")
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


def test_debug_log_env_writes_info_to_stderr_only(path3):
    argv = [sys.executable, "-m", "graphwalk.cli", "sweep", "--graph", path3,
            "--mark-edge", "0", "1", "--t-max", "2"]
    env = {k: v for k, v in _CHILD_ENV.items() if k != "GRAPHWALK_LOG"}
    quiet = subprocess.run(argv, capture_output=True, text=True, env=env)
    loud = subprocess.run(
        argv, capture_output=True, text=True, env=dict(env, GRAPHWALK_LOG="debug")
    )
    assert quiet.returncode == loud.returncode == 0
    assert loud.stdout == quiet.stdout
    assert quiet.stderr == ""
    lines = loud.stderr.splitlines()
    assert "INFO graphwalk: parsed graph: 3 nodes, 2 edges" in lines
    assert all(line.startswith("INFO graphwalk: ") for line in lines)
