"""Tests of the benchmark itself, at smoke scale.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_its_checks(name):
    result = run.run(name, seed=3, seconds=0.1, trace=False, scale="smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_run_reports_every_layer_metric(name):
    result = run.run(name, seed=4, seconds=0.1, trace=True, scale="smoke")
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_run_loads_the_modules_it_wraps():
    # A fresh interpreter: circuit-run alone never imports graphwalk.cli.
    code = ("import sys, run; r = run.run('circuit-run', 2, 0.1, True, 'smoke'); "
            "sys.exit(0 if r['correct'] else 1)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _first_op(cls, tmp_path):
    run.load_program()
    bench = cls(tmp_path, "smoke", 5)
    bench.prepare()
    bench.run_op()
    assert all(ok for _, ok, _ in bench.check())
    return bench


def _failed(bench) -> set[str]:
    return {label for label, ok, _ in bench.check() if not ok}


def test_nudged_star_sweep_probability_is_flagged(tmp_path):
    bench = _first_op(workloads.WalkSweep, tmp_path)
    path = bench.outputs[1]
    doc = json.loads(path.read_text())
    doc["p_t"][3] += 1e-6
    path.write_text(json.dumps(doc, indent=2) + "\n")
    failed = _failed(bench)
    assert "star sweep p_t matches the reduced star model" in failed
    assert "star.json bytes match the seed commit" in failed


def test_nudged_random_sweep_probability_is_flagged(tmp_path):
    bench = _first_op(workloads.WalkSweep, tmp_path)
    path = bench.outputs[0]
    lines = path.read_text().splitlines()
    t, p = lines[2].split(",")
    lines[2] = f"{t},{float(p) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")
    assert _failed(bench) == {"random sweep p_t matches the reference walk"}


def test_verify_deviation_is_flagged(tmp_path):
    bench = _first_op(workloads.CircuitVerify, tmp_path)
    doc = json.loads(bench.outputs[0].read_text())
    doc["max_deviation"] = 1e-6
    bench.outputs[0].write_text(json.dumps(doc))
    assert _failed(bench) == {"verify reports ok within 1e-10"}


def test_unmarked_guaranteed_result_is_flagged(tmp_path):
    bench = _first_op(workloads.SearchLasVegas, tmp_path)
    doc = json.loads(bench.outputs[0].read_text())
    doc["results"][0]["edge_index"] -= 1
    bench.outputs[0].write_text(json.dumps(doc))
    assert _failed(bench) == {"every guaranteed result is the marked node"}


def test_inflated_draw_count_is_flagged(tmp_path):
    bench = _first_op(workloads.SearchLasVegas, tmp_path)
    doc = json.loads(bench.outputs[0].read_text())
    for r in doc["results"]:
        r["calls"] *= 100
    bench.outputs[0].write_text(json.dumps(doc))
    assert _failed(bench) == {"draw count agrees with the reference walk within 5 sigma"}


def test_traced_draws_must_equal_the_output(tmp_path):
    bench = _first_op(workloads.SearchLasVegas, tmp_path)
    assert all(ok for _, ok, _ in bench.trace_checks({"walk.draws": float(bench.draws)}))
    assert not any(ok for _, ok, _ in bench.trace_checks({"walk.draws": bench.draws + 1.0}))


def test_reference_walk_matches_the_package():
    from graphwalk import OracleSpec, greedy_coloring, parse_graph, polarity_from_coloring, sweep

    run.load_program()
    edges = inputs.random_connected_edges(30, 70, np.random.default_rng(0))
    g = parse_graph("".join(f"{u} {v}\n" for u, v in edges.tolist()))
    p = polarity_from_coloring(g, greedy_coloring(g))
    want = sweep(g, p, OracleSpec(marked=frozenset({9})), 12).probs
    got = workloads.reference_marked_probs(30, edges, [9], 12)
    assert np.abs(got - np.array(want)).max() < 1e-12


def test_reference_walk_matches_the_package_in_node_mode():
    from graphwalk import OracleSpec, evolve, greedy_coloring, parse_graph, polarity_from_coloring
    from graphwalk import starify
    from graphwalk.walk import edge_probabilities

    run.load_program()
    edges = inputs.random_connected_edges(30, 70, np.random.default_rng(1))
    star = starify(parse_graph("".join(f"{u} {v}\n" for u, v in edges.tolist())))
    g, mark = star.graph, star.virtual_edge_of(11)
    p = polarity_from_coloring(g, greedy_coloring(g))
    want = edge_probabilities(evolve(g, p, OracleSpec(marked=frozenset({mark})), 3))[mark]
    got = workloads.reference_marked_probs(60, workloads.starified_edges(30, edges), [mark], 3)
    assert abs(got[3] - want) < 1e-12


def test_inputs_depend_only_on_the_seed():
    a = inputs.random_connected_edges(50, 120, np.random.default_rng(8))
    b = inputs.random_connected_edges(50, 120, np.random.default_rng(8))
    c = inputs.random_connected_edges(50, 120, np.random.default_rng(9))
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert len({tuple(e) for e in a.tolist()}) == 120
    assert (a[:, 0] < a[:, 1]).all()
    r = inputs.random_regular_edges(20, 4, np.random.default_rng(8))
    assert np.array_equal(r, inputs.random_regular_edges(20, 4, np.random.default_rng(8)))
    assert (np.bincount(r.ravel()) == 4).all() and len({tuple(e) for e in r.tolist()}) == 40


def test_useful_step_ratio_without_steps_is_one():
    from tracer import layer_metrics

    assert layer_metrics({}, {})["walk.useful_step_ratio"] == 1.0
    assert layer_metrics({}, {"steps": 4.0, "distinct_steps": 1.0})["walk.useful_step_ratio"] == 0.25


def test_tracer_restores_the_program():
    run.load_program()
    from graphwalk import cli, walk

    before = (cli.run_sweep, walk.step, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run_sweep is walk.sweep and walk.sweep is not before[0]
    finally:
        tracer.uninstall()
    assert (cli.run_sweep, walk.step, cli.main) == before


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
