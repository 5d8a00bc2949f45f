"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Each test prints its measured numbers so a failure names the
quantity that missed, not just the assertion.  Criterion 1 pins a target
figure that the dynamics provably cannot meet (see the note in it); it is
asserted verbatim and fails honestly rather than being weakened.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from graphwalk import (
    OracleSpec,
    PolarityMap,
    complete_graph,
    complete_graph_report,
    compile_step,
    diagonal_state,
    greedy_coloring,
    guaranteed_search,
    init_walk_superposition,
    locality_audit,
    path_graph,
    polarity_from_coloring,
    random_connected_graph,
    reduced_vs_full,
    run,
    star_graph,
    star_spectrum,
    star_matrix,
    starify,
    step,
    sweep,
    verify_circuit_equivalence,
)

MARK0 = OracleSpec(marked=frozenset({0}))


def coloring_polarity(g):
    return polarity_from_coloring(g, greedy_coloring(g))


def hub_polarity(m):
    return PolarityMap((0,) * m)


def test_criterion_1_star_hitting_time():
    # Asymptotic hitting time pi/(2 sqrt(2)) * sqrt(M): 8.886 at M=64,
    # 17.77 at M=256.  The demanded M=64 peak position of 17.77 is the
    # M=256 value; the M=64 sweep peaks at t=8 (p=0.989) and t=26
    # (p=0.990), and probability at t=18 is below 0.01, so the +-2 window
    # around 17.77 is empty.  The final assertion states the criterion
    # verbatim and is expected to fail; everything before it passes.
    t0 = time.perf_counter()
    rep64 = sweep(star_graph(64), hub_polarity(64), MARK0, 40)
    rep256 = sweep(star_graph(256), hub_polarity(256), MARK0, 40)
    elapsed = time.perf_counter() - t0
    asymptote = math.pi / (2 * math.sqrt(2)) * 16  # 17.77 at M=256
    rel_err = abs(rep256.t_star - asymptote) / asymptote
    print(f"M=64: T*={rep64.t_star} P*={rep64.p_star:.5f}")
    print(f"M=256: T*={rep256.t_star} P*={rep256.p_star:.5f} rel_err={rel_err:.4f}")
    print(f"runtime: {elapsed:.2f}s")
    assert rep64.p_star >= 0.9
    assert rel_err < 0.05
    assert rep256.p_star >= 0.95
    assert elapsed < 5.0
    assert abs(rep64.t_star - 17.77) <= 2, (
        f"T*={rep64.t_star} is not within 2 steps of 17.77: the sweep's "
        f"probability at t=18 is {rep64.probs[18]:.4f}, and 17.77 is the "
        f"M=256 asymptote (the M=64 asymptote is 8.886)"
    )


def test_criterion_2_eigenvalue_consistency():
    for m in (2, 10, 100, 10_000):
        spectrum = star_spectrum(m)
        predicted = (m - 1 + 1j * math.sqrt(2 * m - 1)) / m
        expected = sorted(
            [-1.0 + 0j, predicted, predicted.conjugate()],
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(
            np.linalg.eigvals(star_matrix(m)), key=lambda z: (z.real, z.imag)
        )
        worst = max(abs(a - b) for a, b in zip(got, expected))
        drift = abs(abs(cmath.exp(1j * spectrum.lam)) - 1)
        print(f"M={m}: eigenvalue gap {worst:.2e}, |e^(i lam)|-1 = {drift:.2e}")
        assert worst < 1e-10
        assert drift < 1e-14


def test_criterion_3_reduced_model_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(2, 129):
        dev = reduced_vs_full(m, math.ceil(4 * math.sqrt(m)))
        worst = max(worst, dev)
        assert dev < 1e-12, f"M={m} deviates by {dev:.3e}"
    elapsed = time.perf_counter() - t0
    print(f"worst deviation over M=2..128: {worst:.3e}; runtime {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_4_complete_graph_search():
    t0 = time.perf_counter()
    peaks = {}
    for n in (8, 16, 32):
        t_max = math.ceil(1.5 * math.pi * n / 4)
        rep = complete_graph_report(n, t_max)
        predicted = math.pi * n / 4
        rel = abs(rep.t_star - predicted) / predicted
        peaks[n] = rep.p_star
        print(
            f"N={n}: T*={rep.t_star} (predicted {predicted:.2f}, off by "
            f"{rel:.1%}) P*={rep.p_star:.4f}"
        )
        assert rel <= 0.25
    elapsed = time.perf_counter() - t0
    print(f"runtime: {elapsed:.2f}s")
    assert peaks[8] <= peaks[16] <= peaks[32]
    assert peaks[32] >= 0.8
    assert elapsed < 60.0


def test_criterion_5_unmarked_fixed_point():
    worst = 0.0
    for seed in range(50):
        n = 4 + (seed * 23) % 61
        g = random_connected_graph(n, extra_edges=seed % 17, seed=seed)
        p = coloring_polarity(g)
        state = diagonal_state(g)
        reference = state.psi.copy()
        for _ in range(100):
            step(state, g, p)
        worst = max(worst, float(np.abs(state.psi - reference).max()))
        assert worst < 1e-12, f"graph seed {seed} (n={n}) drifted by {worst:.3e}"
    print(f"worst drift over 50 graphs x 100 steps: {worst:.3e}")


def test_criterion_6_circuit_model_equivalence():
    star3 = starify(complete_graph(3))
    cases = {
        "path-3": (path_graph(3), [0]),
        "star-2": (star_graph(2), [0]),
        "star-3": (star_graph(3), [0]),
        "star-4": (star_graph(4), [0]),
        "triangle": (complete_graph(3), [0]),
        "K4": (complete_graph(4), [0]),
        "starified-triangle": (star3.graph, [star3.virtual_edge_of(0)]),
    }
    t0 = time.perf_counter()
    for name, (g, marked) in cases.items():
        p = coloring_polarity(g)
        report = verify_circuit_equivalence(g, p, marked, compile_step(g, p, marked))
        print(
            f"{name}: deviation {report.max_deviation:.2e}, "
            f"leakage {report.max_leakage:.2e}"
        )
        assert report.max_deviation <= 1e-10, name
        assert report.max_leakage <= 1e-10, name
    elapsed = time.perf_counter() - t0
    print(f"runtime: {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_7_gate_count_bound():
    # From degree 3 up, the transfer of slot k spends popcount(k-1) + 2
    # controlled gates, so a node's scatter block uses
    # 2*(sum_j popcount(j) + 2d) of them, inside the bound.  Degree-1 nodes
    # scatter with no gates and degree-2 nodes with one swap, so they spend
    # none.  The bound is asserted verbatim over the whole family.
    graphs = [star_graph(64), starify(complete_graph(8)).graph]
    graphs += [
        random_connected_graph(30, extra_edges=40, seed=s) for s in range(5)
    ]
    audits = []
    for g in graphs:
        report = locality_audit(
            compile_step(g, coloring_polarity(g), [0])
        )
        assert report.ok, report.violations
        audits.extend(report.nodes)
    by_degree: dict[int, list[int]] = {}
    for entry in audits:
        by_degree.setdefault(entry.degree, []).append(entry.cnot_mcx)
    for d in sorted(by_degree):
        counts = by_degree[d]
        r = (d - 1).bit_length() if d > 1 else 0
        bound = 2 * d * (r + 1)
        marker = "ok" if max(counts) <= bound else "EXCEEDED"
        print(
            f"degree {d}: {len(counts)} nodes, controlled ops "
            f"{max(counts)}, bound {bound} -> {marker}"
        )
    offenders = [a for a in audits if not a.within_bound]
    assert not offenders, (
        f"{len(offenders)} nodes exceed 2*d*(ceil(log2 d)+1), all of degree "
        f"{sorted({a.degree for a in offenders})}: a degree-d transfer costs "
        f"2*(sum popcount + 2d) controlled gates, which only fits the bound "
        f"for d >= 3"
    )


def test_criterion_8_las_vegas_cost():
    g = star_graph(16)
    p = hub_polarity(16)
    rep = sweep(g, p, MARK0, 8)
    assert rep.t_star == 4
    expectation = 1 / rep.p_star
    rng = np.random.default_rng(np.random.SeedSequence(8))
    t0 = time.perf_counter()
    calls = [
        guaranteed_search(g, p, MARK0, rep.t_star, rng)[1] for _ in range(10_000)
    ]
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(calls))
    print(
        f"T*={rep.t_star} P*={rep.p_star:.5f}; mean calls {mean:.4f} vs "
        f"1/P* = {expectation:.4f}; runtime {elapsed:.2f}s"
    )
    assert abs(mean - expectation) / expectation < 0.10


def test_criterion_9_norm_conservation():
    g = random_connected_graph(100, extra_edges=101, seed=9)
    assert g.n_edges == 200
    p = coloring_polarity(g)
    state = diagonal_state(g)
    worst = 0.0
    for _ in range(1000):
        step(state, g, p, oracle=MARK0)
        worst = max(worst, abs(np.linalg.norm(state.psi) - 1.0))
    print(f"walk drift over 1000 steps on 200 edges: {worst:.3e}")
    assert worst < 1e-12

    g8 = star_graph(8)
    circ = compile_step(g8, hub_polarity(8), [0])
    sim = init_walk_superposition(circ.layout)
    for _ in range(20):
        sim = run(circ, sim)
    drift = abs(sum(abs(a) ** 2 for a in sim.amps.values()) - 1.0)
    print(f"circuit drift over 20 compiled steps on star-8: {drift:.3e}")
    assert drift < 1e-11
