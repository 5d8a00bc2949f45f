"""Sparse circuit simulator: gate semantics, projection, and equivalence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from graphwalk import (
    Circuit,
    CircuitError,
    Gate,
    Instruction,
    Locus,
    OracleSpec,
    PolarityMap,
    SimulationError,
    SparseState,
    SubspaceLeakageError,
    build_layout,
    compile_step,
    compile_transfer,
    complete_graph,
    diagonal_state,
    greedy_coloring,
    init_walk_superposition,
    measure_edge,
    QubitLayout,
    invert_instructions,
    path_graph,
    polarity_from_coloring,
    project_to_walk_state,
    random_connected_graph,
    run,
    star_graph,
    starify,
    step,
    step_circuit_matrix,
    step_matrix,
    sweep,
    verify_circuit_equivalence,
)
from graphwalk import simulator
from graphwalk.simulator import CIRCUIT_NORM_TOL, GATE_NORM_TOL, apply_instruction
from helpers import (
    dense_instruction_matrix,
    dense_to_sparse,
    random_sparse_state,
    reference_run,
    reference_step_circuit_matrix,
    sparse_to_dense,
)

EDGE0 = Locus("edge", 0)


def coloring_polarity(g):
    return polarity_from_coloring(g, greedy_coloring(g))


def hub_polarity(m):
    return PolarityMap((0,) * m)


def test_init_superposition_single_edge():
    g = complete_graph(2)
    layout = build_layout(g, coloring_polarity(g))
    state = init_walk_superposition(layout)
    amp = 1 / np.sqrt(2)
    assert state.n_qubits == 4
    assert state.amps.keys() == {0b1000, 0b0100}
    assert state.amps[0b1000] == pytest.approx(amp)
    assert state.amps[0b0100] == pytest.approx(amp)


def test_init_superposition_path3():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    state = init_walk_superposition(layout)
    assert len(state.amps) == 2 * g.n_edges
    assert all(a == pytest.approx(0.5) for a in state.amps.values())
    assert state.norm_sq() == pytest.approx(1.0)


def test_mask_and_label_orientation():
    state = SparseState({}, 4)
    assert state.mask(0) == 0b1000
    assert state.mask(3) == 0b0001
    assert state.basis_label(0b1000) == "1000"
    with pytest.raises(SimulationError, match="outside"):
        state.mask(4)


def test_x_gate_moves_leftmost_bit():
    state = SparseState({0b00: 1.0 + 0j}, 2)
    out = apply_instruction(state, Instruction(Gate.X, (), (0,), EDGE0))
    assert out.amps == {0b10: 1.0 + 0j}


def test_mcx_fires_only_when_all_controls_set():
    ins = Instruction(Gate.MCX, (0, 1), (2,), EDGE0)
    armed = apply_instruction(SparseState({0b110: 1.0 + 0j}, 3), ins)
    assert armed.amps == {0b111: 1.0 + 0j}
    idle = apply_instruction(SparseState({0b100: 1.0 + 0j}, 3), ins)
    assert idle.amps == {0b100: 1.0 + 0j}


def test_diffusion_armed_idle_and_above_d():
    # Flag qubit 0, slot value on qubits (2, 1) read LSB first, d = 3.
    ins = Instruction(Gate.DIFFUSION, (0,), (2, 1), EDGE0, 3)
    armed = apply_instruction(SparseState({0b100: 1.0 + 0j}, 3), ins)
    third = 2.0 / 3
    assert armed.amps == {0b100: third - 1, 0b101: third + 0j, 0b110: third + 0j}
    idle = SparseState({0b000: 0.6 + 0j, 0b011: 0.8 + 0j}, 3)
    assert apply_instruction(idle, ins).amps == idle.amps
    above = SparseState({0b111: 1.0 + 0j}, 3)  # slot value 3 = d
    assert apply_instruction(above, ins).amps == above.amps
    # At d = 2 the gate swaps the slot values; amplitudes that differ in a
    # non-target bit (qubit 1 here) are diffused in separate groups.
    swap = Instruction(Gate.DIFFUSION, (0,), (3,), EDGE0, 2)
    pair = SparseState({0b1000: 0.6 + 0j, 0b1101: 0.8j}, 4)
    assert apply_instruction(pair, swap).amps == {0b1001: 0.6 + 0j, 0b1100: 0.8j}


def test_diffusion_is_self_inverse():
    n = 5
    ins = Instruction(Gate.DIFFUSION, (1, 4), (3, 0, 2), EDGE0, 6)
    mat = dense_instruction_matrix(ins, n)
    np.testing.assert_allclose(mat @ mat, np.eye(1 << n), atol=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(3):
        state = random_sparse_state(n, rng, support=20)
        twice = apply_instruction(apply_instruction(state, ins), ins)
        np.testing.assert_allclose(
            sparse_to_dense(twice), sparse_to_dense(state), rtol=0, atol=1e-15
        )


SAMPLE_GATES = {
    Gate.X: lambda: Instruction(Gate.X, (), (2,), EDGE0),
    Gate.Z: lambda: Instruction(Gate.Z, (), (0,), EDGE0),
    Gate.CNOT: lambda: Instruction(Gate.CNOT, (3,), (1,), EDGE0),
    Gate.SWAP: lambda: Instruction(Gate.SWAP, (), (0, 4), EDGE0),
    Gate.MCX: lambda: Instruction(Gate.MCX, (0, 2, 4), (1,), EDGE0),
    Gate.DIFFUSION: lambda: Instruction(Gate.DIFFUSION, (1,), (3, 0), EDGE0, 3),
}


# Every gate kind needs a sample here: a missing one fails collection.
@pytest.mark.parametrize("name, build", [(g.value, SAMPLE_GATES[g]) for g in Gate])
def test_sparse_gates_match_dense_construction(name, build):
    n = 5
    rng = np.random.default_rng(sum(map(ord, name)))
    ins = build()
    assert ins.gate.value == name
    mat = dense_instruction_matrix(ins, n)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(1 << n), atol=1e-12)
    for _ in range(3):
        state = random_sparse_state(n, rng)
        expected = mat @ sparse_to_dense(state)
        out = apply_instruction(state, ins)
        np.testing.assert_allclose(sparse_to_dense(out), expected, atol=1e-13)


def test_apply_instruction_is_out_of_place():
    state = SparseState({0b01: 1.0 + 0j}, 2)
    apply_instruction(state, Instruction(Gate.X, (), (0,), EDGE0))
    assert state.amps == {0b01: 1.0 + 0j}


def test_diffusion_checks_column_drift(monkeypatch):
    ins = Instruction(Gate.DIFFUSION, (0,), (1, 2), EDGE0, 3)
    state = SparseState({0b100: 1.0 + 0j}, 3)
    apply_instruction(state, ins)
    monkeypatch.setattr(simulator, "GATE_NORM_TOL", -1.0)
    with pytest.raises(SimulationError, match="gate diffusion changed the squared norm"):
        apply_instruction(state, ins)
    # Amplitudes the gate leaves alone are not held to its check.
    apply_instruction(SparseState({0b000: 1.0 + 0j}, 3), ins)


def test_run_checks_circuit_drift(monkeypatch):
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    key = 1 << (circ.n_qubits - 1)
    run(circ, SparseState({key: 1.0 + 0j}, circ.n_qubits))
    monkeypatch.setattr(simulator, "CIRCUIT_NORM_TOL", -1.0)
    with pytest.raises(
        SimulationError, match=r"^circuit changed the squared norm by 0\.000e\+00$"
    ):
        run(circ, SparseState({key: 1.0 + 0j}, circ.n_qubits))


def test_gate_beyond_register_rejected():
    state = SparseState({0: 1.0 + 0j}, 2)
    with pytest.raises(SimulationError, match="outside"):
        apply_instruction(state, Instruction(Gate.X, (), (5,), EDGE0))


def test_run_empty_circuit_is_identity():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    out = run(Circuit(layout, ()))
    assert out.amps == init_walk_superposition(layout).amps


def test_run_rejects_width_mismatch():
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    with pytest.raises(SimulationError, match="qubits"):
        run(circ, SparseState({0: 1.0 + 0j}, 3))


def test_compiled_step_matches_engine_step():
    g = path_graph(3)
    p = coloring_polarity(g)
    circ = compile_step(g, p, [0])
    final = project_to_walk_state(run(circ), circ.layout)
    model = diagonal_state(g)
    step(model, g, p, oracle=OracleSpec(marked=frozenset({0})))
    np.testing.assert_allclose(final.psi, model.psi, atol=1e-12)


def test_repeated_steps_match_sweep_probabilities():
    g = star_graph(4)
    p = hub_polarity(4)
    circ = compile_step(g, p, [0])
    expected = sweep(g, p, OracleSpec(marked=frozenset({0})), 2).probs
    state = init_walk_superposition(circ.layout)
    for t in (1, 2):
        state = run(circ, state)
        walk_view = project_to_walk_state(state, circ.layout)
        got = float(np.sum(np.abs(walk_view.psi[0]) ** 2))
        assert got == pytest.approx(expected[t], abs=1e-10)


def test_support_stays_linear_in_edges():
    g = star_graph(4)
    circ = compile_step(g, hub_polarity(4), [0])
    cap = 4 * circ.layout.n_edges
    state = init_walk_superposition(circ.layout)
    for _ in range(3):
        for ins in circ.instructions:
            state = apply_instruction(state, ins)
            assert len(state.amps) <= cap


def test_project_init_state_gives_diagonal():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    walk_view = project_to_walk_state(init_walk_superposition(layout), layout)
    np.testing.assert_allclose(walk_view.psi, diagonal_state(g).psi)


def test_project_detects_register_leakage():
    g = star_graph(3)
    layout = build_layout(g, hub_polarity(3))
    halfway = Circuit(layout, compile_transfer(layout, 0))
    stuck = run(halfway, init_walk_superposition(layout))
    with pytest.raises(SubspaceLeakageError) as info:
        project_to_walk_state(stuck, layout)
    assert info.value.leaked > 0.4


def test_measure_edge_one_hot():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    key = 1 << (layout.n_qubits - 1 - layout.edge_qubits[1][0])
    state = SparseState({key: 1.0 + 0j}, layout.n_qubits)
    assert measure_edge(state, layout, seed=0) == 1


def test_measure_edge_uniform_from_init():
    g = star_graph(5)
    layout = build_layout(g, hub_polarity(5))
    state = init_walk_superposition(layout)
    rng = np.random.default_rng(11)
    draws = np.bincount(
        [measure_edge(state, layout, rng) for _ in range(5000)], minlength=5
    )
    np.testing.assert_allclose(draws / 5000, 0.2, atol=0.03)


def test_measure_edge_frequency_after_peak_steps():
    g = star_graph(4)
    p = hub_polarity(4)
    circ = compile_step(g, p, [0])
    state = init_walk_superposition(circ.layout)
    for _ in range(2):
        state = run(circ, state)
    rng = np.random.default_rng(3)
    n = 10_000
    hits = sum(measure_edge(state, circ.layout, rng) == 0 for _ in range(n))
    p_star = 0.90625
    sigma = np.sqrt(p_star * (1 - p_star) / n)
    assert abs(hits / n - p_star) < 3 * sigma


def test_measure_edge_rejects_empty_edge_weight():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    with pytest.raises(SimulationError, match="no probability"):
        measure_edge(SparseState({}, layout.n_qubits), layout)


def test_state_dump_sorted_and_typed():
    state = SparseState({0b10: 0.6 + 0j, 0b01: 0.8j}, 2)
    dump = state.to_json_list()
    assert [d["basis"] for d in dump] == ["01", "10"]
    assert dump[0] == {"basis": "01", "re": 0.0, "im": 0.8}
    parsed = json.loads(state.to_json())
    assert parsed == dump


def test_dense_sparse_roundtrip():
    rng = np.random.default_rng(0)
    state = random_sparse_state(4, rng)
    back = dense_to_sparse(sparse_to_dense(state), 4)
    assert back.amps == state.amps


@pytest.mark.parametrize(
    "g",
    [path_graph(3), star_graph(2), complete_graph(3)],
    ids=["path3", "star2", "triangle"],
)
def test_verify_circuit_equivalence_passes(g):
    p = coloring_polarity(g)
    report = verify_circuit_equivalence(g, p, [0])
    assert report.ok
    assert report.max_deviation < 1e-12
    assert report.max_leakage < 1e-12


def test_verify_catches_tampered_circuit():
    g = path_graph(3)
    p = coloring_polarity(g)
    circ = compile_step(g, p, [0])
    stray = Instruction(Gate.X, (), (0,), EDGE0)
    bad = Circuit(circ.layout, circ.instructions + (stray,))
    report = verify_circuit_equivalence(g, p, [0], circuit=bad)
    assert not report.ok
    assert report.max_deviation > 0.1


@pytest.mark.parametrize(
    "tolerance", [float("nan"), -1.0, -1e-300], ids=["nan", "minus-one", "tiny-negative"]
)
def test_verify_rejects_nan_or_negative_tolerance(tolerance):
    g = path_graph(3)
    with pytest.raises(ValueError) as info:
        verify_circuit_equivalence(g, coloring_polarity(g), [0], tolerance=tolerance)
    assert str(info.value) == f"tolerance must be nonnegative, got {tolerance!r}"


def test_equivalence_report_json():
    g = star_graph(2)
    report = verify_circuit_equivalence(g, hub_polarity(2), [0])
    doc = report.to_json_dict()
    assert list(doc) == [
        "ok", "max_deviation", "max_leakage", "tolerance", "qubits", "worst_column"
    ]
    assert doc["ok"] is True
    assert doc["worst_column"] == {"edge": 0, "pole": 0}
    assert doc["tolerance"] == 1e-10


def random_marks(g, count, seed):
    rng = np.random.default_rng(seed)
    return [int(k) for k in rng.choice(g.n_edges, size=count, replace=False)]


def walk_circuit_cases():
    cases = []
    for seed in range(4):
        g = random_connected_graph(9, extra_edges=6, seed=seed)
        enum_seed = None if seed % 2 else 7 + seed
        for count in (1, 2):
            cases.append(pytest.param(
                g, random_marks(g, count, seed), enum_seed,
                id=f"random{seed}-marks{count}-enum{enum_seed}",
            ))
    node_graph = starify(random_connected_graph(6, extra_edges=4, seed=2)).graph
    cases.append(pytest.param(node_graph, [node_graph.n_edges - 1], None, id="starified"))
    cases.append(pytest.param(star_graph(40), [0], None, id="star40"))
    cases.append(pytest.param(star_graph(5), [0, 3], 11, id="star5-enum11"))
    return cases


@pytest.mark.parametrize("g, marked, enum_seed", walk_circuit_cases())
def test_batched_matrix_bitwise_equals_per_column_reference(g, marked, enum_seed):
    circ = compile_step(g, coloring_polarity(g), marked, enumeration_seed=enum_seed)
    mat, leakage = step_circuit_matrix(circ)
    ref, ref_leaks = reference_step_circuit_matrix(circ)
    assert np.array_equal(mat, ref)
    assert leakage == max(ref_leaks)
    model = step_matrix(g, coloring_polarity(g), oracle=OracleSpec(marked=frozenset(marked)))
    assert float(np.abs(mat - model).max()) < 1e-12


def test_batched_matrix_matches_reference_with_foreign_diffusion():
    # d = 4 on the 3-leaf hub's register: slot value 3, which no transfer
    # returns, receives weight and stays in the register as leakage.
    g = star_graph(3)
    layout = build_layout(g, hub_polarity(3))
    binary, flag = layout.node_registers[0]
    hub = Locus("node", 0)
    transfer = compile_transfer(layout, 0)
    instrs = (
        transfer
        + (Instruction(Gate.DIFFUSION, (flag,), binary, hub, 4),)
        + invert_instructions(transfer)
    )
    circ = Circuit(layout, instrs)
    mat, leakage = step_circuit_matrix(circ)
    ref, ref_leaks = reference_step_circuit_matrix(circ)
    np.testing.assert_allclose(mat, ref, rtol=0, atol=1e-12)
    assert leakage == pytest.approx(max(ref_leaks), abs=1e-12)
    assert leakage == pytest.approx(0.25)
    assert np.abs(mat).max() > 0.1


def mixed_circuit():
    """Every gate kind, with loci that switch mid-run and repeat, on the
    8-qubit layout of a path on 3 nodes."""
    edge, node = Locus("edge", 0), Locus("node", 0)
    instrs = [
        Instruction(Gate.X, (), (2,), edge),
        Instruction(Gate.Z, (), (0,), edge),
        Instruction(Gate.CNOT, (3,), (1,), node),
        Instruction(Gate.SWAP, (), (0, 4), node),
        Instruction(Gate.DIFFUSION, (1,), (3, 0), node, 3),
        Instruction(Gate.MCX, (0, 2, 4), (1,), node),
        Instruction(Gate.Z, (), (3,), node),
        Instruction(Gate.SWAP, (), (1, 2), edge),
        Instruction(Gate.DIFFUSION, (4,), (2, 3), edge, 4),
        Instruction(Gate.DIFFUSION, (0, 1), (3,), edge, 2),
        Instruction(Gate.X, (), (4,), edge),
        Instruction(Gate.MCX, (4,), (0,), node),
        Instruction(Gate.CNOT, (2,), (3,), edge),
    ]
    layout = QubitLayout(((1,), (0, 2), (3,)))
    return Circuit(layout, tuple(instrs))


def test_run_matches_gate_by_gate_on_random_states():
    rng = np.random.default_rng(17)
    circ = mixed_circuit()
    n = circ.n_qubits
    assert n == 8
    assert {ins.gate for ins in circ.instructions} == set(Gate)
    for _ in range(5):
        state = random_sparse_state(n, rng, support=20)
        gate_by_gate = state
        for ins in circ.instructions:
            gate_by_gate = apply_instruction(gate_by_gate, ins)
        out = run(circ, state)
        np.testing.assert_allclose(
            sparse_to_dense(out), sparse_to_dense(gate_by_gate), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            sparse_to_dense(out), sparse_to_dense(reference_run(circ, state)),
            rtol=0, atol=1e-13,
        )


def test_non_unitary_payload_caught_per_column():
    # A non-unitary gate that squeezes two unit columns to squared norms 0.5
    # and 1.5 leaves the total unchanged, but moves each column by 0.5.
    with pytest.raises(SimulationError, match="^gate diffusion changed the squared norm"):
        simulator._check_drift(
            {0: 1.0, 1: 1.0}, {0: 0.5, 1: 1.5}, GATE_NORM_TOL, "gate diffusion"
        )
    # The same weight inside one column keeps that column's norm.
    simulator._check_drift({0: 2.0}, {0: 0.5 + 1.5}, GATE_NORM_TOL, "gate diffusion")


def test_circuit_drift_caught_per_column():
    # Each gate moves 5e-14 of squared norm between two unit columns, under
    # the per-gate bound; 40 gates move 2e-12, over the circuit bound.
    nudge = {0: 1.0 + 5e-14, 1: 1.0 - 5e-14}
    simulator._check_drift({0: 1.0, 1: 1.0}, nudge, GATE_NORM_TOL, "gate diffusion")
    drifted = {0: 1.0 + 2e-12, 1: 1.0 - 2e-12}
    with pytest.raises(SimulationError, match="^circuit changed the squared norm"):
        simulator._check_drift({0: 1.0, 1: 1.0}, drifted, CIRCUIT_NORM_TOL, "circuit")
    # Columns that appear or vanish count as drift as well.
    with pytest.raises(SimulationError, match="by -1.000e\\+00"):
        simulator._check_drift({0: 1.0, 1: 1.0}, {0: 1.0}, CIRCUIT_NORM_TOL, "circuit")


def test_halfway_circuit_reports_one_column_leakage():
    g = star_graph(3)
    layout = build_layout(g, hub_polarity(3))
    halfway = Circuit(layout, compile_transfer(layout, 0))
    mat, leakage = step_circuit_matrix(halfway)
    _, ref_leaks = reference_step_circuit_matrix(halfway)
    assert sorted(ref_leaks) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert leakage == 1.0
    assert np.abs(mat).sum(axis=0).tolist() == [1.0 - x for x in ref_leaks]


def test_report_names_worst_column():
    g = path_graph(4)
    p = coloring_polarity(g)
    circ = compile_step(g, p, [0])
    e, c = 2, 1
    stray = Instruction(Gate.Z, (), (circ.layout.edge_qubits[e][c],), Locus("edge", e))
    report = verify_circuit_equivalence(
        g, p, [0], circuit=Circuit(circ.layout, circ.instructions + (stray,))
    )
    model = step_matrix(g, p, oracle=OracleSpec(marked=frozenset({0})))
    (source,) = np.flatnonzero(model[2 * e + c])
    assert source != 0
    assert report.max_deviation == pytest.approx(2.0)
    assert report.worst_column == divmod(int(source), 2)
    assert report.to_json_dict()["worst_column"] == {
        "edge": int(source) // 2, "pole": int(source) % 2
    }


def test_verify_rejects_circuit_for_another_edge_count(monkeypatch):
    circuit = compile_step(star_graph(4), hub_polarity(4), [0])

    def unreachable(*args, **kwargs):
        raise AssertionError("built a matrix for mismatched edge counts")

    monkeypatch.setattr(simulator.walk, "step_matrix", unreachable)
    monkeypatch.setattr(simulator, "_circuit_columns", unreachable)
    with pytest.raises(CircuitError) as info:
        verify_circuit_equivalence(star_graph(3), hub_polarity(3), [0], circuit=circuit)
    assert str(info.value) == "circuit has 4 edges, graph has 3"
