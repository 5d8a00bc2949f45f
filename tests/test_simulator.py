"""Sparse circuit simulator: gate semantics, projection, and equivalence."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from graphwalk import (
    Circuit,
    CircuitError,
    Gate,
    Graph,
    Instruction,
    Locus,
    OracleSpec,
    PolarityMap,
    SimulationError,
    SparseState,
    SubspaceLeakageError,
    build_layout,
    compile_step,
    compile_scatter,
    complete_graph,
    cycle_graph,
    diagonal_state,
    evolve,
    greedy_coloring,
    init_walk_superposition,
    QubitLayout,
    path_graph,
    polarity_from_coloring,
    project_to_walk_state,
    random_connected_graph,
    run,
    star_graph,
    starify,
    step,
    step_matrix,
    sweep,
    verify_circuit_equivalence,
)
from graphwalk import simulator
from graphwalk.simulator import CIRCUIT_NORM_TOL, GATE_NORM_TOL, LEAKAGE_TOL
from helpers import (
    apply_gate,
    circuit_matrix,
    dense_instruction_matrix,
    dense_to_sparse,
    key_of,
    qubits_of,
    random_regular_graph,
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
    assert state.amps.keys() == {(0,), (1,)}
    assert state.amps[(0,)] == pytest.approx(amp)
    assert state.amps[(1,)] == pytest.approx(amp)


def test_init_superposition_path3():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    state = init_walk_superposition(layout)
    assert len(state.amps) == 2 * g.n_edges
    assert all(a == pytest.approx(0.5) for a in state.amps.values())
    assert sum(abs(a) ** 2 for a in state.amps.values()) == pytest.approx(1.0)


def test_x_gate_moves_leftmost_bit():
    state = SparseState({(): 1.0 + 0j}, 2)
    out = apply_gate(state, Instruction(Gate.X, (), (0,), EDGE0))
    assert out.amps == {(0,): 1.0 + 0j}


def test_mcx_fires_only_when_all_controls_set():
    ins = Instruction(Gate.MCX, (0, 1), (2,), EDGE0)
    armed = apply_gate(SparseState({(0, 1): 1.0 + 0j}, 3), ins)
    assert armed.amps == {(0, 1, 2): 1.0 + 0j}
    idle = apply_gate(SparseState({(0,): 1.0 + 0j}, 3), ins)
    assert idle.amps == {(0,): 1.0 + 0j}


def test_diffusion_armed_idle_and_above_d():
    # Flag qubit 0, slot value on qubits (2, 1) read LSB first, d = 3.
    ins = Instruction(Gate.DIFFUSION, (0,), (2, 1), EDGE0, 3)
    armed = apply_gate(SparseState({(0,): 1.0 + 0j}, 3), ins)
    third = 2.0 / 3
    assert armed.amps == {(0,): third - 1, (0, 2): third + 0j, (0, 1): third + 0j}
    idle = SparseState({(): 0.6 + 0j, (1, 2): 0.8 + 0j}, 3)
    assert apply_gate(idle, ins).amps == idle.amps
    above = SparseState({(0, 1, 2): 1.0 + 0j}, 3)  # slot value 3 = d
    assert apply_gate(above, ins).amps == above.amps
    # At d = 2 the gate swaps the slot values; amplitudes that differ in a
    # non-target qubit (qubit 1 here) are diffused in separate groups.
    swap = Instruction(Gate.DIFFUSION, (0,), (3,), EDGE0, 2)
    pair = SparseState({(0,): 0.6 + 0j, (0, 1, 3): 0.8j}, 4)
    assert apply_gate(pair, swap).amps == {(0, 3): 0.6 + 0j, (0, 1): 0.8j}


def test_diffusion_is_self_inverse():
    n = 5
    ins = Instruction(Gate.DIFFUSION, (1, 4), (3, 0, 2), EDGE0, 6)
    mat = dense_instruction_matrix(ins, n)
    np.testing.assert_allclose(mat @ mat, np.eye(1 << n), atol=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(3):
        state = random_sparse_state(n, rng, support=20)
        twice = apply_gate(apply_gate(state, ins), ins)
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
        out = apply_gate(state, ins)
        np.testing.assert_allclose(sparse_to_dense(out), expected, atol=1e-13)


def test_diffusion_checks_column_drift(monkeypatch):
    ins = Instruction(Gate.DIFFUSION, (0,), (1, 2), EDGE0, 3)
    state = SparseState({(0,): 1.0 + 0j}, 3)
    apply_gate(state, ins)
    monkeypatch.setattr(simulator, "GATE_NORM_TOL", -1.0)
    with pytest.raises(SimulationError, match="gate diffusion changed the squared norm"):
        apply_gate(state, ins)
    # Amplitudes the gate leaves alone are not held to its check.
    apply_gate(SparseState({(): 1.0 + 0j}, 3), ins)


def test_run_checks_circuit_drift(monkeypatch):
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    run(circ, SparseState({(0,): 1.0 + 0j}, circ.n_qubits))
    monkeypatch.setattr(simulator, "CIRCUIT_NORM_TOL", -1.0)
    with pytest.raises(
        SimulationError, match=r"^circuit changed the squared norm by 0\.000e\+00$"
    ):
        run(circ, SparseState({(0,): 1.0 + 0j}, circ.n_qubits))


def test_gate_beyond_register_rejected():
    state = SparseState({(): 1.0 + 0j}, 2)
    with pytest.raises(SimulationError, match="outside"):
        apply_gate(state, Instruction(Gate.X, (), (5,), EDGE0))


def test_run_empty_circuit_is_identity():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    out = run(Circuit(layout, ()))
    assert out.amps == init_walk_superposition(layout).amps


def test_run_rejects_width_mismatch():
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    with pytest.raises(SimulationError, match="qubits"):
        run(circ, SparseState({(): 1.0 + 0j}, 3))


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
            state = apply_gate(state, ins)
            assert len(state.amps) <= cap


def test_project_init_state_gives_diagonal():
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    walk_view = project_to_walk_state(init_walk_superposition(layout), layout)
    np.testing.assert_allclose(walk_view.psi, diagonal_state(g).psi)


def test_project_detects_register_leakage():
    g = star_graph(3)
    layout = build_layout(g, hub_polarity(3))
    halfway = Circuit(layout, compile_scatter(layout, 0)[:8])  # the forward transfer
    stuck = run(halfway, init_walk_superposition(layout))
    with pytest.raises(SubspaceLeakageError) as info:
        project_to_walk_state(stuck, layout)
    assert info.value.leaked > 0.4


@pytest.mark.parametrize("off", ["empty", "flag", "two-edges"])
def test_project_counts_each_key_off_the_edge_qubits_as_leaked(off):
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    n = layout.n_qubits
    stray = {"empty": (), "flag": (layout.node_registers[0].flag,), "two-edges": (1, 2)}
    for weight in (2 * LEAKAGE_TOL, LEAKAGE_TOL / 2):
        amps = {(1,): complex(np.sqrt(1 - weight)), stray[off]: complex(np.sqrt(weight))}
        state = SparseState(amps, n)
        if weight > LEAKAGE_TOL:
            with pytest.raises(SubspaceLeakageError) as info:
                project_to_walk_state(state, layout)
            assert info.value.leaked == pytest.approx(weight)
        else:
            psi = project_to_walk_state(state, layout).psi.reshape(-1)
            assert psi.tolist() == [0, amps[(1,)], 0, 0]  # edge qubit q holds amplitude q


def test_project_reads_no_edge_amplitude_off_the_empty_key():
    # The empty key of a 2-qubit register: the state's width is rejected
    # before the key is read.
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    with pytest.raises(SimulationError, match="^state has 2 qubits, layout expects 8$"):
        project_to_walk_state(SparseState({(): 1.0 + 0j}, 2), layout)


@pytest.mark.parametrize("read", [project_to_walk_state], ids=["project"])
@pytest.mark.parametrize("width", [2, 9])
def test_state_of_another_width_is_rejected(read, width):
    # Qubit width - 1: on 2 qubits, edge 0's - pole of path 3's 8-qubit
    # layout; on 9, one past its register.
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    assert layout.n_qubits == 8
    with pytest.raises(SimulationError) as info:
        read(SparseState({(width - 1,): 1.0 + 0j}, width), layout)
    assert not isinstance(info.value, SubspaceLeakageError)
    assert str(info.value) == f"state has {width} qubits, layout expects 8"


def _run_path3(state, layout):
    g = path_graph(3)
    return run(compile_step(g, coloring_polarity(g), [0]), state)


def _assert_key_rejected(read, key):
    # A key that is not a strictly ascending tuple of the register's qubits
    # names no basis state: it is rejected, not read as leakage, dropped or
    # merged with the key of its sorted qubits.
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    n = layout.n_qubits
    for amps in ({key: 1.0 + 0j}, {(2,): 0.6 + 0j, key: 0.8 + 0j}):
        with pytest.raises(SimulationError) as info:
            read(SparseState(amps, n), layout)
        assert not isinstance(info.value, SubspaceLeakageError)
        assert str(info.value) == f"basis key {key!r} is not an ascending tuple of qubits below {n}"


@pytest.mark.parametrize("read", [project_to_walk_state], ids=["project"])
@pytest.mark.parametrize("column", [1, 5])
def test_multi_column_state_is_not_read_as_leakage(read, column):
    # Column c written into the key of edge 1's + pole as qubit 8 + j for
    # each set bit j of c: qubits past path 3's 8-qubit register.
    extra = tuple(8 + j for j in range(column.bit_length()) if column >> j & 1)
    _assert_key_rejected(read, (2,) + extra)


@pytest.mark.parametrize(
    "key", [(3, 1), (1, 1), (8,), (-1,), (True,), (0.0,), 4],
    ids=["descending", "repeated", "past-register", "negative", "bool", "float", "int"],
)
@pytest.mark.parametrize(
    "read",
    [
        _run_path3,
        project_to_walk_state,
    ],
    ids=["run", "project"],
)
def test_key_that_is_not_ascending_register_qubits_is_rejected(read, key):
    _assert_key_rejected(read, key)


@pytest.mark.parametrize(
    "bad", [complex("nan"), float("nan"), float("inf"), complex(0, -float("inf"))],
    ids=["nan", "float-nan", "inf", "imaginary-inf"],
)
@pytest.mark.parametrize(
    "read",
    [
        _run_path3,
        project_to_walk_state,
    ],
    ids=["run", "project"],
)
def test_amplitude_that_is_not_finite_is_rejected(read, bad):
    # A NaN would be pruned, an inf turned into -inf: the state is rejected
    # on the way in, with the key named.
    g = path_graph(3)
    layout = build_layout(g, coloring_polarity(g))
    n = layout.n_qubits
    for amps in ({(4,): bad}, {(2,): 0.6 + 0j, (4,): bad, (5,): 0.8 + 0j}):
        with pytest.raises(SimulationError) as info:
            read(SparseState(amps, n), layout)
        assert not isinstance(info.value, SubspaceLeakageError)
        assert str(info.value) == f"amplitude {bad!r} at basis key (4,) is not finite"


def test_state_keys_take_the_benchmark_digest():
    # perfbench's circuit-run workload digests a state with this expression,
    # so the keys must sort and serialize to JSON.
    g = star_graph(8)
    state = run(compile_step(g, coloring_polarity(g), [0]))
    blob = json.dumps(sorted((k, a.real, a.imag) for k, a in state.amps.items()))
    assert [tuple(k) for k, _, _ in json.loads(blob)] == sorted(state.amps)


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
    report = verify_circuit_equivalence(g, p, [0], compile_step(g, p, [0]))
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
    "tolerance",
    [float("nan"), -1.0, -1e-300, float("inf")],
    ids=["nan", "minus-one", "tiny-negative", "inf"],
)
def test_verify_rejects_nan_or_negative_tolerance(tolerance):
    g = path_graph(3)
    p = coloring_polarity(g)
    with pytest.raises(ValueError) as info:
        verify_circuit_equivalence(g, p, [0], compile_step(g, p, [0]), tolerance=tolerance)
    rule = "finite" if tolerance == float("inf") else "nonnegative"
    assert str(info.value) == f"tolerance must be {rule}, got {tolerance!r}"


@pytest.mark.parametrize("tolerance", [True, False])
def test_verify_rejects_a_bool_tolerance(tolerance):
    g = path_graph(3)
    p = coloring_polarity(g)
    with pytest.raises(TypeError) as info:
        verify_circuit_equivalence(g, p, [0], compile_step(g, p, [0]), tolerance=tolerance)
    assert str(info.value) == f"tolerance must be a number, got {tolerance!r}"


def test_edgeless_graph_has_no_walk():
    g = Graph(1, ())
    with pytest.raises(ValueError, match="^graph has no edges to walk on$"):
        verify_circuit_equivalence(g, PolarityMap(()), [], compile_step(g, PolarityMap(()), []))
    layout = build_layout(g, PolarityMap(()))
    with pytest.raises(ValueError, match="^graph has no edges to walk on$"):
        init_walk_superposition(layout)
    with pytest.raises(ValueError, match="^graph has no edges to walk on$"):
        run(Circuit(layout, ()))


def test_equivalence_report_json():
    g = star_graph(2)
    p = hub_polarity(2)
    report = verify_circuit_equivalence(g, p, [0], compile_step(g, p, [0]))
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
    mat, leaks = circuit_matrix(circ)
    leakage = leaks.max()
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
    block = compile_scatter(layout, 0)
    assert block[8].gate is Gate.DIFFUSION
    instrs = block[:8] + (Instruction(Gate.DIFFUSION, (flag,), binary, hub, 4),) + block[9:]
    circ = Circuit(layout, instrs)
    mat, leaks = circuit_matrix(circ)
    leakage = leaks.max()
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
            gate_by_gate = apply_gate(gate_by_gate, ins)
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
    halfway = Circuit(layout, compile_scatter(layout, 0)[:8])  # the forward transfer
    mat, leaks = circuit_matrix(halfway)
    leakage = leaks.max()
    _, ref_leaks = reference_step_circuit_matrix(halfway)
    assert sorted(ref_leaks) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert leakage == 1.0
    assert np.abs(mat).sum(axis=0).tolist() == [1.0 - x for x in ref_leaks]


def test_report_names_worst_column():
    g = path_graph(4)
    p = coloring_polarity(g)
    circ = compile_step(g, p, [0])
    e, c = 2, 1
    stray = Instruction(Gate.Z, (), (2 * e + c,), Locus("edge", e))
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


@pytest.mark.parametrize(
    "marked, error, message",
    [([7], ValueError, "^marked edge index out of range for 3 edges$"),
     ([-1], ValueError, "^marked edge index out of range for 3 edges$"),
     ([2**70], ValueError, "^marked edge index out of range for 3 edges$"),
     ([-2**70], ValueError, "^marked edge index out of range for 3 edges$"),
     ([True], TypeError, "bool"),
     ([0.0], TypeError, "float")],
    ids=["past-the-end", "negative", "past-int64", "below-int64", "bool", "float"],
)
def test_verify_checks_marks_by_the_walk_rule_before_compiling(monkeypatch, marked, error, message):
    # A bad mark gets one error, raised before the circuit is simulated.
    g, p = star_graph(3), hub_polarity(3)
    circuit = compile_step(g, p, [0])

    def unreachable(*args, **kwargs):
        raise AssertionError("simulated a step for a bad mark")

    monkeypatch.setattr(simulator, "_circuit_entries", unreachable)
    with pytest.raises(error, match=message) as info:
        verify_circuit_equivalence(g, p, marked, circuit=circuit)
    assert type(info.value) is error


def test_verify_rejects_circuit_for_another_edge_count(monkeypatch):
    circuit = compile_step(star_graph(4), hub_polarity(4), [0])

    def unreachable(*args, **kwargs):
        raise AssertionError("built a matrix for mismatched edge counts")

    monkeypatch.setattr(simulator.walk.WalkPlan, "_entries", unreachable)
    monkeypatch.setattr(simulator, "_circuit_entries", unreachable)
    with pytest.raises(CircuitError) as info:
        verify_circuit_equivalence(star_graph(3), hub_polarity(3), [0], circuit=circuit)
    assert str(info.value) == "circuit has 4 edges, graph has 3"


def report_cases():
    """(name, (g, p, marked, circuit)): compiled steps, then a 7-leaf star's
    step with one fault each."""

    def compiled(g, marked, p=None):
        p = coloring_polarity(g) if p is None else p
        return g, p, marked, compile_step(g, p, marked)

    starified = starify(random_connected_graph(8, extra_edges=6, seed=3)).graph
    yield "path5", compiled(path_graph(5), [0])
    yield "cycle9", compiled(cycle_graph(9), [2])  # degree 2: explicit zeros in the model
    yield "star7", compiled(star_graph(7), [0])
    yield "k12-two-marks", compiled(complete_graph(12), [0, 5])
    yield "starified", compiled(starified, [starified.n_edges - 1])
    g, p, marked, circ = compiled(star_graph(7), [0], hub_polarity(7))
    ins, layout = circ.instructions, circ.layout
    k = next(k for k, i in enumerate(ins) if i.gate is Gate.DIFFUSION)
    altered = Instruction(Gate.DIFFUSION, ins[k].controls, ins[k].targets, ins[k].locus, 5)
    stray = Instruction(Gate.X, (), (layout.facing[-1][0],), Locus("node", len(layout.facing) - 1))
    yield "dropped-diffusion", (g, p, marked, Circuit(layout, ins[:k] + ins[k + 1 :]))
    yield "altered-diffusion", (g, p, marked, Circuit(layout, ins[:k] + (altered,) + ins[k + 1 :]))
    yield "leaking-x", (g, p, marked, Circuit(layout, ins + (stray,)))


REPORT_CASES = list(report_cases())


@pytest.mark.parametrize(
    "g, p, marked, circ", [c[1] for c in REPORT_CASES], ids=[c[0] for c in REPORT_CASES]
)
def test_sparse_report_equals_dense_reference(g, p, marked, circ):
    # The dense reference: the circuit's whole matrix less the model's, and
    # the first column whose largest gap or leakage is the largest.
    model = step_matrix(g, p, oracle=OracleSpec(marked=frozenset(marked)))
    mat, circuit_leaks = circuit_matrix(circ)
    max_leakage = circuit_leaks.max()
    _, leaks = reference_step_circuit_matrix(circ)
    gap = np.abs(mat - model)
    worst = int(np.argmax(np.maximum(gap.max(axis=0), leaks)))
    report = verify_circuit_equivalence(g, p, marked, circuit=circ)
    assert report.max_deviation.hex() == float(gap.max()).hex()
    assert report.max_leakage.hex() == max_leakage.hex() == max(leaks).hex()
    assert report.worst_column == divmod(worst, 2)


def assert_same_amps(got: dict, want: dict) -> None:
    """Same keys and bitwise the same amplitudes."""
    assert got.keys() == want.keys()
    for k, a in want.items():
        assert (got[k].real.hex(), got[k].imag.hex()) == (a.real.hex(), a.imag.hex())


def test_uncontrolled_x_in_block_moves_untouched_key():
    # (3,) holds none of the gates' qubits (0, 1, 2): only the x, which
    # moves the all-zero pattern, can move it, so the x looks at every key.
    layout = mixed_circuit().layout
    instrs = (
        Instruction(Gate.CNOT, (0,), (1,), EDGE0),
        Instruction(Gate.X, (), (2,), EDGE0),
        Instruction(Gate.Z, (), (2,), EDGE0),
        Instruction(Gate.SWAP, (), (0, 1), EDGE0),
    )
    circ = Circuit(layout, instrs)
    state = SparseState({(3,): 0.6 + 0j, (0, 7): 0.8j}, circ.n_qubits)
    out = run(circ, state)
    assert (3,) not in out.amps
    assert out.amps[(2, 3)] == -0.6
    np.testing.assert_allclose(
        sparse_to_dense(out), sparse_to_dense(reference_run(circ, state)), rtol=0, atol=1e-13
    )


def test_block_on_unheld_qubits_leaves_state_alone():
    layout = mixed_circuit().layout
    node = Locus("node", 0)
    instrs = (
        Instruction(Gate.CNOT, (5,), (6,), node),
        Instruction(Gate.SWAP, (), (6, 7), node),
        Instruction(Gate.Z, (), (7,), node),
        Instruction(Gate.MCX, (5, 6), (7,), node),
        Instruction(Gate.DIFFUSION, (5,), (6, 7), node, 3),
    )
    state = random_sparse_state(8, np.random.default_rng(2), support=20)
    state = SparseState({tuple(q for q in k if q < 5): a for k, a in state.amps.items()}, 8)
    assert_same_amps(run(Circuit(layout, instrs), state).amps, state.amps)


def test_columns_sharing_low_keys_match_each_column_alone():
    circ = mixed_circuit()
    n = circ.n_qubits
    rng = np.random.default_rng(23)
    lows = rng.choice(1 << n, size=6, replace=False).tolist()
    columns = []
    for _ in range(5):
        keys = [qubits_of(k, n) for k in rng.choice(lows, size=4, replace=False).tolist()]
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        columns.append(dict(zip(keys, map(complex, amps))))
    assert len({k for col in columns for k in col}) < sum(map(len, columns))
    joint: dict = {}
    for col, amps in enumerate(columns):
        for k, a in amps.items():
            joint.setdefault(frozenset(k), {})[col] = a
    out = simulator._Columns(joint, n)
    simulator._evolve(out, circ)
    for col, amps in enumerate(columns):
        want = reference_run(circ, SparseState(amps, n))
        got = {tuple(sorted(out.keys[i])): grp[col] for i, grp in out.groups.items() if col in grp}
        np.testing.assert_allclose(
            sparse_to_dense(SparseState(got, n)), sparse_to_dense(want), rtol=0, atol=1e-13
        )


def test_diffusion_sums_in_slot_order():
    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit, so the
    # result must not depend on the order the amplitudes were stored in.
    ins = Instruction(Gate.DIFFUSION, (0,), (2, 1), EDGE0, 3)
    keys = [(0,), (0, 2), (0, 1)]  # slot values 0, 1, 2
    xs = [0.1 + 0j, 0.2 + 0j, 0.3 + 0j]
    forward = apply_gate(SparseState(dict(zip(keys, xs)), 3), ins)
    backward = apply_gate(
        SparseState(dict(zip(keys[::-1], xs[::-1])), 3), ins
    )
    assert_same_amps(backward.amps, forward.amps)
    twice_mean = (2.0 / 3) * (0 + xs[0] + xs[1] + xs[2])
    assert_same_amps(forward.amps, {k: twice_mean - x for k, x in zip(keys, xs)})


def test_run_errors_name_instruction_and_locus(monkeypatch):
    g = star_graph(3)
    circ = compile_step(g, hub_polarity(3), [0])
    (pos,) = [i for i, ins in enumerate(circ.instructions) if ins.gate is Gate.DIFFUSION]
    monkeypatch.setattr(simulator, "GATE_NORM_TOL", -1.0)
    with pytest.raises(
        SimulationError,
        match=rf"^gate diffusion changed the squared norm by \S+ \(instruction {pos}, node 0\)$",
    ):
        run(circ)


def test_support_error_names_instruction(monkeypatch):
    # A move that ORs its qubits in instead of flipping them sends the x's
    # () and (3,) to one key.
    def merging_move(cols, ids, bits):
        for i in ids:
            del cols.ids[cols.keys[i]]
        for i in ids:
            cols.keys[i] |= bits
            cols.ids[cols.keys[i]] = i

    monkeypatch.setattr(simulator._Columns, "_move", merging_move)
    layout = build_layout(complete_graph(2), coloring_polarity(complete_graph(2)))
    edge1 = Locus("edge", 1)
    instrs = (
        Instruction(Gate.Z, (), (0,), EDGE0),
        Instruction(Gate.Z, (), (1,), edge1),
        Instruction(Gate.X, (), (3,), edge1),
    )
    state = SparseState({(): 0.6 + 0j, (3,): 0.8 + 0j}, 4)
    with pytest.raises(
        SimulationError,
        match=r"^gate x mapped 2 low keys onto 1 \(instruction 2, edge 1\)$",
    ):
        run(Circuit(layout, instrs), state)


# sha256 of the simulator's outputs, recorded with the block simulator that
# the gate-by-gate one replaced: its outputs must stay bitwise the same.
_RUN_STAR40_SHA256 = "69732478bf5b677e4ba9c751b66b61ff7a3f1ef721e5764c4f2da4839e3e4680"
_COLUMNS_REGULAR250_SHA256 = "14ce25a2f58bf1a2cd5220a19af256205daca2e0635d98a18de5b14a5f1dc991"
# The star's single hub diffusion has d = 239 slots.
_COLUMNS_STAR239_SHA256 = "6817a9570a1ad83519b6b72e3b6ce22feb74d6887537adb81e89fcb5f5253430"


def test_run_output_bytes_are_pinned():
    g = star_graph(40)
    out = run(compile_step(g, coloring_polarity(g), [0]))
    pairs = sorted((key_of(k, out.n_qubits), a) for k, a in out.amps.items())
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == _RUN_STAR40_SHA256


def test_circuit_columns_bytes_are_pinned():
    for g, want in [
        (random_regular_graph(250, 4, seed=1), _COLUMNS_REGULAR250_SHA256),
        (star_graph(239), _COLUMNS_STAR239_SHA256),
    ]:
        mat, leak = circuit_matrix(compile_step(g, coloring_polarity(g), [0]))
        digest = hashlib.sha256(mat.tobytes() + leak.tobytes()).hexdigest()
        assert digest == want


def sparse_gap(a: SparseState, b: SparseState) -> float:
    return max(abs(a.amps.get(k, 0) - b.amps.get(k, 0)) for k in a.amps.keys() | b.amps.keys())


@pytest.mark.parametrize(
    "g",
    [star_graph(40), starify(random_connected_graph(12, extra_edges=10, seed=4)).graph],
    ids=["star40", "starified"],
)
def test_compiled_step_from_superposition_matches_reference_and_walk(g):
    p = coloring_polarity(g)
    marked = [g.n_edges - 1]
    circ = compile_step(g, p, marked)
    start = init_walk_superposition(circ.layout)
    out = run(circ, start)
    assert sparse_gap(out, reference_run(circ, start)) <= 1e-13
    model = evolve(g, p, OracleSpec(marked=frozenset(marked)), 1)
    stepped = project_to_walk_state(out, circ.layout)
    np.testing.assert_allclose(stepped.psi, model.psi, rtol=0, atol=1e-12)


def test_verify_250_node_regular_graph_exactly():
    g = random_regular_graph(250, 4, seed=1)
    p = coloring_polarity(g)
    report = verify_circuit_equivalence(g, p, [0], compile_step(g, p, [0]))
    assert (report.max_deviation, report.max_leakage) == (0.0, 0.0)


def test_verify_peaks_below_a_quarter_of_one_dense_matrix():
    # E = 500: one dense (2E)^2 complex array is 15.3 MiB.  Both sides of
    # the comparison stay sparse, O(sum of d^2) entries each.
    g = random_regular_graph(250, 4, seed=1)
    p = coloring_polarity(g)
    tracemalloc.start()
    try:
        report = verify_circuit_equivalence(g, p, [0], compile_step(g, p, [0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 0.25 * (2 * g.n_edges) ** 2 * 16
