"""Circuit compiler: layout, gate blocks, serialization, and the audit."""

from __future__ import annotations

import json

import numpy as np
import pytest

from graphwalk import (
    Circuit,
    CircuitError,
    DiffusionOperator,
    Gate,
    Instruction,
    Locus,
    PolarityMap,
    QubitLayout,
    SparseState,
    build_layout,
    circuit_from_json,
    compile_coin,
    compile_diffusion,
    compile_oracle,
    compile_scatter,
    compile_step,
    compile_transfer,
    compile_transfer_k,
    complete_graph,
    cycle_graph,
    greedy_coloring,
    invert_instructions,
    locality_audit,
    path_graph,
    polarity_from_coloring,
    random_connected_graph,
    star_graph,
    step_circuit_matrix,
    verify_circuit_equivalence,
)
from graphwalk.simulator import apply_instruction
from helpers import diffusion_matrix


def coloring_polarity(g):
    return polarity_from_coloring(g, greedy_coloring(g))


def hub_polarity(m):
    return PolarityMap((0,) * m)


def path3_layout():
    g = path_graph(3)
    return build_layout(g, coloring_polarity(g))


def run_instructions(instrs, state):
    for ins in instrs:
        state = apply_instruction(state, ins)
    return state


def test_layout_path3():
    layout = path3_layout()
    assert layout.n_qubits == 8
    assert layout.edge_qubits == ((0, 1), (2, 3))
    assert [reg.binary for reg in layout.node_registers] == [(), (5,), ()]
    assert [reg.flag for reg in layout.node_registers] == [4, 6, 7]
    # Greedy colors (0, 1, 0) put both + poles at node 1.
    assert layout.facing == ((1,), (0, 2), (3,))
    assert [[q // 2 for q in f] for f in layout.facing] == [[0], [0, 1], [1]]
    assert layout.degree(1) == 2


def test_layout_star4():
    g = star_graph(4)
    layout = build_layout(g, hub_polarity(4))
    assert layout.n_qubits == 15
    assert layout.node_registers[0].binary == (8, 9)
    assert layout.node_registers[0].flag == 10
    assert layout.facing[0] == (0, 2, 4, 6)
    assert [layout.node_registers[u].flag for u in range(1, 5)] == [11, 12, 13, 14]


def test_layout_single_edge():
    g = complete_graph(2)
    layout = build_layout(g, coloring_polarity(g))
    assert layout.n_qubits == 4
    assert layout.n_edges == 1
    assert layout.n_nodes == 2


def test_layout_checks_facing_when_built_directly():
    assert QubitLayout(((1,), (0,))).n_qubits == 4
    with pytest.raises(CircuitError, match=r"^layout\.facing: both poles of edge 0 face node 0$"):
        QubitLayout(((0, 1), ()))
    with pytest.raises(CircuitError, match=r"^layout\.facing\[1\]\[0\]: qubit 0 already"):
        QubitLayout(((0,), (0,)))
    # A negative entry beside one beyond int64 makes a float array.
    with pytest.raises(CircuitError, match=r"^layout\.facing\[0\]\[0\]: qubit -1 outside"):
        QubitLayout(((-1,), (2**63,)))


@pytest.mark.parametrize("seed", range(4))
def test_layout_partitions_qubits(seed):
    g = random_connected_graph(9, extra_edges=6, seed=seed)
    layout = build_layout(g, coloring_polarity(g))
    seen: list[int] = []
    for pair in layout.edge_qubits:
        seen.extend(pair)
    for reg in layout.node_registers:
        seen.extend(reg.binary)
        seen.append(reg.flag)
    assert sorted(seen) == list(range(layout.n_qubits))


@pytest.mark.parametrize("seed", range(4))
def test_each_pole_faces_exactly_one_node(seed):
    g = random_connected_graph(9, extra_edges=6, seed=seed)
    p = coloring_polarity(g)
    layout = build_layout(g, p)
    flat = [q for f in layout.facing for q in f]
    assert sorted(flat) == list(range(2 * g.n_edges))
    for u in range(g.n):
        edges = [q // 2 for q in layout.facing[u]]
        assert edges == g.edge[g.indptr[u] : g.indptr[u + 1]].tolist()
        for q, k in zip(layout.facing[u], edges):
            assert q == layout.edge_qubits[k][p.component_at(k, u)]


def test_enumeration_seed_permutes_slots():
    g = star_graph(8)
    p = hub_polarity(8)
    plain = build_layout(g, p)
    shuffled = build_layout(g, p, enumeration_seed=3)
    assert sorted(shuffled.facing[0]) == sorted(plain.facing[0])
    assert shuffled.facing[0] != plain.facing[0]
    assert shuffled.node_registers == plain.node_registers
    again = build_layout(g, p, enumeration_seed=3)
    assert again.facing == shuffled.facing


def test_oracle_block_shape():
    layout = path3_layout()
    instrs = compile_oracle(layout, [1])
    assert [i.gate for i in instrs] == [Gate.Z, Gate.Z, Gate.SWAP]
    assert instrs[0].targets == (2,)
    assert instrs[1].targets == (3,)
    assert instrs[2].targets == (2, 3)
    assert all(i.locus == Locus("edge", 1) for i in instrs)
    assert compile_oracle(layout, []) == ()
    with pytest.raises(CircuitError, match="out of range"):
        compile_oracle(layout, [5])


def test_oracle_action_is_minus_pole_swap():
    g = complete_graph(2)
    layout = build_layout(g, coloring_polarity(g))
    instrs = compile_oracle(layout, [0])
    plus = SparseState({0b1000: 1.0 + 0j}, 4)
    out = run_instructions(instrs, plus)
    assert out.amps == {0b0100: -1.0 + 0j}
    minus = SparseState({0b0100: 1.0 + 0j}, 4)
    out = run_instructions(instrs, minus)
    assert out.amps == {0b1000: -1.0 + 0j}


def test_coin_block():
    layout = path3_layout()
    instrs = compile_coin(layout)
    assert len(instrs) == 2
    assert all(i.gate is Gate.SWAP for i in instrs)
    assert instrs[0].targets == (0, 1)
    assert instrs[1].targets == (2, 3)
    assert [i.locus for i in instrs] == [Locus("edge", 0), Locus("edge", 1)]


def test_transfer_k_degree_1_sequence():
    layout = path3_layout()
    instrs = compile_transfer_k(layout, 0, 1)
    # No slot bits: just the flag write and the flag-controlled erase.
    assert [i.gate for i in instrs] == [Gate.CNOT, Gate.MCX]
    eta = layout.facing[0][0]
    flag = layout.node_registers[0].flag
    assert instrs[0] == Instruction(Gate.CNOT, (eta,), (flag,), Locus("node", 0))
    assert instrs[1] == Instruction(Gate.MCX, (flag,), (eta,), Locus("node", 0))


def test_transfer_k_degree_4_slot_3_sequence():
    g = star_graph(4)
    layout = build_layout(g, hub_polarity(4))
    instrs = compile_transfer_k(layout, 0, 3)
    eta = 4  # + pole of edge 2, the third incident edge
    locus = Locus("node", 0)
    # Slot value 2 sets only bit 1 (qubit 9); its zero bit 8 is no control.
    assert instrs == (
        Instruction(Gate.CNOT, (eta,), (9,), locus),
        Instruction(Gate.CNOT, (eta,), (10,), locus),
        Instruction(Gate.MCX, (9, 10), (eta,), locus),
    )


def test_step_gate_kinds():
    g = star_graph(5)
    kinds = {ins.gate for ins in compile_step(g, hub_polarity(5), [0]).instructions}
    assert kinds == {Gate.Z, Gate.SWAP, Gate.CNOT, Gate.MCX, Gate.DIFFUSION}


def test_transfer_k_rejects_bad_slot():
    layout = path3_layout()
    with pytest.raises(CircuitError, match="no slot"):
        compile_transfer_k(layout, 0, 2)
    with pytest.raises(CircuitError, match="no slot"):
        compile_transfer_k(layout, 1, 0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 16])
def test_transfer_defining_action(d):
    g = star_graph(d)
    layout = build_layout(g, hub_polarity(d))
    instrs = compile_transfer(layout, 0)
    binary, flag = layout.node_registers[0]
    n = layout.n_qubits
    probe = SparseState({0: 1.0 + 0j}, n)
    assert run_instructions(instrs, probe).amps == {0: 1.0 + 0j}
    for k in range(1, d + 1):
        eta = layout.facing[0][k - 1]
        start = SparseState({}, n)
        start.amps = {start.mask(eta): 1.0 + 0j}
        out = run_instructions(instrs, start)
        expected = out.mask(flag)
        for i, q in enumerate(binary):
            if (k - 1) >> i & 1:
                expected |= out.mask(q)
        assert out.amps == {expected: 1.0 + 0j}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_transfer_then_inverse_fixes_every_local_state(d):
    g = star_graph(d)
    layout = build_layout(g, hub_polarity(d))
    instrs = compile_transfer(layout, 0)
    roundtrip = instrs + invert_instructions(instrs)
    binary, flag = layout.node_registers[0]
    local = list(layout.facing[0]) + list(binary) + [flag]
    n = layout.n_qubits
    probe = SparseState({}, n)
    for bits in range(2 ** len(local)):
        key = 0
        for i, q in enumerate(local):
            if bits >> i & 1:
                key |= probe.mask(q)
        out = run_instructions(roundtrip, SparseState({key: 1.0 + 0j}, n))
        assert out.amps == {key: 1.0 + 0j}


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("d", [3, 4, 5, 7, 16])
def test_inverse_transfer_returns_every_slot_value(d, seed):
    # The inverse runs slots d..1.  Slot k's MCX would also fire on a value
    # above k-1 that holds k-1's bits, but such values have left by then.
    layout = build_layout(star_graph(d), hub_polarity(d), enumeration_seed=seed)
    inverse = invert_instructions(compile_transfer(layout, 0))
    binary, flag = layout.node_registers[0]
    n = layout.n_qubits
    probe = SparseState({}, n)
    for v in range(d):
        key = probe.mask(flag)
        for i, q in enumerate(binary):
            if v >> i & 1:
                key |= probe.mask(q)
        out = run_instructions(inverse, SparseState({key: 1.0 + 0j}, n))
        assert out.amps == {probe.mask(layout.facing[0][v]): 1.0 + 0j}


def test_diffusion_degree_2_is_pole_swap_matrix():
    layout = path3_layout()
    (ins,) = compile_diffusion(layout, 1)
    assert ins == Instruction(
        Gate.DIFFUSION,
        (layout.node_registers[1].flag,),
        layout.node_registers[1].binary,
        Locus("node", 1),
        2,
    )
    np.testing.assert_array_equal(diffusion_matrix(ins), [[0, 1], [1, 0]])


def test_diffusion_degree_1_empty():
    layout = path3_layout()
    assert compile_diffusion(layout, 0) == ()
    assert compile_diffusion(layout, 2) == ()


def test_diffusion_degree_3_pads_identity():
    g = star_graph(3)
    layout = build_layout(g, hub_polarity(3))
    (ins,) = compile_diffusion(layout, 0)
    assert ins.d == 3
    expected = np.eye(4)
    expected[:3, :3] = DiffusionOperator(3).matrix
    binary, flag = layout.node_registers[0]
    n = layout.n_qubits
    probe = SparseState({}, n)
    for v in range(4):
        key = probe.mask(flag)
        for i, q in enumerate(binary):
            if v >> i & 1:
                key |= probe.mask(q)
        out = apply_instruction(SparseState({key: 1.0 + 0j}, n), ins)
        column = np.zeros(4, dtype=complex)
        for k, a in out.amps.items():
            column[sum(1 << i for i, q in enumerate(binary) if k & probe.mask(q))] = a
        np.testing.assert_allclose(column, expected[:, v], rtol=0, atol=1e-15)


def test_scatter_low_degree_blocks():
    # (2/d)J - I is the identity at degree 1 and the pole swap at degree 2.
    layout = path3_layout()
    assert compile_scatter(layout, 0) == ()
    assert compile_scatter(layout, 2) == ()
    assert compile_scatter(layout, 1) == (
        Instruction(Gate.SWAP, (), layout.facing[1], Locus("node", 1)),
    )
    g = cycle_graph(5)
    p = coloring_polarity(g)
    assert {ins.gate for ins in compile_step(g, p, [0]).instructions} == {
        Gate.Z,
        Gate.SWAP,
    }
    assert verify_circuit_equivalence(g, p, [0], tolerance=1e-10).ok


def test_invert_is_reversal():
    # Every gate is its own inverse, the diffusion included.
    g = star_graph(3)
    layout = build_layout(g, hub_polarity(3))
    transfer = compile_transfer(layout, 0)
    assert invert_instructions(transfer) == tuple(reversed(transfer))
    assert invert_instructions(invert_instructions(transfer)) == transfer
    block = compile_scatter(layout, 0)
    assert invert_instructions(block) == block


def test_compile_step_phase_structure():
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    kinds = [ph.kind for ph in circ.phases]
    assert kinds == ["oracle", "coin", "scatter", "scatter", "scatter"]
    assert circ.phases[0].start == 0
    for prev, cur in zip(circ.phases, circ.phases[1:]):
        assert prev.stop == cur.start
    assert circ.phases[-1].stop == len(circ.instructions)
    assert circ.phases[0].stop == 3  # one marked edge
    assert circ.phases[1].stop - circ.phases[1].start == g.n_edges
    assert [ph.node for ph in circ.phases] == [None, None, 0, 1, 2]


def test_scatter_blocks_use_disjoint_qubits():
    g = cycle_graph(5)
    circ = compile_step(g, coloring_polarity(g), [0])
    touched: dict[int, set[int]] = {}
    for ph in circ.phases:
        if ph.kind != "scatter":
            continue
        qs: set[int] = set()
        for ins in circ.instructions[ph.start : ph.stop]:
            qs.update(ins.qubits())
        touched[ph.node] = qs
    nodes = list(touched)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            assert not touched[u] & touched[v]


def test_step_circuit_enumeration_invariant():
    g = star_graph(3)
    p = hub_polarity(3)
    plain, _ = step_circuit_matrix(compile_step(g, p, [0]))
    shuffled, _ = step_circuit_matrix(compile_step(g, p, [0], enumeration_seed=5))
    np.testing.assert_allclose(plain, shuffled, atol=1e-12)


def test_circuit_json_roundtrip():
    g = star_graph(4)
    circ = compile_step(g, hub_polarity(4), [2])
    back = circuit_from_json(circ.to_json())
    assert back.layout == circ.layout
    assert back.instructions == circ.instructions
    assert back.phases == circ.phases
    assert len(back.phases) == 2 + g.n


def test_circuit_json_deterministic():
    g = random_connected_graph(7, extra_edges=4, seed=1)
    p = coloring_polarity(g)
    assert compile_step(g, p, [1]).to_json() == compile_step(g, p, [1]).to_json()


def test_circuit_json_schema():
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    doc = json.loads(circ.to_json())
    assert set(doc) == {"layout", "instructions", "phases"}
    assert doc["layout"] == {"facing": [[1], [0, 2], [3]]}
    assert circuit_from_json(circ.to_json()).n_qubits == 8
    first = doc["instructions"][0]
    assert set(first) == {"gate", "controls", "targets", "locus"}
    assert first["gate"] == "z"
    assert doc["phases"][:2] == [
        {"kind": "oracle", "node": None, "start": 0, "stop": 3},
        {"kind": "coin", "node": None, "start": 3, "stop": 5},
    ]
    # Path-3's middle node has degree 2 and scatters with a plain swap.
    assert not [ins for ins in doc["instructions"] if "d" in ins]
    g = star_graph(3)
    doc = json.loads(compile_step(g, hub_polarity(3), [0]).to_json())
    (diffusion,) = [ins for ins in doc["instructions"] if "d" in ins]
    assert diffusion == {
        "gate": "diffusion", "controls": [8], "targets": [6, 7],
        "locus": {"kind": "node", "id": 0}, "d": 3,
    }


def test_circuit_from_json_rejects_garbage():
    with pytest.raises(CircuitError, match="invalid JSON"):
        circuit_from_json("{nope")
    with pytest.raises(CircuitError, match="JSON object"):
        circuit_from_json("[]")
    with pytest.raises(CircuitError, match="missing 'layout'"):
        circuit_from_json("{}")


def tampered_doc(mutate):
    g = complete_graph(2)
    circ = compile_step(g, coloring_polarity(g), [0])
    doc = circ.to_json_dict()
    mutate(doc)
    return json.dumps(doc)


def test_circuit_from_json_rejects_unknown_gate():
    def mutate(doc):
        doc["instructions"][0]["gate"] = "toffoli"

    with pytest.raises(CircuitError, match="instruction 0"):
        circuit_from_json(tampered_doc(mutate))


def test_circuit_from_json_rejects_non_unitary_matrix():
    # Dense payloads are gone: a former `ctrl-unitary` instruction fails as
    # an unknown gate, unitary or not, and its document must be recompiled.
    for matrix in ([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
                   [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]):
        def mutate(doc):
            doc["instructions"].append(
                {
                    "gate": "ctrl-unitary",
                    "controls": [0],
                    "targets": [1],
                    "locus": {"kind": "edge", "id": 0},
                    "matrix": matrix,
                }
            )

        with pytest.raises(CircuitError) as info:
            circuit_from_json(tampered_doc(mutate))
        assert str(info.value) == (
            "instruction 4: malformed ('ctrl-unitary' is not a valid Gate)"
        )


def _star3_doc():
    return compile_step(star_graph(3), hub_polarity(3), [0]).to_json_dict()


# The hub's diffusion, the one instruction of `_star3_doc` that carries `d`.
_HUB_DIFFUSION = next(
    i for i, ins in enumerate(_star3_doc()["instructions"]) if ins["gate"] == "diffusion"
)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("layout", "facing", 0, 2), 4.0, "layout.facing[0][2] must be a JSON integer"),
        (("layout", "facing", 3, 0), True, "layout.facing[3][0] must be a JSON integer"),
        (("instructions", 0, "targets", 0), "0", "instruction 0: targets[0] must be a JSON integer"),
        (("instructions", 6, "controls", 0), 2.9,
         "instruction 6: controls[0] must be a JSON integer"),
        (("instructions", 1, "locus", "id"), False, "instruction 1: locus.id must be a JSON integer"),
        (("instructions", 1, "locus", "kind"), False,
         "instruction 1: locus.kind must be a JSON string"),
        (("instructions", _HUB_DIFFUSION, "d"), 3.0,
         f"instruction {_HUB_DIFFUSION}: d must be a JSON integer"),
        (("instructions", _HUB_DIFFUSION, "d"), "3",
         f"instruction {_HUB_DIFFUSION}: d must be a JSON integer"),
        (("phases", 1, "start"), "2", "phases[1].start must be a JSON integer"),
        (("phases", 2, "node"), False, "phases[2].node must be a JSON integer"),
        (("phases", 0, "kind"), ["nonsense"], "phases[0].kind must be a JSON string"),
    ],
    ids=[
        "facing-float", "facing-true",
        "target-string", "control-float", "locus-id-false", "locus-kind-false",
        "d-float", "d-string", "phase-start-string", "phase-node-false", "phase-kind-list",
    ],
)
def test_circuit_from_json_requires_integers(path, value, message):
    doc = _star3_doc()
    circuit_from_json(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == message


def test_circuit_from_json_checks_phase_spans():
    doc = _star3_doc()
    n_ins = len(doc["instructions"])
    del doc["phases"]
    assert circuit_from_json(json.dumps(doc)).phases == ()
    for span, message in [
        ((0, n_ins + 1), f"phases[0]: span [0, {n_ins + 1}) outside [0, {n_ins}]"),
        ((3, 2), f"phases[0]: span [3, 2) outside [0, {n_ins}]"),
        ((-1, 0), f"phases[0]: span [-1, 0) outside [0, {n_ins}]"),
    ]:
        doc["phases"] = [{"kind": "coin", "node": None, "start": span[0], "stop": span[1]}]
        with pytest.raises(CircuitError) as info:
            circuit_from_json(json.dumps(doc))
        assert str(info.value) == message
    doc["phases"] = [{"kind": "coin", "node": None, "start": 0}]
    with pytest.raises(CircuitError, match="phases\\[0\\] missing 'stop'"):
        circuit_from_json(json.dumps(doc))


def test_circuit_from_json_rejects_out_of_range_qubit():
    def mutate(doc):
        doc["instructions"][0]["targets"] = [4]  # one edge: 2 edge qubits + 2 flags

    with pytest.raises(CircuitError, match="beyond"):
        circuit_from_json(tampered_doc(mutate))


def _set(path, value):
    """Mutation that sets doc["layout"][path...] to value(doc)."""

    def mutate(doc):
        node = doc["layout"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(doc)

    return mutate


@pytest.mark.parametrize(
    "mutate, match",
    [
        (_set(("facing",), lambda doc: doc["layout"]["facing"][:-1]),
         r"^layout\.facing: no node faces qubit 5 of edge 2$"),
        (_set(("facing", 0), lambda doc: doc["layout"]["facing"][0][:2]),
         r"^layout\.facing: no node faces qubit 4 of edge 2$"),
        (_set(("facing", 1, 0), lambda doc: 2),
         r"^layout\.facing\[1\]\[0\]: qubit 2 already faces node 0$"),
        (_set(("facing", 3, 0), lambda doc: 1),
         r"^layout\.facing\[3\]\[0\]: qubit 1 already faces node 1$"),
        (_set(("facing", 0, 2), lambda doc: 6),
         r"^layout\.facing\[0\]\[2\]: qubit 6 outside \[0, 6\)$"),
        (_set(("facing", 2, 0), lambda doc: -1),
         r"^layout\.facing\[2\]\[0\]: qubit -1 outside \[0, 6\)$"),
        (_set(("facing", 1, 0), lambda doc: 2**70),
         rf"^layout\.facing\[1\]\[0\]: qubit {2**70} outside \[0, 6\)$"),
        (_set(("facing",), lambda doc: [[0, 1, 4], [2], [3], [5]]),
         r"^layout\.facing: both poles of edge 0 face node 0$"),
    ],
    ids=[
        "facing-short",
        "facing-fewer-than-local-edges",
        "facing-not-on-its-edge",
        "facing-repeats-a-qubit",
        "facing-out-of-range",
        "facing-negative",
        "facing-beyond-64-bits",
        "poles-face-one-node",
    ],
)
def test_circuit_from_json_rejects_inconsistent_layout(mutate, match):
    g = star_graph(3)
    doc = compile_step(g, hub_polarity(3), [0]).to_json_dict()
    assert doc["layout"] == {"facing": [[0, 2, 4], [1], [3], [5]]}
    circuit_from_json(json.dumps(doc))
    mutate(doc)
    with pytest.raises(CircuitError, match=match):
        circuit_from_json(json.dumps(doc))


def test_path3_facing_with_a_repeated_qubit_is_rejected():
    # Node 2 claims qubit 2, node 1's, so no node faces qubit 3.  Every
    # instruction still fits the register, which is why only the facing
    # check can catch it.
    g = path_graph(3)
    doc = compile_step(g, coloring_polarity(g), [0]).to_json_dict()
    assert doc["layout"]["facing"] == [[1], [0, 2], [3]]
    doc["layout"]["facing"][2] = [2]
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == "layout.facing[2][0]: qubit 2 already faces node 1"


def _with_parent_layout_keys(circ):
    """The circuit document with the derived keys older documents stored."""
    layout = circ.layout
    doc = circ.to_json_dict()
    doc["qubits"] = circ.n_qubits
    doc["layout"] = {
        "edge_qubits": [list(pair) for pair in layout.edge_qubits],
        "node_registers": [
            {"binary": list(reg.binary), "flag": reg.flag} for reg in layout.node_registers
        ],
        "facing": [list(f) for f in layout.facing],
        "local_edges": [[q // 2 for q in f] for f in layout.facing],
    }
    return doc


@pytest.mark.parametrize(
    "g, seed",
    [
        (path_graph(3), None),
        (star_graph(5), None),
        (star_graph(9), 4),
        (random_connected_graph(8, extra_edges=6, seed=3), None),
        (random_connected_graph(8, extra_edges=6, seed=3), 11),
    ],
)
def test_documents_with_parent_layout_keys_load(g, seed):
    p = coloring_polarity(g)
    circ = compile_step(g, p, [0], enumeration_seed=seed)
    doc = _with_parent_layout_keys(circ)
    back = circuit_from_json(json.dumps(doc))
    assert back == circ
    report = verify_circuit_equivalence(g, p, [0], circuit=back)
    assert (report.max_deviation, report.max_leakage) == (0.0, 0.0)
    # The derived keys are not read, so not checked either.
    doc["qubits"] = "stale"
    doc["layout"]["local_edges"] = None
    assert circuit_from_json(json.dumps(doc)) == circ


def _put(*path, value):
    """Mutation that sets doc[path...] to value."""

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _clear_layout(doc):
    doc["layout"] = {key: {} for key in doc["layout"]}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_put("instructions", value=5), "instructions must be a JSON array"),
        (_put("instructions", value=None), "instructions must be a JSON array"),
        (_put("instructions", value={}), "instructions must be a JSON array"),
        (_put("instructions", value=""), "instructions must be a JSON array"),
        (_put("layout", value=[]), "layout must be a JSON object"),
        (_clear_layout, "layout.facing must be a JSON array"),
        (_put("layout", value={}), "layout.facing must be a JSON array"),
        (_put("layout", "facing", value={}), "layout.facing must be a JSON array"),
        (_put("layout", "facing", 2, value={}), "layout.facing[2] must be a JSON array"),
        (_put("instructions", 1, value=[]), "instruction 1 must be a JSON object"),
        (_put("instructions", 0, "controls", value={}),
         "instruction 0: controls must be a JSON array"),
        (_put("instructions", 0, "targets", value=0),
         "instruction 0: targets must be a JSON array"),
        (_put("phases", value={}), "phases must be a JSON array"),
        (_put("phases", 0, value=[]), "phases[0] must be a JSON object"),
    ],
    ids=[
        "instructions-number",
        "instructions-null",
        "instructions-object",
        "instructions-string",
        "layout-array",
        "layout-all-objects",
        "layout-without-facing",
        "facing-object",
        "facing-entry-object",
        "instruction-array",
        "controls-object",
        "targets-number",
        "phases-object",
        "phase-array",
    ],
)
def test_circuit_from_json_requires_arrays_and_objects(mutate, message):
    doc = _star3_doc()
    mutate(doc)
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == message


def _respan(index, start, stop):
    def mutate(doc):
        doc["phases"][index].update(start=start, stop=stop)

    return mutate


_TILE = "phases must tile the instructions in order"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_put("phases", 0, value={"kind": "nonsense", "node": 99, "start": 0, "stop": 1}),
         "phases[0].kind must be oracle, coin or scatter, got 'nonsense'"),
        (_put("phases", 1, "node", value=0), "phases[1].node must be null for kind coin, got 0"),
        (_put("phases", 0, "node", value=2),
         "phases[0].node must be null for kind oracle, got 2"),
        (_put("phases", 2, "node", value=4), "phases[2].node must be a node in [0, 4), got 4"),
        (_put("phases", 3, "node", value=-1), "phases[3].node must be a node in [0, 4), got -1"),
        (_put("phases", 4, "node", value=None),
         "phases[4].node must be a node in [0, 4), got null"),
        (_respan(1, 4, 6), f"phases[1].start must be 3, got 4: {_TILE}"),
        (_respan(1, 2, 6), f"phases[1].start must be 3, got 2: {_TILE}"),
        (_respan(0, 1, 3), f"phases[0].start must be 0, got 1: {_TILE}"),
        (lambda doc: doc["phases"].insert(1, doc["phases"][1]),
         f"phases[2].start must be 6, got 3: {_TILE}"),
        (lambda doc: doc.update(phases=doc["phases"][:2]),
         f"phases[1].stop must be 23, got 6: {_TILE}"),
    ],
    ids=[
        "kind-nonsense", "coin-with-node", "oracle-with-node", "scatter-node-beyond",
        "scatter-node-negative", "scatter-without-node", "gap", "overlap", "late-start",
        "repeated-phase", "short",
    ],
)
def test_circuit_from_json_checks_phase_kinds_nodes_and_tiling(mutate, message):
    doc = _star3_doc()
    # oracle [0, 3), coin [3, 6), the hub's scatter [6, 23), three empty leaf scatters.
    assert [(ph["start"], ph["stop"]) for ph in doc["phases"]][:3] == [(0, 3), (3, 6), (6, 23)]
    mutate(doc)
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == message


def test_instruction_validation():
    locus = Locus("edge", 0)
    with pytest.raises(CircuitError, match="reuses"):
        Instruction(Gate.CNOT, (1,), (1,), locus)
    with pytest.raises(CircuitError, match="negative"):
        Instruction(Gate.X, (), (-1,), locus)
    with pytest.raises(CircuitError, match="takes"):
        Instruction(Gate.X, (0,), (1,), locus)
    with pytest.raises(CircuitError, match="at least one control"):
        Instruction(Gate.MCX, (), (0,), locus)
    with pytest.raises(CircuitError, match="gate x does not take d"):
        Instruction(Gate.X, (), (0,), locus, 2)
    with pytest.raises(CircuitError, match="diffusion needs controls and targets"):
        Instruction(Gate.DIFFUSION, (), (1, 2), locus, 3)
    for targets, d in [((1,), None), ((1,), 1), ((1,), 3), ((1, 2), 5), ((1, 2, 3), 0)]:
        top = 1 << len(targets)
        with pytest.raises(CircuitError) as info:
            Instruction(Gate.DIFFUSION, (0,), targets, locus, d)
        assert str(info.value) == (
            f"diffusion on {len(targets)} targets needs 2 <= d <= {top}, got {d}"
        )
    for targets, d in [((1,), 2), ((1, 2), 3), ((1, 2), 4), ((1, 2, 3), 8)]:
        assert Instruction(Gate.DIFFUSION, (0,), targets, locus, d).d == d


@pytest.mark.parametrize(
    "g, seed",
    [
        (path_graph(3), None),
        (star_graph(4), 7),
        (cycle_graph(3), None),
        (random_connected_graph(8, extra_edges=5, seed=2), None),
    ],
)
def test_compiled_circuits_pass_locality_audit(g, seed):
    p = coloring_polarity(g)
    report = locality_audit(compile_step(g, p, [0], enumeration_seed=seed))
    assert report.ok
    assert report.violations == ()
    assert len(report.nodes) == g.n


def test_audit_flags_foreign_qubit():
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    stray = Instruction(Gate.X, (), (2,), Locus("edge", 0))
    bad = Circuit(circ.layout, circ.instructions + (stray,))
    report = locality_audit(bad)
    assert not report.ok
    assert len(report.violations) == 1
    assert "outside its edge 0" in report.violations[0]


def test_audit_flags_foreign_node_gate_and_unknown_edge():
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    other_flag = circ.layout.node_registers[2].flag
    foreign = Instruction(Gate.X, (), (other_flag,), Locus("node", 0))
    ghost = Instruction(Gate.X, (), (0,), Locus("edge", 99))
    bad = Circuit(circ.layout, circ.instructions + (foreign, ghost))
    report = locality_audit(bad)
    assert len(report.violations) == 2
    assert "outside its node 0" in report.violations[0]
    assert "unknown edge 99" in report.violations[1]


def controlled_gate_count(d):
    # Degree <= 2 scatters without the register (nothing, or one swap).
    if d <= 2:
        return 0
    return 2 * (sum(j.bit_count() for j in range(d)) + 2 * d)


@pytest.mark.parametrize("m", [2, 3, 4, 8, 64])
def test_audit_counts_match_formula(m):
    g = star_graph(m)
    report = locality_audit(compile_step(g, hub_polarity(m), [0]))
    hub = report.nodes[0]
    assert hub.degree == m
    assert hub.cnot_mcx == controlled_gate_count(m)
    assert hub.diffusion == (1 if m >= 3 else 0)
    leaf = report.nodes[1]
    assert leaf.degree == 1
    assert leaf.cnot_mcx == controlled_gate_count(1) == 0
    assert leaf.diffusion == 0


def test_audit_counts_within_loose_envelope():
    # Every compiled node stays below 2d(r + 2) controlled gates, and the
    # audit's stricter 2d(r + 1) holds at every degree: nodes of degree 1
    # and 2 spend none.
    for m in (1, 2, 3, 4, 8, 64):
        d = m
        r = (d - 1).bit_length() if d > 1 else 0
        assert controlled_gate_count(d) <= 2 * d * (r + 2)
    g = star_graph(64)
    report = locality_audit(compile_step(g, hub_polarity(64), [0]))
    hub = report.nodes[0]
    assert hub.bound == 2 * 64 * 7
    assert hub.within_bound
    assert report.all_within_bound


def test_audit_json_shape():
    g = path_graph(3)
    report = locality_audit(compile_step(g, coloring_polarity(g), [0]))
    doc = report.to_json_dict()
    assert set(doc) == {"ok", "all_within_bound", "violations", "nodes"}
    assert doc["ok"] is True
    assert [n["node"] for n in doc["nodes"]] == [0, 1, 2]
    assert all(
        set(n) == {"node", "degree", "cnot_mcx", "diffusion", "bound", "within_bound"}
        for n in doc["nodes"]
    )
