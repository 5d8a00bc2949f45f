"""Circuit compiler: layout, gate blocks, serialization, and the audit."""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import operator
import re

import numpy as np
import pytest

from graphwalk import (
    Circuit,
    CircuitError,
    Gate,
    Graph,
    Instruction,
    Locus,
    PolarityMap,
    QubitLayout,
    SparseState,
    build_layout,
    circuit_from_json,
    compile_coin,
    compile_oracle,
    compile_scatter,
    compile_step,
    complete_graph,
    cycle_graph,
    greedy_coloring,
    locality_audit,
    path_graph,
    polarity_from_coloring,
    random_connected_graph,
    star_graph,
    starify,
    verify_circuit_equivalence,
)
from graphwalk import compiler
from graphwalk.compiler import Phase
from helpers import apply_gate, circuit_matrix, document_dict, grover_matrix, random_regular_graph


def coloring_polarity(g):
    return polarity_from_coloring(g, greedy_coloring(g))


def hub_polarity(m):
    return PolarityMap((0,) * m)


def path3_layout():
    g = path_graph(3)
    return build_layout(g, coloring_polarity(g))


def run_instructions(instrs, state):
    for ins in instrs:
        state = apply_gate(state, ins)
    return state


def halves(layout, u):
    """The scatter block of node u, of degree 3 or more, as its forward
    transfer, its diffusion and its inverse transfer."""
    block = compile_scatter(layout, u)
    half = len(block) // 2
    return block[:half], block[half], block[half + 1 :]


def register_key(flag, binary, v):
    """The key of a node register holding slot value v with its flag set:
    the flag and each binary qubit i with bit i of v set."""
    return tuple(sorted([flag] + [q for i, q in enumerate(binary) if v >> i & 1]))


def test_layout_path3():
    layout = path3_layout()
    assert layout.n_qubits == 8
    assert layout.n_edges == 2
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
    # A negative entry beside one beyond int64: the first entry out of range is named.
    with pytest.raises(CircuitError, match=r"^layout\.facing\[0\]\[0\]: qubit -1 outside"):
        QubitLayout(((-1,), (2**63,)))
    # A cell must be an integer, by `_index`'s rule: a numpy integer is one, a bool is not.
    assert QubitLayout(((np.int64(1),), (0,))).polarity().plus_node.tolist() == [1]
    for cell in (True, 1.0, "1"):
        with pytest.raises(CircuitError) as info:
            QubitLayout(((cell,), (0,)))
        assert str(info.value) == f"layout.facing[0][0]: qubit {cell!r} is not an integer"


def _reference_facing_fault(facing):
    """The layout's `facing` check as per-cell loops: the first fault's message, or None."""
    cells = [(u, s, q) for u, f in enumerate(facing) for s, q in enumerate(f)]
    width = len(cells) + len(cells) % 2
    for u, s, q in cells:
        if not 0 <= q < width:
            return f"layout.facing[{u}][{s}]: qubit {q} outside [0, {width})"
    owner = [None] * width
    for u, s, q in cells:
        if owner[q] is not None:
            return f"layout.facing[{u}][{s}]: qubit {q} already faces node {owner[q]}"
        owner[q] = u
    if None in owner:
        q = owner.index(None)
        return f"layout.facing: no node faces qubit {q} of edge {q // 2}"
    for k, (plus, minus) in enumerate(zip(owner[0::2], owner[1::2])):
        if plus == minus:
            return f"layout.facing: both poles of edge {k} face node {plus}"
    return None


def test_layout_check_matches_a_per_cell_loop():
    # Shuffled qubits 0..w-1 with some replaced or dropped, cut into nodes.
    rng = np.random.default_rng(7)
    for _ in range(3000):
        w = int(rng.integers(0, 10))
        cells = rng.permutation(w).tolist()
        for _ in range(rng.integers(0, 3)):
            if cells and rng.random() < 0.5:
                cells[rng.integers(len(cells))] = int(rng.integers(-2, w + 3))
            elif cells:
                del cells[rng.integers(len(cells))]
        cuts = sorted(rng.integers(0, len(cells) + 1, size=rng.integers(0, 5)).tolist())
        facing = tuple(tuple(cells[a:b]) for a, b in zip([0, *cuts], [*cuts, len(cells)]))
        want = _reference_facing_fault(facing)
        if want is None:
            assert QubitLayout(facing).facing == facing
        else:
            with pytest.raises(CircuitError) as info:
                QubitLayout(facing)
            assert str(info.value) == want


@pytest.mark.parametrize(
    "block",
    [lambda layout, u: layout.degree(u), compile_scatter],
    ids=["degree", "compile_scatter"],
)
def test_layout_refuses_nodes_outside_it(block):
    layout = build_layout(star_graph(3), hub_polarity(3))
    for u in (-1, 4):
        with pytest.raises(CircuitError, match=rf"^node {u} outside 0\.\.3$"):
            block(layout, u)
    with pytest.raises(TypeError, match="bool"):
        block(layout, True)
    assert layout.degree(np.int64(0)) == 3


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize(
    "g",
    [star_graph(6), random_connected_graph(12, extra_edges=9, seed=2), starify(complete_graph(5)).graph],
    ids=["star-6", "random-12", "starified-K5"],
)
def test_layout_names_its_polarity(g, seed):
    for p in (coloring_polarity(g), PolarityMap(g.edges[:, 1])):
        circ = compile_step(g, p, [0], enumeration_seed=seed)
        assert circ.layout.polarity() == p
        assert circuit_from_json(circ.to_json()).layout.polarity() == p


@pytest.mark.parametrize("seed", range(4))
def test_layout_partitions_qubits(seed):
    g = random_connected_graph(9, extra_edges=6, seed=seed)
    layout = build_layout(g, coloring_polarity(g))
    seen = list(range(2 * layout.n_edges))
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
            assert q == 2 * k + p.component_at(k, u)


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


@pytest.mark.parametrize(
    "marked",
    [[2.9], ["1"], [np.float64(1.0)], [True], [False], [1, True], [0, False]],
    ids=["float", "string", "numpy-float", "true", "false", "int-then-true", "int-then-false"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda g, p, marked: compile_oracle(build_layout(g, p), marked),
        compile_step,
        lambda g, p, marked: verify_circuit_equivalence(g, p, marked, compile_step(g, p, [0])),
    ],
    ids=["oracle", "step", "verify"],
)
def test_marks_that_are_not_integers_are_rejected(build, marked):
    # True == 1 and False == 0: a bool after its equal int is still refused.
    g = path_graph(4)
    with pytest.raises(TypeError):
        build(g, coloring_polarity(g), marked)


def test_numpy_integer_marks_compile_as_ints():
    g = path_graph(4)
    p = coloring_polarity(g)
    assert compile_step(g, p, [np.int64(2)]).to_json() == compile_step(g, p, [2]).to_json()


def test_oracle_action_is_minus_pole_swap():
    g = complete_graph(2)
    layout = build_layout(g, coloring_polarity(g))
    instrs = compile_oracle(layout, [0])
    plus = SparseState({(0,): 1.0 + 0j}, 4)
    out = run_instructions(instrs, plus)
    assert out.amps == {(1,): -1.0 + 0j}
    minus = SparseState({(1,): 1.0 + 0j}, 4)
    out = run_instructions(instrs, minus)
    assert out.amps == {(0,): -1.0 + 0j}


def test_coin_block():
    layout = path3_layout()
    instrs = compile_coin(layout)
    assert len(instrs) == 2
    assert all(i.gate is Gate.SWAP for i in instrs)
    assert instrs[0].targets == (0, 1)
    assert instrs[1].targets == (2, 3)
    assert [i.locus for i in instrs] == [Locus("edge", 0), Locus("edge", 1)]


def test_transfer_k_degree_4_slot_3_sequence():
    g = star_graph(4)
    layout = build_layout(g, hub_polarity(4))
    transfer, _, _ = halves(layout, 0)
    eta = 4  # + pole of edge 2, the third incident edge
    locus = Locus("node", 0)
    # Slots 1 and 2 take 2 and 3 instructions.  Slot value 2 sets only bit 1
    # (qubit 9); its zero bit 8 is no control.
    assert transfer[5:8] == (
        Instruction(Gate.CNOT, (eta,), (9,), locus),
        Instruction(Gate.CNOT, (eta,), (10,), locus),
        Instruction(Gate.MCX, (9, 10), (eta,), locus),
    )


def test_step_gate_kinds():
    g = star_graph(5)
    kinds = {ins.gate for ins in compile_step(g, hub_polarity(5), [0]).instructions}
    assert kinds == {Gate.Z, Gate.SWAP, Gate.CNOT, Gate.MCX, Gate.DIFFUSION}


@pytest.mark.parametrize("d", [3, 4, 7, 16])
def test_transfer_defining_action(d):
    g = star_graph(d)
    layout = build_layout(g, hub_polarity(d))
    instrs, _, _ = halves(layout, 0)
    binary, flag = layout.node_registers[0]
    n = layout.n_qubits
    probe = SparseState({(): 1.0 + 0j}, n)
    assert run_instructions(instrs, probe).amps == {(): 1.0 + 0j}
    for k in range(1, d + 1):
        eta = layout.facing[0][k - 1]
        out = run_instructions(instrs, SparseState({(eta,): 1.0 + 0j}, n))
        expected = register_key(flag, binary, k - 1)
        assert out.amps == {expected: 1.0 + 0j}


@pytest.mark.parametrize("d", [3, 4])
def test_transfer_then_inverse_fixes_every_local_state(d):
    g = star_graph(d)
    layout = build_layout(g, hub_polarity(d))
    transfer, _, inverse = halves(layout, 0)
    roundtrip = transfer + inverse
    binary, flag = layout.node_registers[0]
    local = list(layout.facing[0]) + list(binary) + [flag]
    n = layout.n_qubits
    for bits in range(2 ** len(local)):
        key = tuple(sorted(q for i, q in enumerate(local) if bits >> i & 1))
        out = run_instructions(roundtrip, SparseState({key: 1.0 + 0j}, n))
        assert out.amps == {key: 1.0 + 0j}


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("d", [3, 4, 5, 7, 16])
def test_inverse_transfer_returns_every_slot_value(d, seed):
    # The inverse runs slots d..1.  Slot k's MCX would also fire on a value
    # above k-1 that holds k-1's bits, but such values have left by then.
    layout = build_layout(star_graph(d), hub_polarity(d), enumeration_seed=seed)
    _, _, inverse = halves(layout, 0)
    binary, flag = layout.node_registers[0]
    n = layout.n_qubits
    for v in range(d):
        key = register_key(flag, binary, v)
        out = run_instructions(inverse, SparseState({key: 1.0 + 0j}, n))
        assert out.amps == {(layout.facing[0][v],): 1.0 + 0j}


def test_diffusion_degree_3_pads_identity():
    g = star_graph(3)
    layout = build_layout(g, hub_polarity(3))
    _, ins, _ = halves(layout, 0)
    binary, flag = layout.node_registers[0]
    assert ins == Instruction(Gate.DIFFUSION, (flag,), binary, Locus("node", 0), 3)
    expected = np.eye(4)
    expected[:3, :3] = grover_matrix(3)
    n = layout.n_qubits
    for v in range(4):
        out = apply_gate(SparseState({register_key(flag, binary, v): 1.0 + 0j}, n), ins)
        column = np.zeros(4, dtype=complex)
        for k, a in out.amps.items():
            column[sum(1 << i for i, q in enumerate(binary) if q in k)] = a
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
    assert verify_circuit_equivalence(g, p, [0], compile_step(g, p, [0]), tolerance=1e-10).ok


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("d", [3, 4, 5, 8, 9, 256])
def test_transfer_is_its_slots_in_order(d, seed):
    # Slot v, for the node's v-th facing qubit eta: a CNOT from eta to each
    # one-bit of v and to the flag, then an MCX on those qubits that erases eta.
    layout = build_layout(star_graph(d), hub_polarity(d), enumeration_seed=seed)
    binary, flag = layout.node_registers[0]
    locus = Locus("node", 0)
    slots = []
    for v, eta in enumerate(layout.facing[0]):
        writes = tuple(q for i, q in enumerate(binary) if v >> i & 1) + (flag,)
        slots += [Instruction(Gate.CNOT, (eta,), (q,), locus) for q in writes]
        slots.append(Instruction(Gate.MCX, writes, (eta,), locus))
    transfer, _, _ = halves(layout, 0)
    assert transfer == tuple(slots)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("d", [3, 4, 9])
def test_scatter_inverse_half_is_the_forward_half_reversed_in_objects(d, seed):
    layout = build_layout(star_graph(d), hub_polarity(d), enumeration_seed=seed)
    transfer, diffusion, inverse = halves(layout, 0)
    assert diffusion.gate is Gate.DIFFUSION
    assert len(inverse) == len(transfer)
    assert all(map(operator.is_, inverse, reversed(transfer)))
    # The forward half itself holds no object twice.
    assert len(set(map(id, transfer))) == len(transfer)


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


def test_star3_phases_pinned():
    circ = compile_step(star_graph(3), hub_polarity(3), [0])
    assert circ.phases == (
        Phase("oracle", None, 0, 3),
        Phase("coin", None, 3, 6),
        Phase("scatter", 0, 6, 23),
        Phase("scatter", 1, 23, 23),
        Phase("scatter", 2, 23, 23),
        Phase("scatter", 3, 23, 23),
    )


def block_spans(g, p, marked, seed):
    """The step's spans from the lengths of the blocks `compile_step` joins."""
    layout = build_layout(g, p, enumeration_seed=seed)
    blocks = [("oracle", None, compile_oracle(layout, marked)), ("coin", None, compile_coin(layout))]
    blocks += [("scatter", u, compile_scatter(layout, u)) for u in range(g.n)]
    spans, start = [], 0
    for kind, node, block in blocks:
        spans.append(Phase(kind, node, start, start + len(block)))
        start += len(block)
    return tuple(spans)


@pytest.mark.parametrize("seed", [None, 4])
@pytest.mark.parametrize("marks", [0, 1, 5])
@pytest.mark.parametrize(
    "g",
    [
        random_connected_graph(9, extra_edges=7, seed=1),
        random_connected_graph(16, extra_edges=20, seed=6),
        complete_graph(5),
        star_graph(6),
    ],
    ids=["random-9", "random-16", "complete-5", "star-6"],
)
def test_derived_phases_survive_round_trip(g, marks, seed):
    p = coloring_polarity(g)
    marked = np.random.default_rng(marks).choice(g.n_edges, size=marks, replace=False)
    circ = compile_step(g, p, marked, enumeration_seed=seed)
    back = circuit_from_json(circ.to_json())
    assert back == circ
    assert back.phases == circ.phases == block_spans(g, p, marked, seed)
    assert circ.phases[0].stop == 3 * marks


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
    plain, _ = circuit_matrix(compile_step(g, p, [0]))
    shuffled, _ = circuit_matrix(compile_step(g, p, [0], enumeration_seed=5))
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
    assert set(doc) == {"layout", "instructions"}
    assert doc["layout"] == {"facing": [[1], [0, 2], [3]]}
    back = circuit_from_json(circ.to_json())
    assert back.n_qubits == 8
    first = doc["instructions"][0]
    assert set(first) == {"gate", "controls", "targets", "locus"}
    assert first["gate"] == "z"
    assert back.phases[:2] == (Phase("oracle", None, 0, 3), Phase("coin", None, 3, 5))
    # Path-3's middle node has degree 2 and scatters with a plain swap.
    assert not [ins for ins in doc["instructions"] if "d" in ins]
    g = star_graph(3)
    doc = json.loads(compile_step(g, hub_polarity(3), [0]).to_json())
    (diffusion,) = [ins for ins in doc["instructions"] if "d" in ins]
    assert diffusion == {
        "gate": "diffusion", "controls": [8], "targets": [6, 7],
        "locus": {"kind": "node", "id": 0}, "d": 3,
    }



_PINNED_CASES = [
    (star_graph(256), [0]),
    (Graph(8, [(k, 7) for k in range(7)]), [0]),  # the hub after its leaves
    (path_graph(5), [0]),
    (cycle_graph(6), [0]),
    (starify(complete_graph(7)).graph, [0]),
    (random_connected_graph(60, 120, seed=4), [0, 7]),
    (random_regular_graph(20, 4, seed=1), [0]),
]
_PINNED_SHA256 = "0e5aa16b9b5b34fe7b381cffba879b1e998becf8c0788daab8d017f8f70c0b51"


def test_compiled_documents_are_pinned():
    # The circuit and audit documents of every case, under both enumerations.
    digest = hashlib.sha256()
    for g, marked in _PINNED_CASES:
        for seed in (None, 3):
            circ = compile_step(g, coloring_polarity(g), marked, enumeration_seed=seed)
            digest.update(circ.to_json().encode())
            digest.update(locality_audit(circ).to_json().encode())
    assert digest.hexdigest() == _PINNED_SHA256

_NODE_MODE = starify(random_connected_graph(8, extra_edges=5, seed=3)).graph


@pytest.mark.parametrize(
    "g, marked, seed",
    [
        (star_graph(3), [0], None),
        (star_graph(256), [0], None),
        (path_graph(3), [0], None),  # degrees 1 and 2: empty scatters, "controls": []
        (complete_graph(4), [1], None),
        (random_connected_graph(10, extra_edges=8, seed=2), [3], None),
        (random_connected_graph(10, extra_edges=8, seed=2), [3], 9),
        (_NODE_MODE, [_NODE_MODE.n_edges - 1], None),
        (complete_graph(5), [], None),
        (complete_graph(5), [2, 7], 1),
    ],
    ids=[
        "star-3", "star-256", "path-3", "K4", "random", "random-enumeration-seed",
        "starified", "no-marks", "two-marks",
    ],
)
def test_to_json_writes_indented_json_dumps(g, marked, seed):
    circ = compile_step(g, coloring_polarity(g), marked, enumeration_seed=seed)
    text = circ.to_json()
    assert text == json.dumps(document_dict(circ), indent=2) + "\n"
    back = circuit_from_json(text)
    assert back == circ
    assert back.to_json() == text


@pytest.mark.parametrize(
    "circ",
    [
        Circuit(
            QubitLayout(((0,), (1,))),
            (
                Instruction(Gate.X, (), (0,), Locus("100%", 0)),
                Instruction(Gate.CNOT, (0,), (1,), Locus('say "%d"', 7)),
                Instruction(Gate.Z, (), (1,), Locus("n\u0153ud", 1)),
                Instruction(Gate.X, (), (1,), Locus("100%", 2)),  # a template used again
                Instruction(Gate.DIFFUSION, (2,), (0, 1), Locus("%s%%", 3), d=3),
            ),
        ),
        Circuit(QubitLayout(()), ()),
    ],
    ids=["kinds-to-escape", "empty"],
)
def test_to_json_writes_json_dumps_of_hand_built_circuits(circ):
    assert circ.to_json() == json.dumps(document_dict(circ), indent=2) + "\n"


def _shared_record_circuit():
    """A single edge whose oracle swap object is also its coin."""
    swap = Instruction(Gate.SWAP, (), (0, 1), Locus("edge", 0))
    return Circuit(QubitLayout(((0,), (1,))), (swap, swap))


@pytest.mark.parametrize(
    "circ",
    [
        compile_step(star_graph(256), hub_polarity(256), [0]),
        _shared_record_circuit(),
        Circuit(QubitLayout(()), ()),
    ],
    ids=["star-256", "one-record-twice", "empty"],
)
def test_to_json_is_the_same_for_shared_and_unshared_records(circ):
    text = circ.to_json()
    back = circuit_from_json(text)
    # The loaded circuit shares no record object, with the original or within itself.
    ids = set(map(id, back.instructions))
    assert len(ids) == len(back.instructions)
    assert not ids & set(map(id, circ.instructions))
    assert back.to_json() == text
    assert text == json.dumps(document_dict(circ), indent=2) + "\n"


def test_to_json_renders_records_by_identity_not_equality():
    # 1 == 1.0, so these records are equal, yet `%s` prints them apart: the
    # writer's table must not hand one record's text to the other.
    one = Instruction(Gate.X, (), (1,), Locus("edge", 0))
    other = Instruction(Gate.X, (), (1.0,), Locus("edge", 0))
    assert one == other
    text = Circuit(QubitLayout(((0,), (1,))), (one, other, one)).to_json()
    targets = re.findall(r'"targets": \[\n +(\S+)\n', text)
    assert targets == ["1", "1.0", "1"]


def test_to_json_builds_one_template_per_instruction_shape(monkeypatch):
    g = star_graph(16)
    circ = compile_step(g, coloring_polarity(g), [0])
    built, template = [], compiler._template
    monkeypatch.setattr(compiler, "_template", lambda *shape: built.append(shape) or template(*shape))
    text = circ.to_json()
    shapes = [(i.gate, len(i.controls), len(i.targets), i.locus.kind, i.d) for i in circ.instructions]
    assert sorted(built) == sorted(set(shapes))
    assert len(built) < len(shapes)
    assert text == json.dumps(document_dict(circ), indent=2) + "\n"


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fault", [None, "invalid JSON", "instruction 0"])
def test_circuit_from_json_pauses_the_collector_and_restores_it(monkeypatch, caller_enabled, fault):
    g = star_graph(3)
    text = {
        None: compile_step(g, coloring_polarity(g), [0]).to_json(),
        "invalid JSON": "{nope",
        "instruction 0": tampered_doc(lambda doc: doc["instructions"][0].update(gate="toffoli")),
    }[fault]
    during, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda s: during.append(gc.isenabled()) or loads(s))
    was_enabled = gc.isenabled()
    try:
        (gc.enable if caller_enabled else gc.disable)()
        if fault is None:
            assert circuit_from_json(text).n_qubits > 0
        else:
            with pytest.raises(CircuitError, match=fault):
                circuit_from_json(text)
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]
    assert after is caller_enabled


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
    doc = document_dict(circ)
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
    return document_dict(compile_step(star_graph(3), hub_polarity(3), [0]))


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
    ],
    ids=[
        "facing-float", "facing-true",
        "target-string", "control-float", "locus-id-false", "locus-kind-false",
        "d-float", "d-string",
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


_STAR256 = compile_step(star_graph(256), hub_polarity(256), [0])
# A hub mcx with at least four controls: slot value 7 or more has 3 one-bits.
_WIDE_MCX = next(
    pos for pos, ins in enumerate(_STAR256.instructions)
    if ins.gate is Gate.MCX and len(ins.controls) >= 4
)
_HUB256_DIFFUSION = next(
    pos for pos, ins in enumerate(_STAR256.instructions) if ins.gate is Gate.DIFFUSION
)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("instructions", _WIDE_MCX, "controls", 3), True,
         f"instruction {_WIDE_MCX}: controls[3] must be a JSON integer"),
        (("layout", "facing", 0, 200), 400.0, "layout.facing[0][200] must be a JSON integer"),
        (("instructions", _HUB256_DIFFUSION, "d"), "256",
         f"instruction {_HUB256_DIFFUSION}: d must be a JSON integer"),
    ],
    ids=["mcx-control-true", "facing-float-deep", "d-string"],
)
def test_circuit_from_json_names_a_fault_deep_in_a_long_list(path, value, message):
    doc = document_dict(_STAR256)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == message


def test_circuit_from_json_checks_phase_spans():
    # Spans stored under `phases`, as older documents carry them, are not
    # read: the loaded circuit's phases are the ones its loci give.
    circ = compile_step(star_graph(3), hub_polarity(3), [0])
    doc = document_dict(circ)
    n_ins = len(doc["instructions"])
    for stored in [
        [ph._asdict() for ph in circ.phases],
        [{"kind": "coin", "node": None, "start": 0, "stop": n_ins + 1}],
        [{"kind": "nonsense", "node": 99, "start": -1}],
        {},
        None,
    ]:
        doc["phases"] = stored
        back = circuit_from_json(json.dumps(doc))
        assert back == circ
        assert back.phases == circ.phases


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
    doc = document_dict(compile_step(g, hub_polarity(3), [0]))
    assert doc["layout"] == {"facing": [[0, 2, 4], [1], [3], [5]]}
    circuit_from_json(json.dumps(doc))
    mutate(doc)
    with pytest.raises(CircuitError, match=match):
        circuit_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "facing, match",
    [
        ([[0, 2, 4], [0], [3], [6]], r"^layout\.facing\[3\]\[0\]: qubit 6 outside \[0, 6\)$"),
        ([[0, 2, 4], [1], [2]], r"^layout\.facing\[2\]\[0\]: qubit 2 already faces node 0$"),
        ([[0, 1, 4], [2], [2], [5]], r"^layout\.facing\[2\]\[0\]: qubit 2 already faces node 1$"),
        ([[0, 1, 4], [2], [3]], r"^layout\.facing: no node faces qubit 5 of edge 2$"),
    ],
    ids=["range-before-repeat", "repeat-before-missing", "repeat-before-clash",
         "missing-before-clash"],
)
def test_layout_checks_run_in_order(facing, match):
    # Each document breaks the two checks its id names (a repeat also leaves
    # a qubit missing).  The checks run in the order range, repeat, missing,
    # clash, so the earlier one is named wherever the other fault sits.
    doc = document_dict(compile_step(star_graph(3), hub_polarity(3), [0]))
    doc["layout"]["facing"] = facing
    with pytest.raises(CircuitError, match=match):
        circuit_from_json(json.dumps(doc))


def test_path3_facing_with_a_repeated_qubit_is_rejected():
    # Node 2 claims qubit 2, node 1's, so no node faces qubit 3.  Every
    # instruction still fits the register, which is why only the facing
    # check can catch it.
    g = path_graph(3)
    doc = document_dict(compile_step(g, coloring_polarity(g), [0]))
    assert doc["layout"]["facing"] == [[1], [0, 2], [3]]
    doc["layout"]["facing"][2] = [2]
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == "layout.facing[2][0]: qubit 2 already faces node 1"


def _with_parent_layout_keys(circ):
    """The circuit document with the derived keys older documents stored."""
    layout = circ.layout
    doc = document_dict(circ)
    doc["qubits"] = circ.n_qubits
    doc["phases"] = [ph._asdict() for ph in circ.phases]
    doc["layout"] = {
        "edge_qubits": [[2 * k, 2 * k + 1] for k in range(layout.n_edges)],
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
    doc["phases"][0]["stop"] = -1
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
    ],
)
def test_circuit_from_json_requires_arrays_and_objects(mutate, message):
    doc = _star3_doc()
    mutate(doc)
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == message


_ORDER = "instructions must be the oracle, the coin, then each node's scatter in node order"


def _locus(pos, kind, ident):
    return _put("instructions", pos, "locus", value={"kind": kind, "id": ident})


def _move_coin_before_oracle(doc):
    ins = doc["instructions"]
    ins[:6] = ins[3:6] + ins[:3]


def _out_of_place(pos, kind, ident):
    return f"instruction {pos}: locus {kind} {ident} out of place: {_ORDER}"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_locus(0, "node", 0), _out_of_place(0, "node", 0)),
        (_locus(1, "node", 2), _out_of_place(1, "node", 2)),
        # A node locus ends the edge run early, so the coin's window covers
        # an oracle swap and the edge-0 coin swap lands where edge 1's belongs.
        (_locus(5, "node", 2), _out_of_place(3, "edge", 0)),
        (_locus(3, "node", 1), _out_of_place(1, "edge", 0)),
        (lambda doc: doc["instructions"].pop(4), _out_of_place(3, "edge", 0)),
        (_locus(4, "edge", 2), _out_of_place(4, "edge", 2)),
        (_move_coin_before_oracle, _out_of_place(4, "edge", 0)),
        (_locus(22, "edge", 0), _out_of_place(22, "edge", 0)),
        (lambda doc: doc["instructions"].extend(doc["instructions"][3:6]),
         _out_of_place(23, "edge", 0)),
        (_locus(6, "node", 1), _out_of_place(7, "node", 0)),
        (_locus(14, "node", 1), _out_of_place(15, "node", 0)),
        (_locus(6, "nonsense", 0), "instruction 6: unknown locus kind 'nonsense'"),
        (_locus(0, "nonsense", 0), "instruction 0: unknown locus kind 'nonsense'"),
        (_locus(6, "node", 4), "instruction 6: unknown node 4"),
        (_locus(22, "node", -1), "instruction 22: unknown node -1"),
        (_locus(1, "edge", 3), "instruction 1: unknown edge 3"),
        (_put("instructions", value=[]), f"instructions end before the coin's edge 0: {_ORDER}"),
    ],
    ids=[
        "oracle-node-locus", "oracle-with-node", "coin-node-locus", "coin-with-node",
        "coin-missing-swap", "coin-wrong-edge", "swapped-kinds", "scatter-edge-locus",
        "repeated-phase", "scatters-out-of-order", "scatter-split", "kind-nonsense",
        "oracle-kind-nonsense", "scatter-node-beyond", "scatter-node-negative",
        "oracle-edge-beyond", "no-instructions",
    ],
)
def test_circuit_from_json_checks_phase_kinds_nodes_and_tiling(mutate, message):
    # The phases are worked out from the loci, so a document whose loci do
    # not give the oracle, the coin and one scatter per node in node order
    # is rejected, naming the first instruction out of place.
    doc = _star3_doc()
    # oracle [0, 3), coin [3, 6), the hub's scatter [6, 23), three empty leaf scatters.
    phases = circuit_from_json(json.dumps(doc)).phases
    assert [(ph.start, ph.stop) for ph in phases][:3] == [(0, 3), (3, 6), (6, 23)]
    mutate(doc)
    with pytest.raises(CircuitError) as info:
        circuit_from_json(json.dumps(doc))
    assert str(info.value) == message


def _reference_phases(circuit):
    """`Circuit.phases` as a per-record loop: the phases, or the error message."""
    loci = [ins.locus for ins in circuit.instructions]
    n, n_edges = len(loci), circuit.layout.n_edges
    run = next((pos for pos, locus in enumerate(loci) if locus.kind != "edge"), n)
    coin = max(run - n_edges, 0)
    for pos in range(coin):
        if not 0 <= loci[pos].id < n_edges:
            return str(circuit._out_of_place(pos))
    for k in range(n_edges):
        if coin + k == n:
            return f"instructions end before the coin's edge {k}: {_ORDER}"
        if loci[coin + k] != ("edge", k):
            return str(circuit._out_of_place(coin + k))
    phases = [Phase("oracle", None, 0, coin), Phase("coin", None, coin, run)]
    pos = run
    for u in range(circuit.layout.n_nodes):
        start = pos
        while pos < n and loci[pos] == ("node", u):
            pos += 1
        phases.append(Phase("scatter", u, start, pos))
    return str(circuit._out_of_place(pos)) if pos < n else tuple(phases)


@pytest.mark.parametrize(
    "g", [star_graph(3), path_graph(3), complete_graph(4), random_connected_graph(8, 5, seed=2)]
)
def test_phases_match_a_per_record_loop(g):
    # Random relabelled, swapped, repeated, dropped and truncated records,
    # from loci built afresh (equal, not identical, to their neighbours').
    circ = compile_step(g, coloring_polarity(g), [0])
    rng = np.random.default_rng(g.n_edges)
    for _ in range(300):
        ins = list(circ.instructions)
        for _ in range(rng.integers(0, 4)):
            if not ins:
                break
            p, q, op = rng.integers(len(ins)), rng.integers(len(ins)), rng.random()
            if op < 0.3:
                kind = ("edge", "node", "node", "nonsense")[rng.integers(4)]
                ident = int(rng.integers(-1, max(g.n, g.n_edges) + 2))
                ins[p] = ins[p]._replace(locus=Locus(kind, ident))
            elif op < 0.5:
                ins[p], ins[q] = ins[q], ins[p]
            elif op < 0.7:
                del ins[p]
            elif op < 0.85:
                ins.insert(p, ins[q])
            else:
                del ins[p:]
        tampered = Circuit(circ.layout, tuple(ins))
        want = _reference_phases(tampered)
        if isinstance(want, tuple):
            assert tampered.phases == want
        else:
            with pytest.raises(CircuitError) as info:
                tampered.phases
            assert str(info.value) == want


def test_circuit_from_json_rejects_a_gate_outside_its_locus():
    # Relabelling the hub's last gate to node 1 keeps compile_step's order
    # (it becomes node 1's scatter), so only the locality check catches it.
    circ = compile_step(star_graph(3), hub_polarity(3), [0])
    doc = document_dict(circ)
    assert circ.phases[2] == Phase("scatter", 0, 6, 23)
    doc["instructions"][22]["locus"]["id"] = 1
    last = circ.instructions[22]
    assert (last.gate, last.controls, last.targets) == (Gate.CNOT, (0,), (8,))
    relabelled = last._replace(locus=Locus("node", 1))
    tampered = Circuit(circ.layout, circ.instructions[:22] + (relabelled,))
    message = "instruction 22: cnot touches qubits [0, 8] outside its node 1"
    assert locality_audit(tampered).violations == (message,)
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


@pytest.mark.parametrize("d", [2.5, 2.0, True], ids=["fraction", "whole-float", "bool"])
def test_instruction_refuses_a_degree_that_is_not_an_integer(d):
    # By `_index`'s rule, as for node and edge ids: `to_json` would write
    # 2.5 as 2, and `run` would fail on it.
    locus = Locus("node", 0)
    with pytest.raises(TypeError):
        Instruction(Gate.DIFFUSION, (4,), (2, 3), locus, d=d)
    assert type(Instruction(Gate.DIFFUSION, (4,), (2, 3), locus, d=np.int64(3)).d) is int


def test_replace_checks_like_the_constructor():
    ins = Instruction(Gate.X, (), (0,), Locus("edge", 0))
    assert ins._replace(targets=(1,)) == Instruction(Gate.X, (), (1,), Locus("edge", 0))
    assert type(ins._replace(targets=(1,))) is Instruction
    with pytest.raises(CircuitError, match="negative qubit index in"):
        ins._replace(targets=(-1,))
    with pytest.raises(CircuitError, match="reuses"):
        ins._replace(gate=Gate.CNOT, controls=(0,))
    with pytest.raises(CircuitError, match="gate x does not take d"):
        ins._replace(d=2)


@pytest.mark.parametrize(
    "g, marked, seed",
    [
        (star_graph(3), [0], None),
        (star_graph(128), [0], None),
        (star_graph(256), [0], None),
        (complete_graph(5), [], None),
        (complete_graph(5), [2, 7], None),
        (random_connected_graph(12, extra_edges=10, seed=4), [3], 5),
    ],
    ids=["star-3", "star-128", "star-256", "K5-no-marks", "K5-two-marks", "random-seeded"],
)
def test_compiled_records_pass_the_checked_constructor(g, marked, seed):
    # The compiler builds records with the unchecked `_make`; each is one the
    # constructor accepts, and its document loads without the per-item loop.
    circ = compile_step(g, coloring_polarity(g), marked, enumeration_seed=seed)
    for ins in circ.instructions:
        assert Instruction(*ins) == ins
    items = json.loads(circ.to_json())["instructions"]
    assert compiler._instructions_at_once(items, circ.layout) == circ.instructions
    assert compiler._load_item_by_item(items, circ.layout) == circ


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


@pytest.mark.parametrize(
    "layout",
    [QubitLayout(()), path3_layout()],
    ids=["no-nodes", "path-3"],
)
def test_audit_of_a_circuit_with_no_instructions(layout):
    report = locality_audit(Circuit(layout, ()))
    assert report.ok
    assert report.violations == ()
    assert [(n.node, n.degree, n.cnot_mcx, n.diffusion) for n in report.nodes] == [
        (u, len(f), 0, 0) for u, f in enumerate(layout.facing)
    ]


def test_audit_reports_every_position_of_a_repeated_bad_record():
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    stray = Instruction(Gate.X, (), (2,), Locus("edge", 0))
    ghost = Instruction(Gate.X, (), (0,), Locus("edge", 99))
    n = len(circ.instructions)
    shared = circ.instructions + (stray, ghost, stray, ghost)
    # The same records as four distinct objects give the same report.
    copies = circ.instructions + (stray, ghost, Instruction(*stray), Instruction(*ghost))
    want = (
        f"instruction {n}: x touches qubits [2] outside its edge 0",
        f"instruction {n + 1}: unknown edge 99",
        f"instruction {n + 2}: x touches qubits [2] outside its edge 0",
        f"instruction {n + 3}: unknown edge 99",
    )
    assert locality_audit(Circuit(circ.layout, shared)).violations == want
    assert locality_audit(Circuit(circ.layout, copies)).violations == want


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


def test_audit_to_json_is_the_indented_dump():
    g = star_graph(40)
    clean = locality_audit(compile_step(g, coloring_polarity(g), [0]))
    g = path_graph(3)
    circ = compile_step(g, coloring_polarity(g), [0])
    ghost = Instruction(Gate.X, (), (0,), Locus("edge", 99))
    flagged = locality_audit(Circuit(circ.layout, circ.instructions + (ghost, ghost)))
    over = compiler.NodeAudit(node=0, degree=3, cnot_mcx=99, diffusion=1, bound=16)
    escaped = compiler.AuditReport(nodes=(over,), violations=('a "quoted" \\ path', "caf\u00e9\n"))
    for report in (clean, flagged, escaped, compiler.AuditReport(nodes=(), violations=())):
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert not flagged.ok and len(flagged.violations) == 2


_DROP = object()  # an edit that deletes the key, or the list item


def _mutation_corpus(circ):
    """The compiled document of `circ` under single edits, in a fixed order.

    For each instruction and each field (gate, controls, targets, each
    control and target, the locus, its kind and id, and d where present):
    the field set to true, 1.0, null, "x", -1, 0, the register width, []
    or {}, or deleted.  Then d = 2 on a gate that takes none, or a diffusion's
    d set to null, 1 or 2**len(targets) + 1; and the locus given an unknown
    kind, then an unknown id.
    """
    values = (True, 1.0, None, "x", -1, 0, circ.n_qubits, [], {}, _DROP)
    unknown = {"edge": circ.layout.n_edges, "node": circ.layout.n_nodes}
    base = document_dict(circ)

    def edited(pos, path, value):
        instructions = list(base["instructions"])
        instructions[pos] = node = copy.deepcopy(instructions[pos])
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return json.dumps({**base, "instructions": instructions})

    for pos, ins in enumerate(base["instructions"]):
        paths = [("gate",), ("controls",), ("targets",), ("locus",), ("locus", "kind"),
                 ("locus", "id")]
        paths += [(key, i) for key in ("controls", "targets") for i in range(len(ins[key]))]
        paths += [("d",)] if "d" in ins else []
        for path in paths:
            for value in values:
                yield edited(pos, path, value)
        if "d" in ins:
            for d in (None, 1, 2 ** len(ins["targets"]) + 1):
                yield edited(pos, ("d",), d)
        else:
            yield edited(pos, ("d",), 2)
        yield edited(pos, ("locus", "kind"), "nowhere")
        yield edited(pos, ("locus", "id"), unknown[ins["locus"]["kind"]])


def _verdict(text):
    """The loader's `CircuitError` message, or "ok" and the instructions' fields."""
    try:
        circ = circuit_from_json(text)
    except CircuitError as exc:
        return str(exc)
    return "ok " + repr([
        (ins.gate.value, ins.controls, ins.targets, tuple(ins.locus), ins.d)
        for ins in circ.instructions
    ])


@pytest.mark.parametrize(
    "g, marked, digest",
    [
        (path_graph(3), [0], "08367e8ea614d0562e56d666767372440ada15fa1762640d9323a5d25aea96d2"),
        (star_graph(3), [0], "733fb6c7625cc4ceeff6af4b4a231ebd977886dcd5f6b4ba5c6f558a1a3355b0"),
        (complete_graph(4), [1], "8ad96f52b6842e1d3b4be40e893072b27cc828e0b95a61b7c51b10b604f4cda6"),
    ],
    ids=["path-3", "star-3", "K4"],
)
def test_loader_verdicts_on_a_mutation_corpus_are_pinned(g, marked, digest):
    # Every single edit of every instruction field either loads or names the
    # same first fault as it did when the loader checked item by item.
    circ = compile_step(g, coloring_polarity(g), marked)
    verdicts = [_verdict(text) for text in _mutation_corpus(circ)]
    assert 0 < sum(v.startswith("ok ") for v in verdicts) < len(verdicts) // 10
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == digest
