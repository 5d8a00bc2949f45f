"""Compiler from walk steps to local quantum circuits.

Each edge owns a qubit pair (one per pole) holding the walk amplitudes as a
one-hot excitation.  Each node owns a small register: ceil(log2 d) binary
qubits plus a flag.  A step compiles to a sign oracle and a pole swap on the
edge pairs, then per node a transfer block that relocates whichever facing
qubit is excited into the register as a slot number, one flag-controlled
`diffusion` gate on the register, and the inverse transfer.  Nodes of degree
at most 2 skip the register: their diffusion (2/d)J - I is the identity at
degree 1, which compiles to nothing, and the pole swap at degree 2, which
compiles to one swap of the two facing qubits.  Every instruction touches
only qubits owned by its locus, so nodes act on their own neighborhoods.

Gates carry structure, not dense matrices: a `diffusion` gate names its
degree d, and every gate is its own inverse.  A circuit document holds the
layout, the instructions and the phase spans, with every qubit index, edge
index, locus id and degree a JSON integer.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph, PolarityMap, check_polarity


class CircuitError(ValueError):
    """Raised for malformed circuits or circuit documents."""


class Gate(str, enum.Enum):
    X = "x"
    Z = "z"
    CNOT = "cnot"
    SWAP = "swap"
    MCX = "mcx"
    DIFFUSION = "diffusion"


class Locus(NamedTuple):
    """What a gate implements: kind is "edge" or "node", id the index."""

    kind: str
    id: int


class NodeRegister(NamedTuple):
    """A node's qubits: binary slot bits (LSB first) plus a flag qubit."""

    binary: tuple[int, ...]
    flag: int


_ARITY = {
    Gate.X: (0, 1),
    Gate.Z: (0, 1),
    Gate.CNOT: (1, 1),
    Gate.SWAP: (0, 2),
}


@dataclass(frozen=True)
class Instruction:
    """One gate: kind, control qubits, target qubits, and its locus.

    DIFFUSION carries the degree d.  When every control is set, it reads the
    targets as a slot value (target i is bit i), maps each value below d to
    (2/d) times the sum over those values minus itself, and leaves higher
    values alone.  Every gate is its own inverse.
    """

    gate: Gate
    controls: tuple[int, ...]
    targets: tuple[int, ...]
    locus: Locus
    d: int | None = None
    # Always None, not a field: perfbench/tracer.py still counts payload entries.
    matrix = None

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        qubits = self.controls + self.targets
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"gate {self.gate.value} reuses a qubit: {qubits}")
        if any(q < 0 for q in qubits):
            raise CircuitError(f"negative qubit index in {qubits}")
        if self.gate in _ARITY:
            nc, nt = _ARITY[self.gate]
            if len(self.controls) != nc or len(self.targets) != nt:
                raise CircuitError(
                    f"gate {self.gate.value} takes {nc} controls and {nt} targets, "
                    f"got {len(self.controls)} and {len(self.targets)}"
                )
        elif self.gate is Gate.MCX:
            if len(self.controls) < 1 or len(self.targets) != 1:
                raise CircuitError("mcx needs at least one control and one target")
        elif self.gate is Gate.DIFFUSION:
            if len(self.controls) < 1 or len(self.targets) < 1:
                raise CircuitError("diffusion needs controls and targets")
            top = 1 << len(self.targets)
            if self.d is None or not 2 <= self.d <= top:
                raise CircuitError(
                    f"diffusion on {len(self.targets)} targets needs "
                    f"2 <= d <= {top}, got {self.d}"
                )
        if self.d is not None and self.gate is not Gate.DIFFUSION:
            raise CircuitError(f"gate {self.gate.value} does not take d")

    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets


class Phase(NamedTuple):
    """Half-open instruction span [start, stop) of one step phase."""

    kind: str
    node: int | None
    start: int
    stop: int


@dataclass(frozen=True)
class QubitLayout:
    """Wire assignment shared by the compiler and the circuit simulator.

    Edge k owns qubits (2k, 2k+1) for its + and - poles.  Node registers
    follow.  `facing[u][s]` is the qubit of the pole facing node u for its
    s-th incident edge (the enumeration order), and `local_edges[u][s]` that
    edge's index.
    """

    edge_qubits: tuple[tuple[int, int], ...]
    node_registers: tuple[NodeRegister, ...]
    facing: tuple[tuple[int, ...], ...]
    local_edges: tuple[tuple[int, ...], ...]
    n_qubits: int

    @property
    def n_edges(self) -> int:
        return len(self.edge_qubits)

    @property
    def n_nodes(self) -> int:
        return len(self.node_registers)

    def degree(self, u: int) -> int:
        return len(self.facing[u])


def build_layout(
    g: Graph, p: PolarityMap, enumeration_seed: int | None = None
) -> QubitLayout:
    """Assign qubits to edges and node registers.

    Incident edges are enumerated in ascending neighbor order by default; a
    seed draws one random enumeration per node instead (the compiled step is
    equivalent either way, the wiring just permutes slot numbers).
    """
    check_polarity(g, p)
    edge_qubits = tuple((2 * k, 2 * k + 1) for k in range(g.n_edges))
    rng = None if enumeration_seed is None else np.random.default_rng(enumeration_seed)
    registers: list[NodeRegister] = []
    facing: list[tuple[int, ...]] = []
    local_edges: list[tuple[int, ...]] = []
    q = 2 * g.n_edges
    for u in range(g.n):
        d = g.degree(u)
        slots = list(range(d))
        if rng is not None:
            slots = [int(s) for s in rng.permutation(d)]
        edges_u = tuple(g.adjacency[u][s][1] for s in slots)
        facing_u = tuple(edge_qubits[k][p.component_at(k, u)] for k in edges_u)
        r = (d - 1).bit_length() if d > 1 else 0
        registers.append(NodeRegister(binary=tuple(range(q, q + r)), flag=q + r))
        q += r + 1
        facing.append(facing_u)
        local_edges.append(edges_u)
    return QubitLayout(
        edge_qubits=edge_qubits,
        node_registers=tuple(registers),
        facing=tuple(facing),
        local_edges=tuple(local_edges),
        n_qubits=q,
    )


def compile_oracle(layout: QubitLayout, marked) -> tuple[Instruction, ...]:
    """Sign-flip-and-swap on each marked edge's qubit pair (the -X action)."""
    out: list[Instruction] = []
    for k in sorted(int(k) for k in set(marked)):
        if not 0 <= k < layout.n_edges:
            raise CircuitError(f"marked edge {k} out of range")
        plus, minus = layout.edge_qubits[k]
        locus = Locus("edge", k)
        out.append(Instruction(Gate.Z, (), (plus,), locus))
        out.append(Instruction(Gate.Z, (), (minus,), locus))
        out.append(Instruction(Gate.SWAP, (), (plus, minus), locus))
    return tuple(out)


def compile_coin(layout: QubitLayout) -> tuple[Instruction, ...]:
    """Pole swap (the X coin) on every edge's qubit pair."""
    return tuple(
        Instruction(Gate.SWAP, (), (plus, minus), Locus("edge", k))
        for k, (plus, minus) in enumerate(layout.edge_qubits)
    )


def compile_transfer_k(layout: QubitLayout, node: int, k: int) -> tuple[Instruction, ...]:
    """Relocate the node's k-th facing excitation into its register.

    Sends |1 on facing qubit k, empty register> to |0, slot value k-1, flag
    set> and leaves the all-zero register state alone: controlled writes of
    the slot bits and the flag, then an X-conjugated multi-controlled NOT
    erases the facing qubit exactly when the register spells slot k-1 with
    the flag raised.  k is 1-based.
    """
    d = layout.degree(node)
    if not 1 <= k <= d:
        raise CircuitError(f"node {node} has degree {d}, no slot {k}")
    binary, flag = layout.node_registers[node]
    eta = layout.facing[node][k - 1]
    locus = Locus("node", node)
    pattern = k - 1
    out: list[Instruction] = []
    for i, q in enumerate(binary):
        if pattern >> i & 1:
            out.append(Instruction(Gate.CNOT, (eta,), (q,), locus))
    out.append(Instruction(Gate.CNOT, (eta,), (flag,), locus))
    zeros = [q for i, q in enumerate(binary) if not pattern >> i & 1]
    for q in zeros:
        out.append(Instruction(Gate.X, (), (q,), locus))
    out.append(Instruction(Gate.MCX, tuple(binary) + (flag,), (eta,), locus))
    for q in zeros:
        out.append(Instruction(Gate.X, (), (q,), locus))
    return tuple(out)


def compile_transfer(layout: QubitLayout, node: int) -> tuple[Instruction, ...]:
    """Relocate whichever facing qubit is excited into the node register."""
    out: list[Instruction] = []
    for k in range(1, layout.degree(node) + 1):
        out.extend(compile_transfer_k(layout, node, k))
    return tuple(out)


def compile_diffusion(layout: QubitLayout, node: int) -> tuple[Instruction, ...]:
    """Flag-controlled Grover diffusion on the node's slot value.

    The slot register only ever holds values below the degree d; the gate
    applies (2/d)J - I to those and the identity to the unreachable rest.
    Degree-1 nodes diffuse trivially and emit nothing.
    """
    d = layout.degree(node)
    if d < 2:
        return ()
    binary, flag = layout.node_registers[node]
    return (Instruction(Gate.DIFFUSION, (flag,), binary, Locus("node", node), d),)


def invert_instructions(instrs) -> tuple[Instruction, ...]:
    """Exact inverse: every gate is its own inverse, so the reversed order."""
    return tuple(reversed(tuple(instrs)))


def compile_scatter(layout: QubitLayout, node: int) -> tuple[Instruction, ...]:
    """The node's scattering block: (2/d)J - I on its facing qubits.

    Degree 1 scatters trivially and emits nothing; degree 2 is one swap of
    the two facing qubits.  From degree 3 up the block transfers the
    excitation into the register, diffuses it, and transfers it back.
    """
    d = layout.degree(node)
    if d < 2:
        return ()
    if d == 2:
        return (Instruction(Gate.SWAP, (), layout.facing[node], Locus("node", node)),)
    tr = compile_transfer(layout, node)
    return tr + compile_diffusion(layout, node) + invert_instructions(tr)


@dataclass(frozen=True)
class Circuit:
    """A compiled walk step: layout, flat instruction list, phase spans."""

    layout: QubitLayout
    instructions: tuple[Instruction, ...]
    phases: tuple[Phase, ...] = ()

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    def to_json_dict(self) -> dict:
        return {
            "qubits": self.n_qubits,
            "layout": {
                "edge_qubits": [list(pair) for pair in self.layout.edge_qubits],
                "node_registers": [
                    {"binary": list(reg.binary), "flag": reg.flag}
                    for reg in self.layout.node_registers
                ],
                "facing": [list(f) for f in self.layout.facing],
                "local_edges": [list(e) for e in self.layout.local_edges],
            },
            "instructions": [_instruction_to_dict(ins) for ins in self.instructions],
            "phases": [ph._asdict() for ph in self.phases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _instruction_to_dict(ins: Instruction) -> dict:
    out = {
        "gate": ins.gate.value,
        "controls": list(ins.controls),
        "targets": list(ins.targets),
        "locus": {"kind": ins.locus.kind, "id": ins.locus.id},
    }
    if ins.d is not None:
        out["d"] = ins.d
    return out


def compile_step(
    g: Graph,
    p: PolarityMap,
    marked,
    enumeration_seed: int | None = None,
) -> Circuit:
    """Compile one full walk step: oracle, coin, then every node's scatter."""
    layout = build_layout(g, p, enumeration_seed=enumeration_seed)
    instructions: list[Instruction] = []
    phases: list[Phase] = []

    start = len(instructions)
    instructions.extend(compile_oracle(layout, marked))
    phases.append(Phase("oracle", None, start, len(instructions)))

    start = len(instructions)
    instructions.extend(compile_coin(layout))
    phases.append(Phase("coin", None, start, len(instructions)))

    for u in range(g.n):
        start = len(instructions)
        instructions.extend(compile_scatter(layout, u))
        phases.append(Phase("scatter", u, start, len(instructions)))

    return Circuit(layout, tuple(instructions), tuple(phases))


def _check_layout(layout: QubitLayout) -> None:
    """Check a loaded layout against itself.

    Raises:
        CircuitError: Naming the field and index, unless every layout qubit
            is in [0, qubits), edge pairs and register qubits are pairwise
            disjoint, `facing`, `local_edges` and `node_registers` have one
            entry per node, every local edge is in range, and every facing
            qubit is one of the two qubits of the edge listed with it.
    """
    n = layout.n_qubits
    owner: dict[int, str] = {}

    def claim(q: int, field: str) -> None:
        if not 0 <= q < n:
            raise CircuitError(f"{field}: qubit {q} outside [0, {n})")
        if q in owner:
            raise CircuitError(f"{field}: qubit {q} already used by {owner[q]}")
        owner[q] = field

    for k, pair in enumerate(layout.edge_qubits):
        for q in pair:
            claim(q, f"layout.edge_qubits[{k}]")
    for u, reg in enumerate(layout.node_registers):
        for q in reg.binary + (reg.flag,):
            claim(q, f"layout.node_registers[{u}]")
    sizes = (len(layout.facing), len(layout.local_edges), len(layout.node_registers))
    if len(set(sizes)) != 1:
        raise CircuitError(
            "layout: facing, local_edges and node_registers have "
            f"{sizes[0]}, {sizes[1]} and {sizes[2]} entries"
        )
    for u, (facing_u, edges_u) in enumerate(zip(layout.facing, layout.local_edges)):
        if len(facing_u) != len(edges_u):
            raise CircuitError(
                f"layout.facing[{u}]: {len(facing_u)} qubits for "
                f"{len(edges_u)} local edges"
            )
        for s, (q, k) in enumerate(zip(facing_u, edges_u)):
            if not 0 <= k < layout.n_edges:
                raise CircuitError(
                    f"layout.local_edges[{u}][{s}]: edge {k} outside "
                    f"[0, {layout.n_edges})"
                )
            if q not in layout.edge_qubits[k]:
                raise CircuitError(
                    f"layout.facing[{u}][{s}]: qubit {q} is not a qubit of edge {k}"
                )


def _typed(value, kind: type, field: str):
    """Return `value` if it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        name = "array" if kind is list else "object"
        raise CircuitError(f"{field} must be a JSON {name}")
    return value


def _int(value, field: str) -> int:
    """Return `value` if it is a JSON integer, not a bool, float or string."""
    if type(value) is not int:
        raise CircuitError(f"{field} must be a JSON integer")
    return value


def _ints(value, field: str) -> tuple[int, ...]:
    """A JSON array of JSON integers, as a tuple."""
    items = _typed(value, list, field)
    return tuple(_int(q, f"{field}[{i}]") for i, q in enumerate(items))


def _int_rows(lay: dict, key: str) -> tuple[tuple[int, ...], ...]:
    """`layout.<key>` as integer tuples, the field and each entry a JSON array."""
    rows = _typed(lay[key], list, f"layout.{key}")
    return tuple(_ints(row, f"layout.{key}[{i}]") for i, row in enumerate(rows))


def _phases(doc: dict, n_instructions: int) -> tuple[Phase, ...]:
    """The optional `phases` key: spans with 0 <= start <= stop <= n_instructions."""
    phases = []
    for i, ph in enumerate(_typed(doc.get("phases", []), list, "phases")):
        field = f"phases[{i}]"
        _typed(ph, dict, field)
        try:
            node = None if ph["node"] is None else _int(ph["node"], f"{field}.node")
            phase = Phase(
                str(ph["kind"]), node,
                _int(ph["start"], f"{field}.start"), _int(ph["stop"], f"{field}.stop"),
            )
        except KeyError as exc:
            raise CircuitError(f"{field} missing {exc}") from None
        if not 0 <= phase.start <= phase.stop <= n_instructions:
            raise CircuitError(
                f"{field}: span [{phase.start}, {phase.stop}) outside "
                f"[0, {n_instructions}]"
            )
        phases.append(phase)
    return tuple(phases)


def circuit_from_json(text: str) -> Circuit:
    """Parse a circuit document, validating its structure.

    Raises:
        CircuitError: On schema violations (naming the field), a layout that
            is inconsistent with itself (see `_check_layout`), a gate that
            does not fit its arity or degree, a qubit beyond the register, or
            a phase span outside the instruction list.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CircuitError("circuit document must be a JSON object")
    for key in ("qubits", "layout", "instructions"):
        if key not in doc:
            raise CircuitError(f"circuit document missing {key!r}")
    lay = _typed(doc["layout"], dict, "layout")
    try:
        edge_qubits = tuple((a, b) for a, b in _int_rows(lay, "edge_qubits"))
        registers = []
        for u, reg in enumerate(_typed(lay["node_registers"], list, "layout.node_registers")):
            field = f"layout.node_registers[{u}]"
            _typed(reg, dict, field)
            registers.append(
                NodeRegister(
                    _ints(reg["binary"], f"{field}.binary"),
                    _int(reg["flag"], f"{field}.flag"),
                )
            )
        layout = QubitLayout(
            edge_qubits=edge_qubits,
            node_registers=tuple(registers),
            facing=_int_rows(lay, "facing"),
            local_edges=_int_rows(lay, "local_edges"),
            n_qubits=_int(doc["qubits"], "qubits"),
        )
    except CircuitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitError(f"malformed layout: {exc}") from None
    _check_layout(layout)
    instructions: list[Instruction] = []
    for pos, ins in enumerate(_typed(doc["instructions"], list, "instructions")):
        _typed(ins, dict, f"instruction {pos}")
        try:
            gate = Gate(ins["gate"])
            locus = Locus(str(ins["locus"]["kind"]), _int(ins["locus"]["id"], "locus.id"))
            instructions.append(
                Instruction(
                    gate,
                    _ints(ins["controls"], "controls"),
                    _ints(ins["targets"], "targets"),
                    locus,
                    _int(ins["d"], "d") if "d" in ins else None,
                )
            )
        except CircuitError as exc:
            raise CircuitError(f"instruction {pos}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise CircuitError(f"instruction {pos}: malformed ({exc})") from None
        if any(q >= layout.n_qubits for q in instructions[-1].qubits()):
            raise CircuitError(f"instruction {pos}: qubit index beyond {layout.n_qubits}")
    return Circuit(layout, tuple(instructions), _phases(doc, len(instructions)))


@dataclass(frozen=True)
class NodeAudit:
    """Controlled-gate tally for one node's compiled instructions."""

    node: int
    degree: int
    cnot_mcx: int
    diffusion: int
    bound: int

    @property
    def within_bound(self) -> bool:
        return self.cnot_mcx <= self.bound


@dataclass(frozen=True)
class AuditReport:
    """Locality check and per-node controlled-gate counts for a circuit.

    An instruction is local when it touches only qubits its locus owns: an
    edge's own pair, or a node's register plus the facing qubits of its
    incident edges.  The per-node bound compared against is
    2 * d * (ceil(log2 d) + 1) controlled gates (CNOT or MCX) per step.
    """

    nodes: tuple[NodeAudit, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def all_within_bound(self) -> bool:
        return all(n.within_bound for n in self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "all_within_bound": self.all_within_bound,
            "violations": list(self.violations),
            "nodes": [
                {
                    "node": n.node,
                    "degree": n.degree,
                    "cnot_mcx": n.cnot_mcx,
                    "diffusion": n.diffusion,
                    "bound": n.bound,
                    "within_bound": n.within_bound,
                }
                for n in self.nodes
            ],
        }


def locality_audit(circuit: Circuit) -> AuditReport:
    """Check every instruction against its locus and tally controlled gates."""
    layout = circuit.layout
    node_allowed: list[set[int]] = []
    for u in range(layout.n_nodes):
        reg = layout.node_registers[u]
        node_allowed.append(set(reg.binary) | {reg.flag} | set(layout.facing[u]))
    cnot_mcx = [0] * layout.n_nodes
    diffusion = [0] * layout.n_nodes
    violations: list[str] = []
    for pos, ins in enumerate(circuit.instructions):
        kind, ident = ins.locus
        if kind == "edge":
            if not 0 <= ident < layout.n_edges:
                violations.append(f"instruction {pos}: unknown edge {ident}")
                continue
            allowed = set(layout.edge_qubits[ident])
        elif kind == "node":
            if not 0 <= ident < layout.n_nodes:
                violations.append(f"instruction {pos}: unknown node {ident}")
                continue
            allowed = node_allowed[ident]
            if ins.gate in (Gate.CNOT, Gate.MCX):
                cnot_mcx[ident] += 1
            elif ins.gate is Gate.DIFFUSION:
                diffusion[ident] += 1
        else:
            violations.append(f"instruction {pos}: unknown locus kind {kind!r}")
            continue
        stray = [q for q in ins.qubits() if q not in allowed]
        if stray:
            violations.append(
                f"instruction {pos}: {ins.gate.value} touches qubits {stray} "
                f"outside its {kind} {ident}"
            )
    nodes = []
    for u in range(layout.n_nodes):
        d = layout.degree(u)
        r = (d - 1).bit_length() if d > 1 else 0
        nodes.append(
            NodeAudit(
                node=u,
                degree=d,
                cnot_mcx=cnot_mcx[u],
                diffusion=diffusion[u],
                bound=2 * d * (r + 1),
            )
        )
    return AuditReport(nodes=tuple(nodes), violations=tuple(violations))
