"""Compiler from walk steps to local quantum circuits.

Each edge owns a qubit pair (one per pole) holding the walk amplitudes as a
one-hot excitation.  Each node owns a small register: ceil(log2 d) binary
qubits plus a flag.  A step compiles to a sign oracle and a pole swap on the
edge pairs, then per node a transfer block of CNOTs and multi-controlled
NOTs that relocates whichever facing qubit is excited into the register as
a slot number (no X gates: the slot order stands in for controls on zero
bits), one flag-controlled `diffusion` gate on the register, and the
inverse transfer.  Nodes of degree at most 2 skip the register: their
diffusion (2/d)J - I is the identity at degree 1, which compiles to
nothing, and the pole swap at degree 2, which compiles to one swap of the
two facing qubits.  Every instruction touches only qubits owned by its
locus, so nodes act on their own neighborhoods.

Gates carry structure, not dense matrices: a `diffusion` gate names its
degree d, and every gate is its own inverse.  A circuit document holds the
layout's `facing` (each node's enumeration of its edges, from which the rest
of the layout follows), the instructions and the phase spans, with every
qubit index, locus id and degree a JSON integer.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Graph, PolarityMap, check_polarity, facing_amplitudes


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
    values alone.  Every gate is its own inverse.  Controls and targets are
    kept as given; the document loader type-checks them.
    """

    gate: Gate
    controls: tuple[int, ...]
    targets: tuple[int, ...]
    locus: Locus
    d: int | None = None
    # Always None, not a field: perfbench/tracer.py still counts payload entries.
    matrix = None

    def __post_init__(self):
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

    `facing[u][s]` is the qubit of the pole facing node u on its s-th
    incident edge: the node's local enumeration of its edges, the one free
    choice in a layout.  The rest follows from it.  Edge k owns qubits
    (2k, 2k+1) for its + and - poles, so the facing qubits are 0..2E-1, and
    `facing[u][s] // 2` is the edge.  Node registers come next, in node
    order: ceil(log2 d) binary qubits, then a flag.

    Raises:
        CircuitError: Naming `layout.facing[u][s]` or the edge at fault,
            unless every qubit 0..2E-1 faces exactly one node and the two
            poles of every edge face different nodes.
    """

    facing: tuple[tuple[int, ...], ...]
    edge_qubits: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    node_registers: tuple[NodeRegister, ...] = field(init=False, compare=False, repr=False)
    n_qubits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        degrees = [len(f) for f in self.facing]
        width = sum(degrees) + sum(degrees) % 2
        flat = [q for f in self.facing for q in f]
        index = np.arange(len(flat))
        node = np.repeat(np.arange(len(degrees)), degrees)
        slot = index - np.cumsum([0] + degrees)[node]

        def fault(i: int, what: str) -> CircuitError:
            return CircuitError(f"layout.facing[{node[i]}][{slot[i]}]: qubit {flat[i]} {what}")

        # Integers beyond 64 bits make an object array; they fail the range.
        qubits = np.array(flat)
        outside = np.flatnonzero((qubits < 0) | (qubits >= width))
        if len(outside):
            raise fault(outside[0], f"outside [0, {width})")
        qubits = qubits.astype(np.int64)
        first = np.full(width, len(flat))
        np.minimum.at(first, qubits, index)
        repeated = np.flatnonzero(first[qubits] != index)
        if len(repeated):
            i = repeated[0]
            raise fault(i, f"already faces node {node[first[qubits[i]]]}")
        missing = np.flatnonzero(first == len(flat))
        if len(missing):
            q = missing[0]
            raise CircuitError(f"layout.facing: no node faces qubit {q} of edge {q // 2}")
        owner = node[first]
        clash = np.flatnonzero(owner[0::2] == owner[1::2])
        if len(clash):
            k = clash[0]
            raise CircuitError(f"layout.facing: both poles of edge {k} face node {owner[2 * k]}")
        registers = []
        q = width
        for d in degrees:
            r = (d - 1).bit_length() if d > 1 else 0
            registers.append(NodeRegister(binary=tuple(range(q, q + r)), flag=q + r))
            q += r + 1
        edge_qubits = tuple((2 * k, 2 * k + 1) for k in range(width // 2))
        object.__setattr__(self, "edge_qubits", edge_qubits)
        object.__setattr__(self, "node_registers", tuple(registers))
        object.__setattr__(self, "n_qubits", q)

    @property
    def n_edges(self) -> int:
        return len(self.edge_qubits)

    @property
    def n_nodes(self) -> int:
        return len(self.facing)

    def degree(self, u: int) -> int:
        return len(self.facing[u])


def build_layout(
    g: Graph, p: PolarityMap, enumeration_seed: int | None = None
) -> QubitLayout:
    """Enumerate each node's incident edges and lay the qubits out from that.

    Incident edges are enumerated in ascending neighbor order by default; a
    seed draws one random enumeration per node instead (the compiled step is
    equivalent either way, the wiring just permutes slot numbers).
    """
    check_polarity(g, p)
    rng = None if enumeration_seed is None else np.random.default_rng(enumeration_seed)
    # Edge qubit 2k + c holds edge k's pole c, so a facing qubit is the
    # facing amplitude's index.
    entry_facing = facing_amplitudes(g, p).tolist()
    start = g.indptr.tolist()
    facing: list[tuple[int, ...]] = []
    for u in range(g.n):
        entries = range(start[u], start[u + 1])
        if rng is not None:
            entries = [start[u] + int(s) for s in rng.permutation(len(entries))]
        facing.append(tuple(entry_facing[i] for i in entries))
    return QubitLayout(tuple(facing))


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
    the one-bits of k-1 and the flag, then a multi-controlled NOT on those
    one-bits and the flag erases the facing qubit.  k is 1-based.

    The zero bits of k-1 need no controls, because the slot order already
    rules out every other register value that could fire the NOT:

    - The forward transfer runs slots 1..d.  When slot k's NOT runs, the
      register holds k-1 or a value j-1 < k-1 written by an earlier slot.
    - The inverse runs slots d..1.  Values k and above have already gone
      back to their facing qubits, so the register holds a value <= k-1.
    - A value v <= k-1 whose set bits include every set bit of k-1 is k-1.

    So the block is exact on the single-excitation sector in slot order,
    which is all the walk model and `verify` use.
    """
    d = layout.degree(node)
    if not 1 <= k <= d:
        raise CircuitError(f"node {node} has degree {d}, no slot {k}")
    binary, flag = layout.node_registers[node]
    eta = layout.facing[node][k - 1]
    locus = Locus("node", node)
    writes = tuple(q for i, q in enumerate(binary) if (k - 1) >> i & 1) + (flag,)
    erase = Instruction(Gate.MCX, writes, (eta,), locus)
    return tuple(Instruction(Gate.CNOT, (eta,), (q,), locus) for q in writes) + (erase,)


def compile_transfer(layout: QubitLayout, node: int) -> tuple[Instruction, ...]:
    """Relocate whichever facing qubit is excited into the node register."""
    slots = range(1, layout.degree(node) + 1)
    return tuple(ins for k in slots for ins in compile_transfer_k(layout, node, k))


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
            "layout": {"facing": [list(f) for f in self.layout.facing]},
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
    blocks = [
        ("oracle", None, compile_oracle(layout, marked)),
        ("coin", None, compile_coin(layout)),
        *(("scatter", u, compile_scatter(layout, u)) for u in range(g.n)),
    ]
    instructions: list[Instruction] = []
    phases: list[Phase] = []
    for kind, node, block in blocks:
        phases.append(Phase(kind, node, len(instructions), len(instructions) + len(block)))
        instructions.extend(block)
    return Circuit(layout, tuple(instructions), tuple(phases))


_JSON_NAMES = {list: "array", dict: "object", int: "integer", str: "string"}


def _typed(value, kind: type, field: str):
    """Return `value` if it is a JSON value of `kind`: list, dict, int or str.

    Types are matched exactly, so a bool or a float is not a JSON integer.
    """
    if type(value) is not kind:
        raise CircuitError(f"{field} must be a JSON {_JSON_NAMES[kind]}")
    return value


def _ints(value, field: str) -> tuple[int, ...]:
    """A JSON array of JSON integers, as a tuple."""
    items = _typed(value, list, field)
    return tuple(_typed(q, int, f"{field}[{i}]") for i, q in enumerate(items))


def _phases(doc: dict, n_instructions: int, n_nodes: int) -> tuple[Phase, ...]:
    """The optional `phases` key: spans that tile [0, n_instructions) in order.

    An oracle or coin phase has a null node; a scatter phase names a node of
    the layout.
    """
    phases = []
    for i, ph in enumerate(_typed(doc.get("phases", []), list, "phases")):
        field = f"phases[{i}]"
        _typed(ph, dict, field)
        try:
            node = None if ph["node"] is None else _typed(ph["node"], int, f"{field}.node")
            phase = Phase(
                _typed(ph["kind"], str, f"{field}.kind"),
                node,
                _typed(ph["start"], int, f"{field}.start"),
                _typed(ph["stop"], int, f"{field}.stop"),
            )
        except KeyError as exc:
            raise CircuitError(f"{field} missing {exc}") from None
        if phase.kind not in ("oracle", "coin", "scatter"):
            raise CircuitError(f"{field}.kind must be oracle, coin or scatter, got {phase.kind!r}")
        if phase.kind != "scatter" and node is not None:
            raise CircuitError(f"{field}.node must be null for kind {phase.kind}, got {node}")
        if phase.kind == "scatter" and (node is None or not 0 <= node < n_nodes):
            raise CircuitError(
                f"{field}.node must be a node in [0, {n_nodes}), got {json.dumps(node)}"
            )
        if not 0 <= phase.start <= phase.stop <= n_instructions:
            raise CircuitError(
                f"{field}: span [{phase.start}, {phase.stop}) outside "
                f"[0, {n_instructions}]"
            )
        start = phases[-1].stop if phases else 0
        if phase.start != start:
            raise CircuitError(
                f"{field}.start must be {start}, got {phase.start}: "
                "phases must tile the instructions in order"
            )
        phases.append(phase)
    if phases and phases[-1].stop != n_instructions:
        raise CircuitError(
            f"phases[{len(phases) - 1}].stop must be {n_instructions}, got "
            f"{phases[-1].stop}: phases must tile the instructions in order"
        )
    return tuple(phases)


def circuit_from_json(text: str) -> Circuit:
    """Parse a circuit document, validating its structure.

    The layout is rebuilt from `layout.facing`; other layout keys and a
    top-level `qubits`, which older documents carry, are ignored.

    Raises:
        CircuitError: On schema violations (naming the field), a `facing`
            that `QubitLayout` rejects, a gate that does not fit its arity
            or degree, a qubit beyond the register, or phases that do not
            tile the instruction list or name a wrong kind or node.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CircuitError("circuit document must be a JSON object")
    for key in ("layout", "instructions"):
        if key not in doc:
            raise CircuitError(f"circuit document missing {key!r}")
    lay = _typed(doc["layout"], dict, "layout")
    rows = _typed(lay.get("facing"), list, "layout.facing")
    layout = QubitLayout(tuple(_ints(f, f"layout.facing[{u}]") for u, f in enumerate(rows)))
    instructions: list[Instruction] = []
    for pos, ins in enumerate(_typed(doc["instructions"], list, "instructions")):
        _typed(ins, dict, f"instruction {pos}")
        try:
            gate = Gate(ins["gate"])
            kind, ident = ins["locus"]["kind"], ins["locus"]["id"]
            locus = Locus(_typed(kind, str, "locus.kind"), _typed(ident, int, "locus.id"))
            instructions.append(
                Instruction(
                    gate,
                    _ints(ins["controls"], "controls"),
                    _ints(ins["targets"], "targets"),
                    locus,
                    _typed(ins["d"], int, "d") if "d" in ins else None,
                )
            )
        except CircuitError as exc:
            raise CircuitError(f"instruction {pos}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise CircuitError(f"instruction {pos}: malformed ({exc})") from None
        if any(q >= layout.n_qubits for q in instructions[-1].qubits()):
            raise CircuitError(f"instruction {pos}: qubit index beyond {layout.n_qubits}")
    return Circuit(
        layout, tuple(instructions), _phases(doc, len(instructions), layout.n_nodes)
    )


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
    nodes = tuple(
        NodeAudit(
            node=u,
            degree=layout.degree(u),
            cnot_mcx=cnot_mcx[u],
            diffusion=diffusion[u],
            bound=2 * layout.degree(u) * (len(reg.binary) + 1),
        )
        for u, reg in enumerate(layout.node_registers)
    )
    return AuditReport(nodes=nodes, violations=tuple(violations))
