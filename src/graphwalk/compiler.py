"""Compiler from walk steps to local quantum circuits.

Each edge owns a qubit pair (one per pole) holding the walk amplitudes as a
one-hot excitation.  Each node owns a small register: ceil(log2 d) binary
qubits plus a flag.  A step compiles to a sign oracle and a pole swap on the
edge pairs, then per node one scatter block (`compile_scatter`): a transfer
of CNOTs and multi-controlled NOTs that relocates whichever facing qubit is
excited into the register as a slot number (no X gates: the slot order
stands in for controls on zero bits, see `_slot`), one flag-controlled
`diffusion` gate on the register, and the transfer reversed.  Nodes of
degree at most 2 skip the register: their diffusion (2/d)J - I is the
identity at degree 1, which compiles to nothing, and the pole swap at
degree 2, which compiles to one swap of the two facing qubits.  Every
instruction touches only qubits owned by its locus, so nodes act on their
own neighborhoods.

Gates carry structure, not dense matrices: a `diffusion` gate names its
degree d, and every gate is its own inverse.  A circuit document holds the
layout's `facing` (each node's enumeration of its edges, from which the rest
of the layout follows) and the instructions, with every qubit index, locus
id and degree a JSON integer.  The step's phases are not stored: the
instructions' loci determine them.
"""

from __future__ import annotations

import enum
import gc
import json
import re
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, count, pairwise, repeat
from operator import add, contains, is_, itemgetter, not_
from typing import NamedTuple

import numpy as np

from .graph import Graph, PolarityMap, _index, check_polarity, facing_amplitudes


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


_ARITY = {
    Gate.X: (0, 1),
    Gate.Z: (0, 1),
    Gate.CNOT: (1, 1),
    Gate.SWAP: (0, 2),
}


def _shape_fault(gate: Gate, n_controls: int, n_targets: int, d: int | None) -> str | None:
    """What is wrong with a gate's arity or degree, or None if nothing is."""
    if gate in _ARITY:
        nc, nt = _ARITY[gate]
        if n_controls != nc or n_targets != nt:
            return (
                f"gate {gate.value} takes {nc} controls and {nt} targets, "
                f"got {n_controls} and {n_targets}"
            )
    elif gate is Gate.MCX:
        if n_controls < 1 or n_targets != 1:
            return "mcx needs at least one control and one target"
    elif gate is Gate.DIFFUSION:
        if n_controls < 1 or n_targets < 1:
            return "diffusion needs controls and targets"
        top = 1 << n_targets
        if d is None or not 2 <= d <= top:
            return f"diffusion on {n_targets} targets needs 2 <= d <= {top}, got {d}"
    if d is not None and gate is not Gate.DIFFUSION:
        return f"gate {gate.value} does not take d"
    return None


class _InstructionFields(NamedTuple):
    gate: Gate
    controls: tuple[int, ...]
    targets: tuple[int, ...]
    locus: Locus
    d: int | None = None


class Instruction(_InstructionFields):
    """One gate: kind, control qubits, target qubits, and its locus.

    DIFFUSION carries the degree d.  When every control is set, it reads the
    targets as a slot value (target i is bit i), maps each value below d to
    (2/d) times the sum over those values minus itself, and leaves higher
    values alone.  Every gate is its own inverse.  Controls and targets are
    kept as given; the document loader type-checks them.  The degree is
    taken by `_index`'s rule, so a bool or a float is refused.

    An instruction is a named tuple.  Calling the class checks the qubits,
    arity and degree, and so does `_replace`; only `_make` does not, for
    records whose fields are already known to fit.

    >>> swap = Instruction(Gate.SWAP, (), (0, 1), Locus("edge", 0))
    >>> swap == ("swap", (), (0, 1), ("edge", 0), None)
    True
    >>> Instruction(Gate.SWAP, (), (0, 0), Locus("edge", 0))
    Traceback (most recent call last):
    ...
    graphwalk.compiler.CircuitError: gate swap reuses a qubit: (0, 0)
    >>> swap._replace(targets=(0, -1))
    Traceback (most recent call last):
    ...
    graphwalk.compiler.CircuitError: negative qubit index in (0, -1)
    """

    __slots__ = ()
    # Always None, not a field: perfbench/tracer.py still counts payload entries.
    matrix = None
    _make = classmethod(tuple.__new__)  # C-level: no length check, no Python frame

    def __new__(cls, gate: Gate, controls, targets, locus: Locus, d: int | None = None):
        qubits = controls + targets
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"gate {gate.value} reuses a qubit: {qubits}")
        if min(qubits, default=0) < 0:
            raise CircuitError(f"negative qubit index in {qubits}")
        if d is not None:
            d = _index(d, "a diffusion degree")
        fault = _shape_fault(gate, len(controls), len(targets), d)
        if fault is not None:
            raise CircuitError(fault)
        return super().__new__(cls, gate, controls, targets, locus, d)

    def _replace(self, **changes) -> Instruction:
        # The named tuple's own `_replace` goes through the unchecked `_make`.
        return Instruction(*super()._replace(**changes))

    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets


class Phase(NamedTuple):
    """Half-open instruction span [start, stop) of one step phase."""

    kind: str
    node: int | None
    start: int
    stop: int


_ORDER = "instructions must be the oracle, the coin, then each node's scatter in node order"


@dataclass(frozen=True)
class QubitLayout:
    """Wire assignment shared by the compiler and the circuit simulator.

    `facing[u][s]` is the qubit of the pole facing node u on its s-th
    incident edge: the node's local enumeration of its edges, the one free
    choice in a layout.  The rest follows from it.  Edge k owns qubits
    (2k, 2k+1) for its + and - poles, so the facing qubits are 0..2E-1, and
    `facing[u][s] // 2` is the edge.  Node registers come next: node u's is
    the width-(ceil(log2 d) + 1) block that starts where node u - 1's ends
    (node 0's at 2E), binary qubits then flag, read through `register(u)`.

    Raises:
        CircuitError: Naming `layout.facing[u][s]` or the edge at fault,
            unless every cell is a non-bool integer, each qubit 0..2E-1
            faces exactly one node and each edge's poles face different nodes.
    """

    facing: tuple[tuple[int, ...], ...]
    n_qubits: int = field(init=False, compare=False, repr=False)
    _owner: np.ndarray = field(init=False, compare=False, repr=False)
    _starts: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        width = sum(map(len, self.facing))
        width += width % 2
        for u, f in enumerate(self.facing):
            for s, q in enumerate(f):
                try:
                    _index(q)
                except TypeError:
                    raise CircuitError(f"layout.facing[{u}][{s}]: qubit {q!r} is not an integer") from None
                if not 0 <= q < width:
                    raise CircuitError(f"layout.facing[{u}][{s}]: qubit {q} outside [0, {width})")
        owner = [None] * width
        for u, f in enumerate(self.facing):
            for s, q in enumerate(f):
                if owner[q] is not None:
                    raise CircuitError(f"layout.facing[{u}][{s}]: qubit {q} already faces node {owner[q]}")
                owner[q] = u
        if None in owner:
            q = owner.index(None)
            raise CircuitError(f"layout.facing: no node faces qubit {q} of edge {q // 2}")
        owner = np.array(owner, dtype=np.int64)
        clash = np.flatnonzero(owner[0::2] == owner[1::2])
        if clash.size:
            k = int(clash[0])
            raise CircuitError(f"layout.facing: both poles of edge {k} face node {owner[2 * k]}")
        widths = ((max(d, 1) - 1).bit_length() + 1 for d in map(len, self.facing))
        starts = list(accumulate(widths, initial=width))
        object.__setattr__(self, "n_qubits", starts[-1])
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "_starts", starts)

    def polarity(self) -> PolarityMap:
        """The polarity the layout names: edge k's + pole is qubit 2k, at the
        node that faces it."""
        return PolarityMap(self._owner[0::2])

    @property
    def n_edges(self) -> int:
        return len(self._owner) // 2

    @property
    def n_nodes(self) -> int:
        return len(self.facing)

    def degree(self, u: int) -> int:
        u = _index(u, "a node index")
        if not 0 <= u < len(self.facing):
            raise CircuitError(f"node {u} outside 0..{len(self.facing) - 1}")
        return len(self.facing[u])

    def register(self, u: int) -> tuple[tuple[int, ...], int]:
        """Node u's binary qubits (least significant first) and its flag, the
        register's last qubit; u is refused as `degree(u)` refuses it.

        >>> star = QubitLayout(((0, 2, 4, 6), (1,), (3,), (5,), (7,)))
        >>> star.register(0), star.register(1)
        (((8, 9), 10), ((), 11))
        """
        self.degree(u)
        flag = self._starts[u + 1] - 1
        return tuple(range(self._starts[u], flag)), flag

    @cached_property
    def local_qubits(self) -> dict[Locus, frozenset[int]]:
        """The qubits each locus owns: an edge's own pair, or a node's
        register plus the facing qubits of its incident edges."""
        table = {Locus("edge", k): frozenset((2 * k, 2 * k + 1)) for k in range(self.n_edges)}
        for u, (f, (start, stop)) in enumerate(zip(self.facing, pairwise(self._starts))):
            table[Locus("node", u)] = frozenset((*range(start, stop), *f))
        return table


def build_layout(
    g: Graph, p: PolarityMap, enumeration_seed: int | None = None
) -> QubitLayout:
    """Enumerate each node's incident edges and lay the qubits out from that.

    Incident edges are enumerated in ascending neighbor order by default.  A
    seed draws them from one `rng = np.random.default_rng(seed)`: one
    `rng.permutation(d)` per node, in node order, degree 0 and 1 included.
    The compiled step is equivalent either way; the wiring permutes slots.
    """
    check_polarity(g, p)
    # Edge qubit 2k + c holds edge k's pole c, so a facing qubit is the
    # facing amplitude's index.
    entry_facing = facing_amplitudes(g, p).tolist()
    rows = [entry_facing[start:stop] for start, stop in pairwise(g.indptr.tolist())]
    if enumeration_seed is not None:
        rng = np.random.default_rng(enumeration_seed)
        rows = [[row[s] for s in rng.permutation(len(row)).tolist()] for row in rows]
    return QubitLayout(tuple(map(tuple, rows)))


def compile_oracle(layout: QubitLayout, marked) -> tuple[Instruction, ...]:
    """Sign-flip-and-swap on each marked edge's qubit pair (the -X action)."""
    out: list[Instruction] = []
    for k in sorted(set(map(_index, marked))):
        if not 0 <= k < layout.n_edges:
            raise CircuitError(f"marked edge {k} out of range")
        plus, minus = 2 * k, 2 * k + 1
        locus = Locus("edge", k)
        out.append(Instruction._make((Gate.Z, (), (plus,), locus, None)))
        out.append(Instruction._make((Gate.Z, (), (minus,), locus, None)))
        out.append(Instruction._make((Gate.SWAP, (), (plus, minus), locus, None)))
    return tuple(out)


def compile_coin(layout: QubitLayout) -> tuple[Instruction, ...]:
    """Pole swap (the X coin) on every edge's qubit pair."""
    return tuple(
        Instruction._make((Gate.SWAP, (), (2 * k, 2 * k + 1), Locus("edge", k), None))
        for k in range(layout.n_edges)
    )


def _slot(eta: int, value: int, binary: tuple[int, ...], flag: int, locus: Locus) -> tuple[Instruction, ...]:
    """Relocate an excitation on facing qubit eta into the register as slot `value`.

    Sends |1 on eta, empty register> to |0, slot value `value`, flag set>
    and leaves the all-zero register state alone: CNOTs from eta to the
    one-bits of `value` and the flag, then a multi-controlled NOT on those
    one-bits and the flag erases eta.

    The zero bits of `value` need no controls, because the slot order
    already rules out every other register value that could fire the NOT:

    - The forward transfer runs slots 0..d-1.  When slot v's NOT runs, the
      register holds v or a value w < v written by an earlier slot.
    - The inverse runs slots d-1..0.  Values above v have already gone back
      to their facing qubits, so the register holds a value <= v.
    - A value w <= v whose set bits include every set bit of v is v.

    So the block is exact on the single-excitation sector in slot order,
    which is all the walk model and `verify` use.
    """
    writes = (*(q for i, q in enumerate(binary) if value >> i & 1), flag)
    cnots = [Instruction._make((Gate.CNOT, (eta,), (q,), locus, None)) for q in writes]
    return (*cnots, Instruction._make((Gate.MCX, writes, (eta,), locus, None)))


def compile_scatter(layout: QubitLayout, node: int) -> tuple[Instruction, ...]:
    """The node's scattering block: (2/d)J - I on its facing qubits.

    Degree 1 scatters trivially and emits nothing; degree 2 is one swap of
    the two facing qubits.  From degree 3 up the block transfers whichever
    facing qubit is excited into the register, slot by slot in the node's
    enumeration order (`_slot`), applies one flag-controlled `diffusion`
    gate, which maps the d slot values by (2/d)J - I and leaves the
    unreachable values above them alone, and runs the transfer backwards.
    Every gate is its own inverse, so the backward half is the forward half
    reversed, holding the same record objects.

    Raises:
        CircuitError: If the node is outside the layout.
    """
    d = layout.degree(node)
    if d < 2:
        return ()
    locus = Locus("node", node)
    if d == 2:
        return (Instruction._make((Gate.SWAP, (), layout.facing[node], locus, None)),)
    binary, flag = layout.register(node)
    slots = map(_slot, layout.facing[node], count(), repeat(binary), repeat(flag), repeat(locus))
    transfer = tuple(chain.from_iterable(slots))
    diffusion = Instruction._make((Gate.DIFFUSION, (flag,), binary, locus, d))
    return (*transfer, diffusion, *reversed(transfer))


@dataclass(frozen=True)
class Circuit:
    """A compiled walk step: layout and flat instruction list."""

    layout: QubitLayout
    instructions: tuple[Instruction, ...]

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The oracle, the coin, then one scatter per node, from the loci.

        The oracle and the coin are the leading run of edge loci, the coin
        being its last n_edges instructions, on edges 0, 1, ..., E-1 in
        order.  Then the scatter of node u is the run of locus ("node", u),
        in node order, empty for a node that emits nothing.

        Raises:
            CircuitError: Naming the first instruction whose locus is out of
                that order, or is not an edge or node of the layout.
        """
        loci = list(map(itemgetter(3), self.instructions))
        n, n_edges, n_nodes = len(loci), self.layout.n_edges, self.layout.n_nodes
        run = next((pos for pos, (kind, _) in enumerate(loci) if kind != "edge"), n)
        coin = max(run - n_edges, 0)
        for pos in range(coin + n_edges):
            if pos == n:
                raise CircuitError(f"instructions end before the coin's edge {pos - coin}: {_ORDER}")
            ident = loci[pos][1]
            if not (0 <= ident < n_edges if pos < coin else pos < run and ident == pos - coin):
                raise self._out_of_place(pos)
        phases = [Phase("oracle", None, 0, coin), Phase("coin", None, coin, run)]
        pos = run
        for u in range(n_nodes):
            start, locus = pos, ("node", u)
            while pos < n and loci[pos] == locus:
                pos += 1
            phases.append(Phase("scatter", u, start, pos))
        if pos < n:
            raise self._out_of_place(pos)
        return tuple(phases)

    def _out_of_place(self, pos: int) -> CircuitError:
        kind, ident = self.instructions[pos].locus
        counts = {"edge": self.layout.n_edges, "node": self.layout.n_nodes}
        if kind not in counts:
            return CircuitError(f"instruction {pos}: unknown locus kind {kind!r}")
        if not 0 <= ident < counts[kind]:
            return CircuitError(f"instruction {pos}: unknown {kind} {ident}")
        return CircuitError(f"instruction {pos}: locus {kind} {ident} out of place: {_ORDER}")

    def to_json(self) -> str:
        """The document, byte for byte `json.dumps(doc, indent=2) + "\\n"`, from
        templates: an indented `json.dumps` runs the pure-Python encoder.  Each distinct
        record object is one `%` on the template of its shape, reused by identity."""
        records = dict(zip(map(id, self.instructions), self.instructions))
        templates, rendered = {}, []
        for gate, controls, targets, (kind, ident), d in records.values():
            shape = (gate, len(controls), len(targets), kind, d)
            template = templates.get(shape) or templates.setdefault(shape, _template(*shape))
            rendered.append(template % (*controls, *targets, ident))
        if len(rendered) < len(self.instructions):  # some object recurs
            rendered = map(dict(zip(records, rendered)).__getitem__, map(id, self.instructions))
        facing = ",\n      ".join(map(_int_list, self.layout.facing))
        instructions = ",\n".join(rendered)
        return '{\n  "layout": {\n    "facing": %s\n  },\n  "instructions": %s\n}\n' % (
            f"[\n      {facing}\n    ]" if facing else "[]",
            f"[\n{instructions}\n  ]" if instructions else "[]",
        )


def _template(gate: Gate, n_controls: int, n_targets: int, kind: str, d: int | None) -> str:
    """An instruction of this shape as the indented `json.dumps` writes it, with a
    %s for each control and target, %d for the locus id, and any other `%` doubled."""
    controls, targets = _int_list(["%s"] * n_controls), _int_list(["%s"] * n_targets)
    kind = json.dumps(kind).replace("%", "%%")
    tail = "" if d is None else ',\n      "d": %d' % d
    return (
        f'    {{\n      "gate": "{gate.value}",\n      "controls": {controls},\n'
        f'      "targets": {targets},\n      "locus": {{\n        "kind": {kind},\n'
        f'        "id": %d\n      }}{tail}\n    }}'
    )


def _int_list(xs) -> str:
    """An int list as the indented `json.dumps` writes it at depth 3: items at 8 spaces."""
    return "[\n        " + ",\n        ".join(map(str, xs)) + "\n      ]" if xs else "[]"


def compile_step(
    g: Graph,
    p: PolarityMap,
    marked,
    enumeration_seed: int | None = None,
) -> Circuit:
    """Compile one full walk step: oracle, coin, then every node's scatter.

    Each block's instructions carry its locus, so `Circuit.phases` reads
    the spans back from them.
    """
    layout = build_layout(g, p, enumeration_seed=enumeration_seed)
    blocks = [compile_oracle(layout, marked), compile_coin(layout)]
    blocks += (compile_scatter(layout, u) for u in range(g.n))
    return Circuit(layout, tuple(chain.from_iterable(blocks)))


_JSON_NAMES = {list: "array", dict: "object", int: "integer", str: "string"}
_GATES = {gate.value: gate for gate in Gate}


def _typed(value, kind: type, field: str):
    """Return `value` if it is a JSON value of `kind`: list, dict, int or str.

    Types are matched exactly, so a bool or a float is not a JSON integer.
    """
    if type(value) is not kind:
        raise CircuitError(f"{field} must be a JSON {_JSON_NAMES[kind]}")
    return value


def _ints(value, field: str) -> tuple[int, ...]:
    """A JSON array of JSON integers, as a tuple: one C-level type pass,
    and a per-item loop only to name the first item at fault."""
    if type(value) is list and set(map(type, value)) <= {int}:
        return tuple(value)
    items = _typed(value, list, field)
    return tuple(_typed(q, int, f"{field}[{i}]") for i, q in enumerate(items))


def circuit_from_json(text: str) -> Circuit:
    """Parse a circuit document, validating its structure.

    A `str` in the exact layout `Circuit.to_json` writes is read by regexes
    over the writer's templates (`_from_template`): each distinct instruction
    text is parsed and checked once, and equal records share one object, as
    the writer's do.  Any other text or bytes, and any document that misses
    the template or fails a check, goes through `json.loads` and a per-item
    loop, which names the first fault.  The layout is rebuilt from
    `layout.facing`; other layout keys and the top-level `qubits` and
    `phases`, which older documents carry, are ignored.  The phases are
    worked out from the loci once, so a document out of `compile_step`'s
    order does not load, nor one that is not local.

    Raises:
        CircuitError: On invalid JSON, schema violations (naming the field),
            a `facing` that `QubitLayout` rejects, a gate that does not fit
            its arity or degree, a qubit beyond the register, an instruction
            whose locus is unknown or out of place (named as
            `Circuit.phases` does), or one that is not local (as
            `locality_audit` does).
    """
    with _collector_paused():
        if type(text) is str:
            with suppress(ValueError):  # a CircuitError, or an int past int()'s digit limit
                circuit = _from_template(text)
                if circuit is not None:
                    return circuit
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int past int()'s digit limit
            raise CircuitError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise CircuitError("circuit document must be a JSON object")
        for key in ("layout", "instructions"):
            if key not in doc:
                raise CircuitError(f"circuit document missing {key!r}")
        lay = _typed(doc["layout"], dict, "layout")
        rows = _typed(lay.get("facing"), list, "layout.facing")
        layout = QubitLayout(tuple(_ints(f, f"layout.facing[{u}]") for u, f in enumerate(rows)))
        return _load_item_by_item(_typed(doc["instructions"], list, "instructions"), layout)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore its state.  Records
    and simulator groups hold no cycle, and building many of them would set
    off full collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# `Circuit.to_json`'s layout: `_int_list`'s items, the frame, and one `_template`
# record.  The `re` functions compile each pattern on first use and cache it,
# so a process that loads no document does not pay for them.
_INT = "(?:0|[1-9][0-9]*)"
_ITEMS = r"(?:\n        %s(?:,\n        %s)*\n      )?" % (_INT, _INT)
_DOCUMENT = (
    r'(?s)\{\n  "layout": \{\n    "facing": \[((?:\n      \[%s\](?:,\n      \[%s\])*\n    )?)\]\n  \},\n'
    r'  "instructions": \[(?:\n    \{\n(.*)\n    \}\n  )?\]\n\}\n' % (_ITEMS, _ITEMS)
)
_ROW = r"\[([^][]*)\]"
_RECORD = (
    r'      "gate": "([a-z]+)",\n      "controls": \[(%s)\],\n      "targets": \[(%s)\],\n'
    r'      "locus": \{\n        "kind": "([a-z]+)",\n        "id": (%s)\n      \}(?:,\n      "d": (%s))?\0'
    % (_ITEMS, _ITEMS, _INT, _INT)
)


def _from_template(text: str) -> Circuit | None:
    """The circuit of a document in `Circuit.to_json`'s exact layout, or None
    if the text is laid out otherwise.

    Each distinct instruction text is parsed once, in one `_RECORD` pass whose
    matches must tile the texts, and its record checked once, as the loader
    checks any: known gate, `_shape_fault`, no repeated qubit, and locality,
    which covers the qubit range since a locus owns only register qubits.

    Raises:
        ValueError: A `CircuitError` from `QubitLayout` or `Circuit.phases`,
            or an int past `int()`'s digit limit.
    """
    frame = re.fullmatch(_DOCUMENT, text)
    if frame is None:
        return None
    facing, body = frame.groups()
    chunks = body.split("\n    },\n    {\n") if body is not None else []
    distinct = dict.fromkeys(chunks)
    # A NUL ends each text, and JSON holds none: empty gaps and one match per
    # text mean that each match is one whole text.
    parts = re.split(_RECORD, "\0".join([*distinct, ""]))
    if len(parts) != 7 * len(distinct) + 1 or any(parts[::7]):
        return None
    names, controls, targets, kinds, ids, ds = (parts[i::7] for i in range(1, 7))
    lists = dict.fromkeys(chain(controls, targets))
    lists = dict(zip(lists, _int_tuples(lists)))
    controls, targets = list(map(lists.__getitem__, controls)), list(map(lists.__getitem__, targets))
    ds = [None if d is None else int(d) for d in ds]
    gates = list(map(_GATES.get, names))
    shapes = set(zip(gates, map(len, controls), map(len, targets), ds))
    if None in gates or any(_shape_fault(*shape) for shape in shapes):
        return None
    qubits = list(map(add, controls, targets))
    if list(map(len, map(set, qubits))) != list(map(len, qubits)):
        return None  # a repeated qubit
    layout = QubitLayout(tuple(_int_tuples(re.findall(_ROW, facing))))
    # The layout's own loci, so that records share them; None for an unknown one.
    known = {locus: locus for locus in layout.local_qubits}
    loci = list(map(known.get, zip(kinds, map(int, ids))))
    if _nonlocal(layout.local_qubits, loci, qubits):
        return None
    records = map(Instruction._make, zip(gates, controls, targets, loci, ds))
    records = dict(zip(distinct, records))
    circuit = Circuit(layout, tuple(map(records.__getitem__, chunks)))
    circuit.phases  # raises on loci out of compile_step's order
    return circuit


def _int_tuples(texts) -> list[tuple[int, ...]]:
    """The int tuple of each `_int_list` body (`int` skips the whitespace)."""
    return [tuple(map(int, t.split(","))) if t else () for t in texts]


def _load_item_by_item(items: list, layout: QubitLayout) -> Circuit:
    """The circuit of a document's instructions, checked one at a time.

    Raises:
        CircuitError: Naming the first fault, as `circuit_from_json` does.
    """
    instructions: list[Instruction] = []
    for pos, ins in enumerate(items):
        if type(ins) is not dict:
            raise CircuitError(f"instruction {pos} must be a JSON object")
        try:
            name = ins["gate"]
            gate = _GATES.get(name) if type(name) is str else None
            kind, ident = ins["locus"]["kind"], ins["locus"]["id"]
            locus = Locus(_typed(kind, str, "locus.kind"), _typed(ident, int, "locus.id"))
            instructions.append(
                Instruction(
                    gate or Gate(name),  # Gate(name) raises, naming an unknown gate
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
        if max(instructions[-1].qubits()) >= layout.n_qubits:
            raise CircuitError(f"instruction {pos}: qubit index beyond {layout.n_qubits}")
    circuit = Circuit(layout, tuple(instructions))
    circuit.phases  # raises on loci out of compile_step's order
    stray = locality_audit(circuit).violations
    if stray:
        raise CircuitError(stray[0])
    return circuit


def _nonlocal(local: dict[Locus, frozenset[int]], loci, qubits) -> list[int]:
    """The positions of the gates that touch a qubit their locus does not
    own, found in one C-level pass; an unknown locus owns no qubit."""
    owned = map(local.get, loci, repeat(frozenset()))
    return list(compress(count(), map(not_, map(frozenset.issuperset, owned, qubits))))


def _stray(pos: int, circuit: Circuit) -> str:
    """Name the qubits an instruction touches outside its locus, or its unknown locus."""
    ins, local = circuit.instructions[pos], circuit.layout.local_qubits
    if ins.locus not in local:
        return str(circuit._out_of_place(pos))
    stray = [q for q in ins.qubits() if q not in local[ins.locus]]
    kind, ident = ins.locus
    return f"instruction {pos}: {ins.gate.value} touches qubits {stray} outside its {kind} {ident}"


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
    incident edges.  Each node is held to 2 * d * width controlled gates
    (CNOT or MCX) per step, width = ceil(log2 d) + 1 being its register's.
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

    def to_json(self) -> str:
        """The report, byte for byte `json.dumps(self.to_json_dict(), indent=2)
        + "\\n"`, from templates as in `Circuit.to_json`."""
        violations = ",\n    ".join(map(json.dumps, self.violations))
        nodes = ",\n".join(
            _NODE_AUDIT % (
                n.node, n.degree, n.cnot_mcx, n.diffusion, n.bound,
                "true" if n.within_bound else "false",
            )
            for n in self.nodes
        )
        return '{\n  "ok": %s,\n  "all_within_bound": %s,\n  "violations": %s,\n  "nodes": %s\n}\n' % (
            json.dumps(self.ok),
            json.dumps(self.all_within_bound),
            f"[\n    {violations}\n  ]" if self.violations else "[]",
            f"[\n{nodes}\n  ]" if nodes else "[]",
        )


_NODE_AUDIT = (
    '    {\n      "node": %d,\n      "degree": %d,\n      "cnot_mcx": %d,\n'
    '      "diffusion": %d,\n      "bound": %d,\n      "within_bound": %s\n    }'
)


def locality_audit(circuit: Circuit) -> AuditReport:
    """Check every instruction against its locus and tally controlled gates: each
    distinct record object once, and every position of one that fails, in order."""
    layout, instructions = circuit.layout, circuit.instructions
    local = layout.local_qubits
    records = list(dict(zip(map(id, instructions), instructions)).values())
    qubits = map(add, map(itemgetter(1), records), map(itemgetter(2), records))
    stray = {id(records[i]) for i in _nonlocal(local, map(itemgetter(3), records), qubits)}
    at = compress(count(), map(stray.__contains__, map(id, instructions))) if stray else ()
    violations = tuple(map(_stray, at, repeat(circuit)))
    # Only the layout's nodes are read back from the tallies.
    gates, loci = (list(map(itemgetter(i), instructions)) for i in (0, 3))
    controlled = Counter(compress(loci, map(contains, repeat((Gate.CNOT, Gate.MCX)), gates)))
    diffusions = Counter(compress(loci, map(is_, gates, repeat(Gate.DIFFUSION))))
    nodes = []
    for u, (d, (start, stop)) in enumerate(zip(map(len, layout.facing), pairwise(layout._starts))):
        tally = controlled.get(("node", u), 0), diffusions.get(("node", u), 0)
        nodes.append(NodeAudit(u, d, *tally, bound=2 * d * (stop - start)))
    return AuditReport(nodes=tuple(nodes), violations=violations)
