"""Sparse state-vector simulation of compiled walk circuits.

Walk circuits act on a single excitation shared by the edge qubits, so of the
2^n basis states only O(edges) ever carry amplitude.  States are dicts from
basis index to amplitude; qubit 0 is the leftmost bit of the basis label.

Every node acts only on its own neighbourhood, so a compiled step is a
sequence of small local blocks.  The monomial gates (x, z, cnot, swap, mcx)
each map a basis state to one basis state up to a sign; `run` applies a run
of them that shares a locus as one block, working its action out once per
distinct local bit pattern and moving every amplitude by table lookup.  A
diffusion touches only the amplitudes whose controls are set, with one sum
per group of them that shares every non-target bit.  Key bits above the
register label independent columns that no gate touches, so
`step_circuit_matrix` evolves all 2|E| unit columns in one run, with every
norm check held per column.  Projecting back onto the walk's edge amplitudes
checks that nothing leaked out of the one-excitation subspace and that every
register returned to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import walk
from .compiler import Circuit, CircuitError, Gate, Instruction, QubitLayout, compile_step
from .walk import WalkState

PRUNE_EPS = 1e-15
GATE_NORM_TOL = 1e-13
CIRCUIT_NORM_TOL = 1e-12


class SimulationError(RuntimeError):
    """Raised when a circuit run violates a runtime invariant."""


class SubspaceLeakageError(SimulationError):
    """Raised when amplitude leaves the single-excitation walk subspace.

    Attributes:
        leaked: Total probability weight outside the subspace.
    """

    def __init__(self, leaked: float):
        super().__init__(
            f"probability weight {leaked:.3e} left the walk subspace"
        )
        self.leaked = leaked


@dataclass
class SparseState:
    """Amplitudes over computational basis states, keyed by basis index.

    Attributes:
        amps: Map from basis index to complex amplitude.
        n_qubits: Width of the register; qubit q is bit (n_qubits - 1 - q)
            of the key, so basis labels read left to right as qubit 0, 1, ...
            Key bits at or above n_qubits label independent columns: gates
            never touch them, and the simulator's norm checks hold for each
            column (the amplitudes sharing key >> n_qubits) on its own.
    """

    amps: dict[int, complex]
    n_qubits: int

    def mask(self, q: int) -> int:
        if not 0 <= q < self.n_qubits:
            raise SimulationError(f"qubit {q} outside register of {self.n_qubits}")
        return 1 << (self.n_qubits - 1 - q)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def basis_label(self, key: int) -> str:
        return format(key, f"0{self.n_qubits}b")

    def to_json_list(self) -> list[dict]:
        """Dump as a list of {basis, re, im} entries sorted by basis string."""
        return [
            {"basis": self.basis_label(k), "re": float(a.real), "im": float(a.imag)}
            for k, a in sorted(self.amps.items())
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_list(), indent=2) + "\n"


def _edge_keys(layout: QubitLayout, n: int) -> dict[int, int]:
    """Map the key of each edge qubit's single excitation, in an n-qubit
    register, to its walk amplitude index 2e + c (edge e, pole c)."""
    return {
        1 << (n - 1 - q): 2 * e + c
        for e, pair in enumerate(layout.edge_qubits)
        for c, q in enumerate(pair)
    }


def init_walk_superposition(layout: QubitLayout) -> SparseState:
    """Uniform single-excitation state over all edge qubits, registers zero."""
    n = layout.n_qubits
    amp = complex(1.0 / np.sqrt(2 * layout.n_edges))
    return SparseState(dict.fromkeys(_edge_keys(layout, n), amp), n)


def _masks(state: SparseState, ins: Instruction) -> tuple[int, tuple[int, ...]]:
    """Key masks of an instruction: all controls ORed, then each target."""
    cmask = 0
    for q in ins.controls:
        cmask |= state.mask(q)
    return cmask, tuple(state.mask(q) for q in ins.targets)


def _act(gate: Gate, cmask: int, tmasks: tuple[int, ...], keys, flips):
    """One monomial gate on parallel lists of basis keys and sign flips.

    x, cnot and mcx flip their target when every control is set (x has
    none), z flips the sign of keys whose target is set, and swap exchanges
    its two target bits.  Returns the new (keys, flips).
    """
    if gate is Gate.Z:
        (m,) = tmasks
        return keys, [f != bool(k & m) for k, f in zip(keys, flips)]
    if gate is Gate.SWAP:
        a, b = tmasks
        both = a | b
        return [k ^ both if bool(k & a) != bool(k & b) else k for k in keys], flips
    (m,) = tmasks
    return [k ^ m if k & cmask == cmask else k for k in keys], flips


def _apply_block(
    amps: dict[int, complex], block: list[Instruction], state: SparseState
) -> dict[int, complex]:
    """Apply a run of monomial gates as one signed permutation of the keys.

    The block's local mask is the union of the qubits its gates touch.  Each
    distinct local bit pattern in the state goes through the gates once;
    every amplitude is then moved by table lookup.

    Raises:
        SimulationError: If two amplitudes land on one key.
    """
    ops = [(ins.gate, *_masks(state, ins)) for ins in block]
    local = 0
    for _, cmask, tmasks in ops:
        local |= cmask
        for m in tmasks:
            local |= m
    parts = list({k & local for k in amps})
    images, flips = parts, [False] * len(parts)
    for gate, cmask, tmasks in ops:
        images, flips = _act(gate, cmask, tmasks, images, flips)
    table = dict(zip(parts, zip(images, flips)))
    out: dict[int, complex] = {}
    for k, a in amps.items():
        part = k & local
        image, flip = table[part]
        out[k ^ part ^ image] = -a if flip else a
    if len(out) != len(amps):
        raise SimulationError(
            f"gates {', '.join(ins.gate.value for ins in block)} mapped "
            f"{len(amps)} amplitudes onto {len(out)} keys"
        )
    return out


def _check_drift(
    before: dict[int, float], after: dict[int, float], tol: float, what: str
) -> None:
    """Compare each column's squared norm before and after.

    Raises:
        SimulationError: "<what> changed the squared norm by <drift>" if a
            column's squared norm moved by more than tol * max(1, norm).
    """
    for col in before.keys() | after.keys():
        norm = before.get(col, 0.0)
        drift = after.get(col, 0.0) - norm
        if abs(drift) > tol * max(1.0, norm):
            raise SimulationError(f"{what} changed the squared norm by {drift:.3e}")


def _apply_diffusion(
    amps: dict[int, complex], ins: Instruction, state: SparseState
) -> dict[int, complex]:
    """Diffuse the slot values of the amplitudes whose controls are all set.

    Armed amplitudes sharing every non-target key bit form one group.  Each
    slot value v below d becomes (2/d) * (the group's sum) - x_v, pruned
    below 1e-15; higher values stay.  The squared norm of the diffused
    amplitudes is checked column by column (key bits above the register).

    Raises:
        SimulationError: If a column's squared norm drifts by more than 1e-13.
    """
    n, d = state.n_qubits, ins.d
    cmask, tmasks = _masks(state, ins)
    # spread[v]: the key bits that spell target value v (target i is bit i).
    spread = [0]
    for m in tmasks:
        spread += [bits | m for bits in spread]
    value = {bits: v for v, bits in enumerate(spread)}
    every = spread[-1]
    groups: dict[int, dict[int, complex]] = {}
    out: dict[int, complex] = {}
    for k, a in amps.items():
        if k & cmask == cmask:
            v = value[k & every]
            if v < d:
                groups.setdefault(k & ~every, {})[v] = a
                continue
        out[k] = a
    before: dict[int, float] = {}
    after: dict[int, float] = {}
    for base, xs in groups.items():
        col = base >> n
        before[col] = before.get(col, 0.0) + sum(abs(a) ** 2 for a in xs.values())
        twice_mean = (2.0 / d) * sum(xs.values())
        for v in range(d):
            y = twice_mean - xs.get(v, 0)
            if abs(y) > PRUNE_EPS:
                out[base | spread[v]] = y
                after[col] = after.get(col, 0.0) + abs(y) ** 2
    _check_drift(before, after, GATE_NORM_TOL, f"gate {ins.gate.value}")
    return out


def _apply(
    amps: dict[int, complex], block: list[Instruction], state: SparseState
) -> dict[int, complex]:
    if block[0].gate is Gate.DIFFUSION:
        return _apply_diffusion(amps, block[0], state)
    return _apply_block(amps, block, state)


def _blocks(instructions):
    """Split instructions into runs of monomial gates sharing a locus; every
    diffusion is a block of its own."""
    block: list[Instruction] = []
    for ins in instructions:
        if block and (
            ins.gate is Gate.DIFFUSION
            or block[-1].gate is Gate.DIFFUSION
            or ins.locus != block[-1].locus
        ):
            yield block
            block = []
        block.append(ins)
    if block:
        yield block


def _pruned(amps: dict[int, complex]) -> dict[int, complex]:
    return {k: a for k, a in amps.items() if abs(a) > PRUNE_EPS}


def _column_norms(amps: dict[int, complex], n: int) -> dict[int, float]:
    """Squared norm of each column: amplitudes grouped by key >> n."""
    norms: dict[int, float] = {}
    for k, a in amps.items():
        col = k >> n
        norms[col] = norms.get(col, 0.0) + abs(a) ** 2
    return norms


def apply_instruction(state: SparseState, ins: Instruction) -> SparseState:
    """Apply one gate, returning a new pruned state.

    A monomial gate runs as a one-gate block; a diffusion is applied to the
    amplitudes whose controls are set.

    Raises:
        SimulationError: If a monomial gate maps two amplitudes onto one key,
            or a diffusion drifts a column's squared norm by more than 1e-13.
    """
    return SparseState(_apply(_pruned(state.amps), [ins], state), state.n_qubits)


def run(circuit: Circuit, state: SparseState | None = None) -> SparseState:
    """Run all instructions, starting from the walk superposition by default.

    Prunes the input once, then applies the circuit block by block: each run
    of monomial gates that shares a locus is worked out once per distinct
    local bit pattern and applied to every amplitude by table lookup, and
    each diffusion touches only the amplitudes whose controls are set.
    Key bits at or above `n_qubits` label independent columns, and every
    norm check holds per column.

    Raises:
        SimulationError: If a column's squared norm drifts by more than 1e-12
            over the whole circuit or 1e-13 over one diffusion, or a monomial
            block maps two amplitudes onto one key.
    """
    if state is None:
        state = init_walk_superposition(circuit.layout)
    n = state.n_qubits
    if n != circuit.n_qubits:
        raise SimulationError(
            f"state has {n} qubits, circuit expects {circuit.n_qubits}"
        )
    amps = _pruned(state.amps)
    before = _column_norms(amps, n)
    for block in _blocks(circuit.instructions):
        amps = _apply(amps, block, state)
    _check_drift(before, _column_norms(amps, n), CIRCUIT_NORM_TOL, "circuit")
    return SparseState(amps, n)


def _project(state: SparseState, layout: QubitLayout) -> tuple[np.ndarray, float]:
    """Split a state into walk amplitudes and leaked weight."""
    rows = _edge_keys(layout, state.n_qubits)
    psi = np.zeros(2 * layout.n_edges, dtype=complex)
    leaked = 0.0
    for k, a in state.amps.items():
        row = rows.get(k)
        if row is None:
            leaked += abs(a) ** 2
        else:
            psi[row] = a
    return psi.reshape(-1, 2), leaked


def project_to_walk_state(
    state: SparseState, layout: QubitLayout, tol: float = 1e-10
) -> WalkState:
    """Read the walk amplitudes back out of a circuit state.

    Raises:
        SubspaceLeakageError: If more than `tol` probability weight sits on
            basis states that are not a single excitation of an edge qubit
            (registers not restored, or multiple excitations).
    """
    psi, leaked = _project(state, layout)
    if leaked > tol:
        raise SubspaceLeakageError(leaked)
    return WalkState(psi)


def measure_edge(state: SparseState, layout: QubitLayout, seed=None) -> int:
    """Sample one edge from a circuit state's edge distribution."""
    walk_state = project_to_walk_state(state, layout)
    probs = np.abs(walk_state.psi[:, 0]) ** 2 + np.abs(walk_state.psi[:, 1]) ** 2
    total = float(probs.sum())
    if total <= 0.0:
        raise SimulationError("no probability weight on the edge qubits")
    return walk._sample_edge(probs, walk._as_rng(seed))


def _circuit_columns(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The circuit's matrix on the walk amplitudes and each column's leakage.

    Column j = 2e + c (edge e, pole c) starts as the key
    (j << n_qubits) | onehot(edge_qubits[e][c]); gates never touch the bits
    at or above n_qubits, so one run evolves all 2|E| columns side by side.
    """
    layout = circuit.layout
    n = circuit.n_qubits
    dim = 2 * layout.n_edges
    rows = _edge_keys(layout, n)
    start = {(j << n) | key: 1.0 + 0j for key, j in rows.items()}
    final = run(circuit, SparseState(start, n))
    mat = np.zeros((dim, dim), dtype=complex)
    leak = np.zeros(dim)
    low = (1 << n) - 1
    for k, a in final.amps.items():
        j = k >> n
        row = rows.get(k & low)
        if row is None:
            leak[j] += abs(a) ** 2
        else:
            mat[row, j] = a
    return mat, leak


def step_circuit_matrix(circuit: Circuit) -> tuple[np.ndarray, float]:
    """Dense action of the circuit on the 2|E| walk amplitudes.

    Runs the circuit once on a state holding every single-excitation basis
    state as its own column (key bits above the register) and projects each
    column; basis order matches walk.step_matrix (edge k's poles at rows 2k
    and 2k+1).  Every norm check of `run` holds column by column.

    Returns:
        (matrix, max_leakage): the matrix and the worst per-column weight
        that left the walk subspace.
    """
    mat, leak = _circuit_columns(circuit)
    return mat, float(leak.max(initial=0.0))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of checking a compiled step against the walk operator.

    Attributes:
        max_deviation: Largest entrywise gap between the circuit's action
            and the walk's one-step matrix.
        max_leakage: Worst per-column weight off the walk subspace.
        tolerance: Threshold both numbers are held to.
        n_qubits: Circuit width.
        worst_column: (edge, pole) of the first column with the largest
            deviation or leakage.
    """

    max_deviation: float
    max_leakage: float
    tolerance: float
    n_qubits: int
    worst_column: tuple[int, int]

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance and self.max_leakage <= self.tolerance

    def to_json_dict(self) -> dict:
        edge, pole = self.worst_column
        return {
            "ok": self.ok,
            "max_deviation": self.max_deviation,
            "max_leakage": self.max_leakage,
            "tolerance": self.tolerance,
            "qubits": self.n_qubits,
            "worst_column": {"edge": edge, "pole": pole},
        }


def verify_circuit_equivalence(
    g,
    p,
    marked,
    circuit: Circuit | None = None,
    tolerance: float = 1e-10,
    enumeration_seed: int | None = None,
) -> EquivalenceReport:
    """Compare a compiled step circuit against the walk model matrix.

    Compiles the step for (g, p, marked) when no circuit is given.  The walk
    side uses the standard pole-swap coin and sign oracle.

    Raises:
        ValueError: If `tolerance` is NaN or negative.
        CircuitError: If the given circuit's layout has another edge count
            than g.
    """
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance!r}")
    if circuit is None:
        circuit = compile_step(g, p, marked, enumeration_seed=enumeration_seed)
    elif circuit.layout.n_edges != g.n_edges:
        raise CircuitError(
            f"circuit has {circuit.layout.n_edges} edges, graph has {g.n_edges}"
        )
    model = walk.step_matrix(
        g, p, oracle=walk.OracleSpec(marked=frozenset(marked))
    )
    actual, leakage = _circuit_columns(circuit)
    gap = np.abs(actual - model)
    worst = int(np.argmax(np.maximum(gap.max(axis=0), leakage)))
    return EquivalenceReport(
        max_deviation=float(gap.max()),
        max_leakage=float(leakage.max(initial=0.0)),
        tolerance=tolerance,
        n_qubits=circuit.n_qubits,
        worst_column=divmod(worst, 2),
    )
