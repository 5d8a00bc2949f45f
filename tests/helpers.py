"""Shared test utilities: the dense walk reference, dense gate oracles,
random-state builders, the gate-by-gate reference simulator, the package's
own gate and circuit-matrix code in the shapes tests read, and the circuit
document as a plain dict.

The walk reference is the step stage by stage, independent of the package's
`WalkPlan` kernels: the oracle as the negated pole swap on each marked
edge, the coin as the pole swap on every edge, and the Grover diffusion as
its own dense (2/d)J - I.  The dense gate builders reconstruct each gate's full
2^n matrix from first principles (basis-by-basis bit arithmetic),
independent of the sparse simulator's dictionary transforms, so the two can
be compared.  A diffusion is built as that dense (2/d)J - I padded with the
identity, not by the simulator's segment sums.  The reference simulator
applies one gate at a time to the whole state and runs the circuit once per
column, the plain form that the grouped simulator and the batched circuit
matrix must reproduce.  It keys amplitudes by basis index, qubit q as bit
n - 1 - q, and turns `SparseState` keys into indices and back only through
`key_of` and `qubits_of`.  `apply_gate` runs one gate through the code
`run` executes, and `circuit_matrix` fills a dense matrix from the entries
`verify_circuit_equivalence` reads.  `document_dict` is the document's
schema as a dict, the reference `Circuit.to_json` must write byte for byte
through `json.dumps(..., indent=2)`.
"""

from __future__ import annotations

import numpy as np

from graphwalk import (
    Circuit, Gate, Graph, GraphError, Instruction, OracleSpec, SimulationError,
    SparseState, WalkState,
)
from graphwalk.simulator import (
    CIRCUIT_NORM_TOL, GATE_NORM_TOL, PRUNE_EPS, _circuit_entries, _Columns,
)


def grover_matrix(d: int) -> np.ndarray:
    """Grover diffusion (2/d)J - I on d amplitudes, as a dense matrix."""
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def reference_oracle(state: WalkState, oracle: OracleSpec) -> WalkState:
    """Apply -X, the negated pole swap, to every marked edge in place, and
    return the state."""
    if oracle.marked:
        idx = np.fromiter(oracle.marked, dtype=int)
        if idx.min() < 0 or idx.max() >= state.n_edges:
            raise ValueError(f"marked edge index out of range for {state.n_edges} edges")
        state.psi[idx] = -state.psi[idx, ::-1]
    return state


def reference_coin(state: WalkState) -> WalkState:
    """Apply X, the pole swap, to every edge in place, and return the state."""
    state.psi = state.psi[:, ::-1].copy()
    return state


def key_of(qubits, n: int) -> int:
    """The n-qubit basis index with the given qubits excited: qubit q is bit
    n - 1 - q, so the binary label reads left to right as qubit 0, 1, ..."""
    return sum(1 << (n - 1 - q) for q in qubits)


def qubits_of(key: int, n: int) -> tuple[int, ...]:
    """The ascending tuple of the qubits an n-qubit basis index excites."""
    return tuple(q for q in range(n) if key & key_of((q,), n))


def bit_of(key: int, qubit: int, n: int) -> int:
    return int(key & key_of((qubit,), n) != 0)


def with_bit(key: int, qubit: int, n: int, value: int) -> int:
    mask = key_of((qubit,), n)
    return (key | mask) if value else (key & ~mask)


def diffusion_matrix(ins: Instruction) -> np.ndarray:
    """A diffusion's local matrix on its target value: (2/d)J - I on the
    values below d, padded with the identity up to 2^len(targets)."""
    m = np.eye(1 << len(ins.targets), dtype=complex)
    m[: ins.d, : ins.d] = grover_matrix(ins.d)
    return m


def dense_instruction_matrix(ins: Instruction, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one instruction, built basis by basis."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        if ins.gate is Gate.X:
            mat[with_bit(b, ins.targets[0], n, 1 - bit_of(b, ins.targets[0], n)), b] = 1
        elif ins.gate is Gate.Z:
            mat[b, b] = -1 if bit_of(b, ins.targets[0], n) else 1
        elif ins.gate is Gate.CNOT:
            t = ins.targets[0]
            if bit_of(b, ins.controls[0], n):
                mat[with_bit(b, t, n, 1 - bit_of(b, t, n)), b] = 1
            else:
                mat[b, b] = 1
        elif ins.gate is Gate.SWAP:
            qa, qb = ins.targets
            img = with_bit(b, qa, n, bit_of(b, qb, n))
            img = with_bit(img, qb, n, bit_of(b, qa, n))
            mat[img, b] = 1
        elif ins.gate is Gate.MCX:
            t = ins.targets[0]
            if all(bit_of(b, c, n) for c in ins.controls):
                mat[with_bit(b, t, n, 1 - bit_of(b, t, n)), b] = 1
            else:
                mat[b, b] = 1
        elif ins.gate is Gate.DIFFUSION:
            if not all(bit_of(b, c, n) for c in ins.controls):
                mat[b, b] = 1
                continue
            local = diffusion_matrix(ins)
            val = 0
            for i, q in enumerate(ins.targets):
                val |= bit_of(b, q, n) << i
            for new_val in range(local.shape[0]):
                img = b
                for i, q in enumerate(ins.targets):
                    img = with_bit(img, q, n, new_val >> i & 1)
                mat[img, b] = local[new_val, val]
        else:
            raise AssertionError(f"unhandled gate {ins.gate}")
    return mat


def sparse_to_dense(state: SparseState) -> np.ndarray:
    n = state.n_qubits
    vec = np.zeros(1 << n, dtype=complex)
    for k, a in state.amps.items():
        vec[key_of(k, n)] = a
    return vec


def dense_to_sparse(vec: np.ndarray, n: int) -> SparseState:
    return SparseState({qubits_of(k, n): complex(a) for k, a in enumerate(vec) if a != 0}, n)


def random_sparse_state(n: int, rng: np.random.Generator, support: int = 12) -> SparseState:
    keys = rng.choice(1 << n, size=min(support, 1 << n), replace=False)
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return SparseState({qubits_of(int(k), n): complex(a) for k, a in zip(keys, amps)}, n)


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """A seeded random simple connected d-regular graph: stub pairings of
    the configuration model, redrawn until simple and connected."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    while True:
        pairs = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1)
        if (pairs[:, 0] == pairs[:, 1]).any() or len(np.unique(pairs, axis=0)) < len(pairs):
            continue
        try:
            return Graph(n, pairs)
        except GraphError:  # not connected
            continue


def random_walk_state(n_edges: int, rng: np.random.Generator) -> WalkState:
    psi = rng.normal(size=(n_edges, 2)) + 1j * rng.normal(size=(n_edges, 2))
    psi /= np.linalg.norm(psi)
    return WalkState(psi)


def _norm_sq(amps: dict) -> float:
    return float(sum(abs(a) ** 2 for a in amps.values()))


def _reference_gate(amps: dict[int, complex], ins: Instruction, n: int) -> dict[int, complex]:
    """One gate on amplitudes keyed by n-qubit basis index, with the squared
    norm summed before and after."""
    before = _norm_sq(amps)
    top = max(ins.controls + ins.targets)
    if top >= n:
        raise SimulationError(f"qubit {top} outside register of {n}")
    tmask = [key_of((q,), n) for q in ins.targets]
    cmask = key_of(ins.controls, n)
    out: dict[int, complex] = {}
    if ins.gate is Gate.X:
        m = tmask[0]
        out = {k ^ m: a for k, a in amps.items()}
    elif ins.gate is Gate.Z:
        m = tmask[0]
        out = {k: (-a if k & m else a) for k, a in amps.items()}
    elif ins.gate is Gate.CNOT:
        m = tmask[0]
        out = {(k ^ m if k & cmask else k): a for k, a in amps.items()}
    elif ins.gate is Gate.SWAP:
        ma, mb = tmask
        both = ma | mb
        out = {
            (k ^ both if bool(k & ma) != bool(k & mb) else k): a
            for k, a in amps.items()
        }
    elif ins.gate is Gate.MCX:
        m = tmask[0]
        out = {
            (k ^ m if k & cmask == cmask else k): a for k, a in amps.items()
        }
    elif ins.gate is Gate.DIFFUSION:
        all_t = key_of(ins.targets, n)
        u = diffusion_matrix(ins)
        for k, a in amps.items():
            if k & cmask != cmask:
                out[k] = out.get(k, 0j) + a
                continue
            val = 0
            for i, m in enumerate(tmask):
                if k & m:
                    val |= 1 << i
            base = k & ~all_t
            col = u[:, val]
            for new_val in np.nonzero(np.abs(col) > PRUNE_EPS)[0]:
                nk = base
                for i, m in enumerate(tmask):
                    if new_val >> i & 1:
                        nk |= m
                out[nk] = out.get(nk, 0j) + col[new_val] * a
    else:
        raise AssertionError(f"unhandled gate {ins.gate}")
    out = {k: a for k, a in out.items() if abs(a) > PRUNE_EPS}
    after = _norm_sq(out)
    if abs(after - before) > GATE_NORM_TOL * max(1.0, before):
        raise SimulationError(
            f"gate {ins.gate.value} changed the squared norm by {after - before:.3e}"
        )
    return out


def reference_apply_instruction(state: SparseState, ins: Instruction) -> SparseState:
    """Gate-by-gate sparse transform over the whole state, on keys turned
    into basis indices and back: the simulator's original one-instruction
    semantics, kept as the reference for block simulation."""
    n = state.n_qubits
    amps = _reference_gate({key_of(k, n): a for k, a in state.amps.items()}, ins, n)
    return SparseState({qubits_of(k, n): a for k, a in amps.items()}, n)


def reference_run(circuit: Circuit, state: SparseState) -> SparseState:
    """Every instruction as `reference_apply_instruction` applies it, with the
    keys turned into basis indices once, and the whole-circuit norm check."""
    n = state.n_qubits
    amps = {key_of(k, n): a for k, a in state.amps.items()}
    before = _norm_sq(amps)
    for ins in circuit.instructions:
        amps = _reference_gate(amps, ins, n)
    after = _norm_sq(amps)
    if abs(after - before) > CIRCUIT_NORM_TOL * max(1.0, before):
        raise SimulationError(f"circuit changed the squared norm by {after - before:.3e}")
    return SparseState({qubits_of(k, n): a for k, a in amps.items()}, n)


def reference_step_circuit_matrix(circuit: Circuit) -> tuple[np.ndarray, list[float]]:
    """Column-by-column, gate-by-gate circuit matrix: one `reference_run`
    per single-excitation basis state.  Returns the matrix and each
    column's leaked weight."""
    layout = circuit.layout
    n = circuit.n_qubits
    dim = 2 * layout.n_edges
    onehot = {(q,): q for q in range(dim)}
    mat = np.zeros((dim, dim), dtype=complex)
    leaks = []
    for j in range(dim):
        final = reference_run(circuit, SparseState({(j,): 1.0 + 0j}, n))
        leaked = 0.0
        for k, a in final.amps.items():
            if k in onehot:
                mat[onehot[k], j] = a
            else:
                leaked += abs(a) ** 2
        leaks.append(leaked)
    return mat, leaks


def apply_gate(state: SparseState, ins: Instruction) -> SparseState:
    """One gate as `run` applies it: the state as one column, the gate in
    place, and the column back as a new state."""
    cols = _Columns.of(state)
    cols.apply(ins)
    return cols.state()


def circuit_matrix(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The circuit's dense matrix on the 2|E| walk amplitudes and each
    column's leaked weight, from the batched run `verify` makes."""
    rows, cols, vals, leak = _circuit_entries(circuit)
    mat = np.zeros((len(leak),) * 2, dtype=complex)
    mat[rows, cols] = vals
    return mat, leak


def document_dict(circuit: Circuit) -> dict:
    """The circuit document as a dict: the layout's `facing`, then each
    instruction's gate, controls, targets, locus and (diffusion only) d."""

    def instruction(ins: Instruction) -> dict:
        out = {
            "gate": ins.gate.value,
            "controls": list(ins.controls),
            "targets": list(ins.targets),
            "locus": {"kind": ins.locus.kind, "id": ins.locus.id},
        }
        if ins.d is not None:
            out["d"] = ins.d
        return out

    return {
        "layout": {"facing": [list(f) for f in circuit.layout.facing]},
        "instructions": [instruction(ins) for ins in circuit.instructions],
    }
