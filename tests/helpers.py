"""Shared test utilities: dense gate oracles, random-state builders, and the
gate-by-gate reference simulator.

The dense builders reconstruct each gate's full 2^n matrix from first
principles (basis-by-basis bit arithmetic), independent of the sparse
simulator's dictionary transforms, so the two can be compared.  A diffusion
is built as the dense `DiffusionOperator` matrix padded with the identity,
not by the simulator's segment sums.  The reference simulator applies one
gate at a time to the whole state and runs the circuit once per column, the
plain form that the block simulator and the batched circuit matrix must
reproduce.
"""

from __future__ import annotations

import numpy as np

from graphwalk import (
    Circuit, DiffusionOperator, Gate, Instruction, SimulationError, SparseState, WalkState,
)
from graphwalk.simulator import CIRCUIT_NORM_TOL, GATE_NORM_TOL, PRUNE_EPS


def bit_of(key: int, qubit: int, n: int) -> int:
    return key >> (n - 1 - qubit) & 1


def with_bit(key: int, qubit: int, n: int, value: int) -> int:
    mask = 1 << (n - 1 - qubit)
    return (key | mask) if value else (key & ~mask)


def diffusion_matrix(ins: Instruction) -> np.ndarray:
    """A diffusion's local matrix on its target value: (2/d)J - I on the
    values below d, padded with the identity up to 2^len(targets)."""
    m = np.eye(1 << len(ins.targets), dtype=complex)
    m[: ins.d, : ins.d] = DiffusionOperator(ins.d).matrix
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
    vec = np.zeros(1 << state.n_qubits, dtype=complex)
    for k, a in state.amps.items():
        vec[k] = a
    return vec


def dense_to_sparse(vec: np.ndarray, n: int) -> SparseState:
    return SparseState({k: complex(a) for k, a in enumerate(vec) if a != 0}, n)


def random_sparse_state(n: int, rng: np.random.Generator, support: int = 12) -> SparseState:
    keys = rng.choice(1 << n, size=min(support, 1 << n), replace=False)
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return SparseState({int(k): complex(a) for k, a in zip(keys, amps)}, n)


def random_walk_state(n_edges: int, rng: np.random.Generator) -> WalkState:
    psi = rng.normal(size=(n_edges, 2)) + 1j * rng.normal(size=(n_edges, 2))
    psi /= np.linalg.norm(psi)
    return WalkState(psi)


def reference_apply_instruction(state: SparseState, ins: Instruction) -> SparseState:
    """Gate-by-gate sparse transform over the whole state, with the squared
    norm summed before and after every gate: the simulator's original
    one-instruction semantics, kept as the reference for block simulation."""
    n = state.n_qubits
    before = state.norm_sq()
    tmask = [state.mask(q) for q in ins.targets]
    cmask = 0
    for q in ins.controls:
        cmask |= state.mask(q)
    out: dict[int, complex] = {}
    if ins.gate is Gate.X:
        m = tmask[0]
        out = {k ^ m: a for k, a in state.amps.items()}
    elif ins.gate is Gate.Z:
        m = tmask[0]
        out = {k: (-a if k & m else a) for k, a in state.amps.items()}
    elif ins.gate is Gate.CNOT:
        m = tmask[0]
        out = {(k ^ m if k & cmask else k): a for k, a in state.amps.items()}
    elif ins.gate is Gate.SWAP:
        ma, mb = tmask
        both = ma | mb
        out = {
            (k ^ both if bool(k & ma) != bool(k & mb) else k): a
            for k, a in state.amps.items()
        }
    elif ins.gate is Gate.MCX:
        m = tmask[0]
        out = {
            (k ^ m if k & cmask == cmask else k): a for k, a in state.amps.items()
        }
    elif ins.gate is Gate.DIFFUSION:
        all_t = 0
        for m in tmask:
            all_t |= m
        u = diffusion_matrix(ins)
        for k, a in state.amps.items():
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
    result = SparseState(out, n)
    after = result.norm_sq()
    if abs(after - before) > GATE_NORM_TOL * max(1.0, before):
        raise SimulationError(
            f"gate {ins.gate.value} changed the squared norm by {after - before:.3e}"
        )
    return result


def reference_run(circuit: Circuit, state: SparseState) -> SparseState:
    """Every instruction through `reference_apply_instruction`, with the
    whole-circuit norm check."""
    before = state.norm_sq()
    for ins in circuit.instructions:
        state = reference_apply_instruction(state, ins)
    after = state.norm_sq()
    if abs(after - before) > CIRCUIT_NORM_TOL * max(1.0, before):
        raise SimulationError(f"circuit changed the squared norm by {after - before:.3e}")
    return state


def reference_step_circuit_matrix(circuit: Circuit) -> tuple[np.ndarray, list[float]]:
    """Column-by-column, gate-by-gate circuit matrix: one `reference_run`
    per single-excitation basis state.  Returns the matrix and each
    column's leaked weight."""
    layout = circuit.layout
    n = circuit.n_qubits
    dim = 2 * layout.n_edges
    onehot = {
        1 << (n - 1 - q): 2 * e + c
        for e, pair in enumerate(layout.edge_qubits)
        for c, q in enumerate(pair)
    }
    mat = np.zeros((dim, dim), dtype=complex)
    leaks = []
    for j in range(dim):
        e, c = divmod(j, 2)
        key = 1 << (n - 1 - layout.edge_qubits[e][c])
        final = reference_run(circuit, SparseState({key: 1.0 + 0j}, n))
        leaked = 0.0
        for k, a in final.amps.items():
            if k in onehot:
                mat[onehot[k], j] = a
            else:
                leaked += abs(a) ** 2
        leaks.append(leaked)
    return mat, leaks
