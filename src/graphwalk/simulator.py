"""Sparse state-vector simulation of compiled walk circuits.

Walk circuits act on a single excitation shared by the edge qubits, so of the
2^n basis states only O(edges) ever carry amplitude.  A `SparseState` maps
the ascending tuple of the qubits each basis state excites to its amplitude.

Every node acts only on its own neighbourhood, so a compiled step is a long
run of small local gates, and `run` spends on each gate the work of the
amplitudes it can change:

- While it runs, a basis state is the frozenset of the qubits it excites,
  however wide the register, and the state is a set of {column: amplitude}
  groups, one per basis state, each under a stable id.  `run` holds one
  column.  `verify_circuit_equivalence` runs the oracle and the coin on all
  2|E| unit columns side by side, then each distinct shape of node block
  once, on one local column per (slot, amplitude) that enters it, and
  composes the two; a circuit without that structure evolves all 2|E|
  columns through every gate instead.  Every norm check is held per
  column.  Gates never touch columns, so a gate moves whole groups by
  rewriting their keys.
- Every gate but x is the identity on a basis state with none of its
  trigger qubits set: the target of z, either target of swap, the controls
  of cnot, mcx and diffusion.  An index from each qubit to the ids whose
  key holds it gives a gate its ids: those in every control's entry, in
  z's target entry, or in exactly one of swap's two target entries.  An
  uncontrolled x looks at every id.
- The monomial gates (x, z, cnot, swap, mcx) map a basis state to one basis
  state up to a sign.  z negates the groups it selects; the others flip
  their targets in the keys of theirs and update only their targets' index
  entries.  A map from each key back to its id shows, after every gate,
  whether two groups landed on one key.
- A diffusion sums each group of armed amplitudes that share every
  non-target qubit in ascending slot value, so its result does not depend
  on the order in which the amplitudes were stored.

Projecting back onto the walk's edge amplitudes checks that nothing leaked
out of the one-excitation subspace and that every register returned to zero.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from itertools import chain, count, groupby
from operator import itemgetter, lt

import numpy as np

from . import walk
from .compiler import Circuit, CircuitError, Gate, Instruction, QubitLayout, _collector_paused
from .walk import WalkState

PRUNE_EPS = 1e-15
GATE_NORM_TOL = 1e-13
CIRCUIT_NORM_TOL = 1e-12
LEAKAGE_TOL = 1e-10


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
    """Amplitudes over computational basis states, keyed by excited qubits.

    Attributes:
        amps: Map from the strictly ascending tuple of the qubits a basis
            state excites (`()` for none) to its complex amplitude.
        n_qubits: Width of the register, above every key's qubits.
    """

    amps: dict[tuple[int, ...], complex]
    n_qubits: int


def _keys_ok(keys, n: int) -> bool:
    """Whether every key is a tuple of ints (no bools) rising strictly from 0
    or more to below n.  Each test maps a builtin over all keys at once."""
    if not set(map(type, keys)) <= {tuple}:
        return False
    qubits = list(chain.from_iterable(keys))
    if not set(map(type, qubits)) <= {int}:
        return False
    if qubits and not (0 <= min(qubits) and max(qubits) < n):
        return False
    heads = chain.from_iterable(map(itemgetter(slice(-1)), keys))  # all but each key's last
    tails = chain.from_iterable(map(itemgetter(slice(1, None)), keys))  # and all but its first
    return all(map(lt, heads, tails))


def _checked_amps(state: SparseState) -> dict[tuple[int, ...], complex]:
    """`state.amps`, once `_keys_ok` holds and every amplitude is finite;
    else the first failing key is named.  `run` (through `_Columns.of`) and
    `project_to_walk_state` (through `_project`) read a state only here."""
    amps, n = state.amps, state.n_qubits
    if not _keys_ok(amps, n):
        k = next(k for k in amps if not _keys_ok((k,), n))
        raise SimulationError(f"basis key {k!r} is not an ascending tuple of qubits below {n}")
    if not all(map(isfinite, amps.values())):
        k = next(k for k, a in amps.items() if not isfinite(a))
        raise SimulationError(f"amplitude {amps[k]!r} at basis key {k!r} is not finite")
    return amps


def init_walk_superposition(layout: QubitLayout) -> SparseState:
    """Uniform single-excitation state over edge qubits 0..2E-1, registers zero.

    Raises:
        ValueError: If the layout has no edges.
    """
    amp = complex(walk._start_amplitude(layout.n_edges))
    keys = [(q,) for q in range(2 * layout.n_edges)]
    return SparseState(dict.fromkeys(keys, amp), layout.n_qubits)


_NONE: frozenset[int] = frozenset()
# The gates `apply` tests on every instruction, as module names: reading a
# member off the `Gate` class costs about ten times as much.
_X, _Z, _CNOT, _SWAP, _DIFFUSION = Gate.X, Gate.Z, Gate.CNOT, Gate.SWAP, Gate.DIFFUSION


def _meet(index: dict[int, set[int]], qubits: tuple[int, ...]) -> set[int]:
    """A new set of the items indexed under every one of the qubits."""
    sets = [index.get(q, _NONE) for q in qubits]
    return min(sets, key=len).intersection(*sets)


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


class _Columns:
    """A state as groups of amplitudes that share a basis state, one id each.

    A key is the frozenset of the qubits a basis state excites.  Group i maps
    column -> amplitude (`groups[i]`) and sits at key `keys[i]`; `ids` maps
    each key back to its id, so two groups that land on one key show as a
    shorter `ids`.  `index[q]` holds the ids whose key holds qubit q.
    """

    def __init__(self, groups: dict[frozenset[int], dict[int, complex]], n: int):
        self.n = n
        self.groups: dict[int, dict[int, complex]] = {}
        self.keys: dict[int, frozenset[int]] = {}
        self.ids: dict[frozenset[int], int] = {}
        self.index: dict[int, set[int]] = {}
        self._fresh = count()
        for k, grp in groups.items():
            self._place(k, grp)

    @classmethod
    def of(cls, state: SparseState) -> _Columns:
        """The state as column 0, pruned below 1e-15."""
        amps = _checked_amps(state)
        groups = {frozenset(k): {0: a} for k, a in amps.items() if abs(a) > PRUNE_EPS}
        return cls(groups, state.n_qubits)

    def state(self) -> SparseState:
        """Column 0 as a `SparseState`."""
        amps = {tuple(sorted(self.keys[i])): grp[0] for i, grp in self.groups.items()}
        return SparseState(amps, self.n)

    def norms(self) -> dict[int, float]:
        """Squared norm of each column."""
        norms: dict[int, float] = {}
        for grp in self.groups.values():
            for col, a in grp.items():
                norms[col] = norms.get(col, 0.0) + abs(a) ** 2
        return norms

    def _place(self, k: frozenset[int], grp: dict[int, complex]) -> None:
        """Add a group at key k under a new id."""
        i = next(self._fresh)
        self.groups[i] = grp
        self.keys[i] = k
        self.ids[k] = i
        for q in k:
            self.index.setdefault(q, set()).add(i)

    def _move(self, ids, flip: frozenset[int]) -> None:
        """Flip the qubits in the keys of ids, keeping the key -> id map."""
        keys, where = self.keys, self.ids
        for i in ids:
            del where[keys[i]]
        for i in ids:
            k = keys[i] ^ flip
            keys[i] = k
            where[k] = i

    def apply(self, ins: Instruction) -> None:
        """Apply one gate in place, to the ids the index gives it.

        Raises:
            SimulationError: If a qubit lies outside the register, two
                groups land on one key, or a diffusion drifts a column's
                squared norm by more than 1e-13.
        """
        gate, controls, targets = ins.gate, ins.controls, ins.targets
        n, index = self.n, self.index
        top = max(controls + targets)  # Instruction rejects negative qubits
        if top >= n:
            raise SimulationError(f"qubit {top} outside register of {n}")
        if gate is _DIFFUSION:
            self._diffuse(ins)
        elif gate is _Z:
            for i in index.get(targets[0], ()):
                self.groups[i] = {col: -a for col, a in self.groups[i].items()}
        elif gate is _SWAP:
            a, b = targets
            one, two = index.setdefault(a, set()), index.setdefault(b, set())
            self._move(one ^ two, frozenset(targets))
            index[a], index[b] = two, one
        else:
            if gate is _X:
                ids = list(self.keys)
            elif gate is _CNOT:
                ids = index.get(controls[0], _NONE)
            else:
                ids = _meet(index, controls)
            (t,) = targets
            self._move(ids, frozenset(targets))
            index.setdefault(t, set()).symmetric_difference_update(ids)
        if len(self.ids) != len(self.keys):
            raise SimulationError(
                f"gate {gate.value} mapped {len(self.keys)} low keys onto {len(self.ids)}"
            )

    def _diffuse(self, ins: Instruction) -> None:
        """Diffuse the slot values of the amplitudes whose controls are all set.

        The armed ids are the index's intersection over the controls.
        Armed amplitudes that share the column and every non-target qubit
        form one group.  Each slot value v below d becomes (2/d) * (the
        group's sum, taken in ascending v) - x_v, pruned below 1e-15; higher
        values stay.  The diffused groups leave under their old ids and
        return under new ones.  The squared norm of the diffused amplitudes
        is checked column by column.

        Raises:
            SimulationError: If a column's squared norm drifts by more than 1e-13.
        """
        d = ins.d
        # spread[v]: the targets that spell slot value v (target i is bit i).
        spread = [_NONE]
        for q in ins.targets:
            spread += [s | {q} for s in spread]
        value = {s: v for v, s in enumerate(spread)}
        every = spread[-1]
        groups: dict[frozenset[int], dict[int, dict[int, complex]]] = {}
        for i in _meet(self.index, ins.controls):
            k = self.keys[i]
            v = value[k & every]
            if v < d:
                del self.keys[i], self.ids[k]
                for q in k:
                    self.index[q].discard(i)
                cols = groups.setdefault(k - every, {})
                for col, a in self.groups.pop(i).items():
                    cols.setdefault(col, {})[v] = a
        before: dict[int, float] = {}
        after: dict[int, float] = {}
        for base, cols in groups.items():
            out: list[dict[int, complex]] = [{} for _ in range(d)]
            for col, xs in cols.items():
                before[col] = before.get(col, 0.0) + sum(abs(a) ** 2 for a in xs.values())
                twice_mean = (2.0 / d) * sum(xs[v] for v in sorted(xs))
                for v, grp in enumerate(out):
                    y = twice_mean - xs.get(v, 0)
                    if abs(y) > PRUNE_EPS:
                        grp[col] = y
                        after[col] = after.get(col, 0.0) + abs(y) ** 2
            for v, grp in enumerate(out):
                if grp:
                    self._place(base | spread[v], grp)
        _check_drift(before, after, GATE_NORM_TOL, f"gate {ins.gate.value}")


def _evolve(cols: _Columns, instructions) -> None:
    """Apply the instructions to cols in place, with `run`'s checks."""
    before = cols.norms()
    for pos, ins in enumerate(instructions):
        try:
            cols.apply(ins)
        except SimulationError as exc:
            where = f"instruction {pos}, {ins.locus.kind} {ins.locus.id}"
            raise SimulationError(f"{exc} ({where})") from None
    _check_drift(before, cols.norms(), CIRCUIT_NORM_TOL, "circuit")


def run(circuit: Circuit, state: SparseState | None = None) -> SparseState:
    """Run all instructions, starting from the walk superposition by default.

    The state is pruned and its keys become qubit sets once on the way in,
    and ascending tuples again once on the way out.  In between, each gate
    acts on the grouped state as the module docstring describes.

    One compiled step from the walk superposition is one walk step:

    >>> from graphwalk import OracleSpec, PolarityMap, compile_step, evolve, star_graph
    >>> g, p = star_graph(3), PolarityMap((0, 0, 0))
    >>> circuit = compile_step(g, p, [0])
    >>> stepped = project_to_walk_state(run(circuit), circuit.layout)
    >>> model = evolve(g, p, OracleSpec(marked=frozenset({0})), 1)
    >>> bool(np.allclose(stepped.psi, model.psi, rtol=0, atol=1e-12))
    True

    Raises:
        SimulationError: If the state has another width, a key that is not an
            ascending tuple of its qubits or a NaN or infinite amplitude (the
            key is named), the squared norm drifts by more than 1e-12 over the
            circuit or 1e-13 over one diffusion, or a gate maps two amplitudes
            onto one key.  An error inside a gate ends with the instruction's
            position and locus, as in "(instruction 14, node 0)" for a 3-leaf
            star's hub diffusion.
    """
    if state is None:
        state = init_walk_superposition(circuit.layout)
    n = state.n_qubits
    if n != circuit.n_qubits:
        raise SimulationError(
            f"state has {n} qubits, circuit expects {circuit.n_qubits}"
        )
    cols = _Columns.of(state)
    _evolve(cols, circuit.instructions)
    return cols.state()


def _project(state: SparseState, layout: QubitLayout) -> tuple[np.ndarray, float]:
    """Split a state into walk amplitudes and leaked weight; a state of
    another width or a key that is not an ascending tuple of its qubits
    raises SimulationError.  Edge qubit q holds amplitude q; only its key
    (q,) reads back, and every other key has leaked."""
    n, m = state.n_qubits, 2 * layout.n_edges
    if n != layout.n_qubits:
        raise SimulationError(f"state has {n} qubits, layout expects {layout.n_qubits}")
    psi = np.zeros(m, dtype=complex)
    leaked = 0.0
    for k, a in _checked_amps(state).items():
        if len(k) == 1 and k[0] < m:
            psi[k[0]] = a
        else:
            leaked += abs(a) ** 2
    return psi.reshape(-1, 2), leaked


def project_to_walk_state(state: SparseState, layout: QubitLayout) -> WalkState:
    """Read the walk amplitudes back out of a circuit state.

    Raises:
        SubspaceLeakageError: If more than 1e-10 probability weight sits on
            basis states that are not a single excitation of an edge qubit
            (registers not restored, or multiple excitations).
        SimulationError: If the state has another width than the layout's
            register, a key is not an ascending tuple of its qubits, or an
            amplitude is NaN or infinite (the message names its key).
    """
    psi, leaked = _project(state, layout)
    if leaked > LEAKAGE_TOL:
        raise SubspaceLeakageError(leaked)
    return WalkState(psi)


def _circuit_entries(circuit: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The circuit's (row, column, value) arrays on the walk amplitudes and
    each column's leakage: by block shape (`_shape_entries`) where that
    applies, else from all 2|E| columns at once (`_all_column_entries`).
    The collector is paused: the groups hold no cycle."""
    with _collector_paused():
        entries = _shape_entries(circuit)
        return _all_column_entries(circuit) if entries is None else entries


def _all_column_entries(circuit: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_circuit_entries` by one evolution of every column.  Column q starts
    as the group {q: 1} at edge qubit q; gates never touch columns, so one
    evolution carries all 2|E| columns side by side.  A group keyed by edge
    qubit q alone holds row q; every other group has leaked."""
    m = 2 * circuit.layout.n_edges
    cols = _unit_columns(m, circuit.n_qubits)
    _evolve(cols, circuit.instructions)
    rows, columns, vals = [], [], []
    leak = np.zeros(m)
    for i, grp in cols.groups.items():
        k = cols.keys[i]
        q = min(k) if len(k) == 1 else m
        if q < m:
            rows += [q] * len(grp)
            columns += grp.keys()
            vals += grp.values()
        else:
            for j, a in grp.items():
                leak[j] += abs(a) ** 2
    return np.array(rows, np.intp), np.array(columns, np.intp), np.array(vals, complex), leak


def _unit_columns(m: int, n: int) -> _Columns:
    """Columns 0..m-1, column q the unit amplitude at edge qubit q."""
    return _Columns({frozenset({q}): {q: 1.0 + 0j} for q in range(m)}, n)


def _shape_entries(circuit: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """`_circuit_entries` with each distinct scatter block simulated once, or
    None if the circuit does not have the structure this needs.

    The oracle and the coin run on the 2|E| unit columns (`_prefix_columns`),
    and each column then enters the scatter of the node u that faces its
    edge qubit.  Each node's scatter has a shape (`_scatter_shapes`); none
    holds an x, so each block fixes, with no arithmetic, every column that
    does not enter it.  Each shape runs once (`_run_shape`) on one local
    column per (slot, incoming amplitude) pair, the amplitude bitwise the
    one its columns bring.  Column j's entries are its local column's, on
    u's facing qubits.

    Columns never mix, so each entry has the bits the all-columns run gives
    it.  Each column meets the same norm checks, but where a column is
    spread over several groups, its squared norm may be summed in another
    order, so a drift within rounding of a tolerance can pass here and
    raise there, or the other way round.  Any failed condition or check
    gives None, and the all-columns run then reports or raises as it
    always has.
    """
    layout, m = circuit.layout, 2 * circuit.layout.n_edges
    try:
        phases = circuit.phases
    except (ValueError, TypeError):  # a CircuitError, or a locus that is not a (kind, id) pair
        return None
    entering = _prefix_columns(circuit, phases[1].stop)
    if entering is None:
        return None
    at, amp = entering
    # Node u's table gives each of its qubits its index in u's block: facing
    # slot s is s, then the register's binary qubits, then its flag.
    starts = layout._starts
    tables = [dict(zip(chain(f, range(a, b)), count()))
              for f, a, b in zip(layout.facing, starts, starts[1:])]
    shape = _scatter_shapes(circuit.instructions, phases[2:], layout.facing, tables)
    if shape is None:
        return None
    degree = np.fromiter(map(len, layout.facing), np.intp, layout.n_nodes)
    first = np.cumsum(degree) - degree  # each node's first slot in the facing order
    facing = np.fromiter(chain.from_iterable(layout.facing), np.intp, m)
    slot_of = np.empty(m, np.intp)
    slot_of[facing] = np.arange(m) - np.repeat(first, degree)
    u, slot = layout._owner[at], slot_of[at]
    # One local column per distinct (shape, slot, amplitude bits), sorted, so
    # that each shape's local columns are consecutive.
    re, im = amp.view(np.int64).reshape(m, 2).T
    wanted = list(zip(map(shape.__getitem__, u.tolist()), slot.tolist(), re.tolist(), im.tolist()))
    distinct = sorted(dict.fromkeys(wanted))
    column = np.fromiter(map(dict(zip(distinct, count())).__getitem__, wanted), np.intp, m)
    one = np.empty(len(distinct), np.intp)
    one[column] = np.arange(m)  # a column of each local column
    parts = []
    for _, wants in groupby(enumerate(distinct), key=lambda want: want[1][0]):
        inputs = {c: (s, complex(amp[one[c]])) for c, (_, s, _, _) in wants}
        v = int(u[one[next(iter(inputs))]])
        _, _, start, stop = phases[2 + v]
        records, table = circuit.instructions[start:stop], tables[v]
        entries = _run_shape(records, table.__getitem__, inputs, int(degree[v]), len(table))
        if entries is None:
            return None
        parts.append(entries)
    # Each entry of local column c, once for each column j that takes c, on
    # the facing qubits of j's node.
    slots, local_col, vals = map(np.concatenate, zip(*parts))
    takers = np.argsort(column, kind="stable")  # the columns, grouped by local column
    per_col = np.bincount(column, minlength=len(distinct))
    copies = per_col[local_col]
    e = np.repeat(np.arange(len(local_col)), copies)
    nth = np.arange(len(e)) - np.repeat(np.cumsum(copies) - copies, copies)
    j = takers[(np.cumsum(per_col) - per_col)[local_col[e]] + nth]
    return facing[first[u[j]] + slots[e]], j, vals[e], np.zeros(m)


def _run_shape(
    records: tuple[Instruction, ...], rename, inputs: dict[int, tuple[int, complex]], d: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Run one node's scatter records, each qubit renamed to its local index,
    on n local qubits, from `inputs`: local column c starts as amplitude a
    at slot s for inputs[c] = (s, a).  Each entry's (slot, local column,
    value), or None if the run raises as `run` does or ends off the d
    facing slots."""
    records = [
        Instruction._make((gate, tuple(map(rename, c)), tuple(map(rename, t)), locus, dd))
        for gate, c, t, locus, dd in records
    ]
    block: dict[frozenset[int], dict[int, complex]] = {}
    for c, (s, a) in inputs.items():
        block.setdefault(frozenset({s}), {})[c] = a
    cols = _Columns(block, n)
    try:
        _evolve(cols, records)
    except SimulationError:
        return None
    keys = list(map(cols.keys.__getitem__, cols.groups))
    if set(map(len, keys)) - {1}:
        return None
    slots = np.fromiter(chain.from_iterable(keys), np.intp, len(keys))
    if slots.max(initial=0) >= d:
        return None
    groups = cols.groups.values()
    sizes = np.fromiter(map(len, groups), np.intp, len(groups))
    total = int(sizes.sum())
    columns = np.fromiter(chain.from_iterable(groups), np.intp, total)
    vals = np.fromiter(chain.from_iterable(map(dict.values, groups)), complex, total)
    return np.repeat(slots, sizes), columns, vals


def _prefix_columns(circuit: Circuit, prefix: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Run the oracle and the coin, the first `prefix` instructions, on the
    2|E| unit columns: column j's edge qubit and amplitude, or None unless
    every column ends alone in one group, of modulus 1, on an edge qubit.
    A diffusion's norm check runs as in `run`; the circuit's follows, since
    each column keeps its unit norm."""
    m = 2 * circuit.layout.n_edges
    cols = _unit_columns(m, circuit.n_qubits)
    try:
        for ins in circuit.instructions[:prefix]:
            cols.apply(ins)
    except SimulationError:
        return None
    groups = list(cols.groups.values())
    keys = list(map(cols.keys.__getitem__, cols.groups))
    if len(groups) != m or set(map(len, groups)) | set(map(len, keys)) != {1}:
        return None
    column = np.fromiter(chain.from_iterable(groups), np.intp, m)
    order = np.argsort(column)
    at = np.fromiter(chain.from_iterable(keys), np.intp, m)[order]
    amp = np.fromiter(chain.from_iterable(map(dict.values, groups)), complex, m)[order]
    if (column[order] != np.arange(m)).any() or at.max() >= m or (np.abs(amp) != 1.0).any():
        return None
    return at, amp


def _scatter_shapes(
    instructions: tuple[Instruction, ...],
    scatters,
    facing: tuple[tuple[int, ...], ...],
    tables: list[dict[int, int]],
) -> list[int] | None:
    """Each node's shape id, numbered in order of first appearance.

    Node u's shape is its degree and the records of its scatter phase,
    `scatters[u]`, with the locus dropped and each qubit renamed through
    u's table, `tables[u]`.  None if a record touches a qubit outside its
    node's table, or any shape holds an x.
    """
    ids: dict[tuple, int] = {}
    shape = []
    for (_, _, start, stop), f, table in zip(scatters, facing, tables):
        rename = table.__getitem__
        try:
            key = (len(f), *[(gate, tuple(map(rename, c)), tuple(map(rename, t)), d)
                             for gate, c, t, _, d in instructions[start:stop]])
        except (KeyError, TypeError):  # a foreign qubit, or one that is no dict key
            return None
        shape.append(ids.setdefault(key, len(ids)))
    if any(gate is _X for key in ids for gate, *_ in key[1:]):
        return None
    return shape


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
    g, p, marked, circuit: Circuit, tolerance: float = 1e-10
) -> EquivalenceReport:
    """Compare a compiled step circuit against the walk's one step.

    The model is the walk's one step: the -X oracle on the marked edges, the
    X coin, then every node's diffusion, the step `compile_step` emits.  Both
    sides stay sparse, compared over the union of their entries.

    The circuit side runs the oracle and the coin on the 2|E| unit columns,
    after which each column sits on one edge qubit and enters the scatter of
    the node facing it.  A node of an anonymous network acts by its degree
    and port order alone, so its block, renamed to local indices, is the
    same for every node of one degree: each distinct block shape is
    simulated once, on the amplitudes its columns bring, and its entries are
    relabelled onto each of its nodes.  A circuit whose blocks touch foreign
    qubits, hold an x gate or leak, or whose oracle and coin leave a column
    off a single edge qubit, is evolved on all 2|E| columns instead.  Both
    ways give the same entries, bit for bit, and run the same norm checks;
    where a column is spread over several groups the two may sum its
    squared norm in another order, so a drift within rounding of a check's
    tolerance can pass on one way and raise on the other.

    Raises:
        ValueError: If `tolerance` is NaN, negative or infinite, g has no
            edges, or a marked edge lies outside g (checked before the
            circuit is simulated).
        TypeError: If `tolerance` is a bool, or a marked edge is a bool, a
            float or another non-integer.
        CircuitError: If the circuit's layout has another edge count than g.
    """
    if isinstance(tolerance, bool):
        raise TypeError(f"tolerance must be a number, got {tolerance!r}")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance!r}")
    if np.isinf(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance!r}")
    walk._start_amplitude(g.n_edges)  # raises on a graph with no edges
    if circuit.layout.n_edges != g.n_edges:
        raise CircuitError(f"circuit has {circuit.layout.n_edges} edges, graph has {g.n_edges}")
    # The plan checks the marks by the walk's rule, before the circuit runs.
    rows, cols, vals = walk.WalkPlan(g, p, walk.OracleSpec(marked=marked))._entries()
    c_rows, c_cols, c_vals, leakage = _circuit_entries(circuit)
    m = len(leakage)
    # circuit - model by column * 2E + row: c or -m on one side, c - m on both.
    keys = np.concatenate((c_cols * m + c_rows, cols * m + rows))
    keys, at = np.unique(keys, return_inverse=True)
    gap = np.zeros(len(keys), dtype=complex)
    np.add.at(gap, at, np.concatenate((c_vals, -vals)))
    gap = np.abs(gap)
    column_gap = np.zeros(m)
    np.maximum.at(column_gap, keys // m, gap)
    worst = int(np.argmax(np.maximum(column_gap, leakage)))
    return EquivalenceReport(
        max_deviation=float(gap.max()),
        max_leakage=float(leakage.max(initial=0.0)),
        tolerance=tolerance,
        n_qubits=circuit.n_qubits,
        worst_column=divmod(worst, 2),
    )
