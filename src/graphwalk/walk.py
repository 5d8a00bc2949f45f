"""Discrete-time coined walk on the edges of a graph.

The state holds two amplitudes per edge, one per pole.  A step applies the
marking oracle, then the coin on every edge, then a scattering pass in which
each node diffuses the amplitudes facing it with the degree-d Grover operator
(2/d)J - I.  Searching runs the walk and samples the edge distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, PolarityMap, check_polarity, facing_amplitudes

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
MINUS_X = -PAULI_X


class CallCapExceededError(RuntimeError):
    """Raised when repeated sampling exceeds the oracle-call budget.

    Attributes:
        calls: Number of samples drawn before giving up.
    """

    def __init__(self, calls: int):
        super().__init__(f"no marked edge found after {calls} oracle calls")
        self.calls = calls


def _check_unitary(matrix: np.ndarray, what: str, tol: float = 1e-12) -> np.ndarray:
    """Return a read-only complex copy of `matrix` after checking unitarity.

    The copy keeps a caller's later writes from changing a checked matrix.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=tol):
        raise ValueError(f"{what} is not unitary within {tol}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class CoinSpec:
    """A 2x2 unitary applied to the (+, -) amplitude pair of every edge."""

    matrix: np.ndarray = field(default_factory=lambda: PAULI_X)

    def __post_init__(self):
        m = _check_unitary(self.matrix, "coin")
        if m.shape != (2, 2):
            raise ValueError(f"coin must be 2x2, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class OracleSpec:
    """Marked edges and the 2x2 unitary the step applies to each of them.

    The action runs before the coin and touches marked edges only.  The
    default is minus the pole swap: composed with the X coin that follows it
    leaves marked edges with a plain sign flip per step, the reflection the
    search amplifies.

    Attributes:
        marked: Edge indices carrying the mark.
        matrix: The 2x2 unitary applied to each marked edge's amplitude pair.
    """

    marked: frozenset[int] = frozenset()
    matrix: np.ndarray = field(default_factory=lambda: MINUS_X)

    def __post_init__(self):
        object.__setattr__(self, "marked", frozenset(int(k) for k in self.marked))
        m = _check_unitary(self.matrix, "oracle action")
        if m.shape != (2, 2):
            raise ValueError(f"oracle action must be 2x2, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)


@dataclass
class WalkState:
    """Walk state: one complex amplitude per (edge, pole) pair.

    Attributes:
        psi: Array of shape (n_edges, 2); column 0 is the + pole, column 1
            the - pole.
        t: Number of steps taken.
    """

    psi: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.ndim != 2 or self.psi.shape[1] != 2:
            raise ValueError(f"state must have shape (n_edges, 2), got {self.psi.shape}")

    @property
    def n_edges(self) -> int:
        return self.psi.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))

    def copy(self) -> "WalkState":
        return WalkState(self.psi.copy(), self.t)


def diagonal_state(g: Graph) -> WalkState:
    """Uniform superposition over all (edge, pole) pairs, the search start."""
    if g.n_edges == 0:
        raise ValueError("graph has no edges to walk on")
    psi = np.full((g.n_edges, 2), 1.0 / np.sqrt(2 * g.n_edges), dtype=complex)
    return WalkState(psi, t=0)


@dataclass(frozen=True)
class DiffusionOperator:
    """Grover diffusion (2/d)J - I on d amplitudes."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"diffusion dimension must be positive, got {self.dim}")

    @property
    def matrix(self) -> np.ndarray:
        d = self.dim
        return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def apply_oracle(state: WalkState, oracle: OracleSpec) -> WalkState:
    """Apply the oracle action to every marked edge, in place, and return it."""
    if oracle.marked:
        idx = np.fromiter(oracle.marked, dtype=int)
        if idx.min() < 0 or idx.max() >= state.n_edges:
            raise ValueError(
                f"marked edge index out of range for {state.n_edges} edges"
            )
        state.psi[idx] = state.psi[idx] @ oracle.matrix.T
    return state


def apply_coin(state: WalkState, coin: CoinSpec) -> WalkState:
    """Apply the coin to the amplitude pair of every edge, in place."""
    state.psi = state.psi @ coin.matrix.T
    return state


class WalkPlan:
    """One step operator for a graph, polarity, oracle and coin, built once.

    A step applies the oracle, then the coin, then every node's diffusion.
    The plan folds the first two into one 2x2 action per edge: the coin on
    unmarked edges and coin times oracle on marked ones.  It lays the
    amplitudes out node by node in the graph's CSR order, each node's facing
    amplitudes in ascending neighbor order, so one gather, one segment sum
    and one scatter run every diffusion.  The same two stages run on one
    state or on (2E, B) columns side by side: `matrix()` is the step run on
    the identity's columns.  The 2x2 actions are elementwise
    column arithmetic, not matrix products; with the default specs (the X
    coin, the -X oracle) they reduce to gathering each pole's partner and
    negating the marked edges.

    The plan remembers the cumulative edge distribution of its last
    evolution, so repeated draws at one step count evolve once.  It also
    keeps the work buffers of a step, which writes the new amplitudes into
    `state.psi` itself (a non-contiguous or read-only `psi` is first replaced
    by a contiguous copy), so threads must not share a plan.

    Attributes:
        g, p, oracle, coin: What the plan was built for, as passed.
        n_edges: Edge count of `g`.

    Examples:
        >>> from graphwalk import greedy_coloring, polarity_from_coloring, star_graph
        >>> g = star_graph(3)
        >>> p = polarity_from_coloring(g, greedy_coloring(g))
        >>> p.plus_node
        array([1, 2, 3])
        >>> plan = WalkPlan(g, p, OracleSpec(marked=frozenset({0})))
        >>> state = diagonal_state(g)
        >>> for _ in range(2):
        ...     state = plan.step(state)
        >>> edge_probabilities(state).round(3)
        array([0.761, 0.119, 0.119])
    """

    def __init__(
        self,
        g: Graph,
        p: PolarityMap,
        oracle: OracleSpec | None = None,
        coin: CoinSpec | None = None,
    ):
        check_polarity(g, p)
        n_edges = g.n_edges
        marked = np.array(sorted(oracle.marked) if oracle is not None else [], dtype=np.intp)
        if marked.size and (marked[0] < 0 or marked[-1] >= n_edges):
            raise ValueError(f"marked edge index out of range for {n_edges} edges")
        self.g, self.p, self.oracle, self.coin = g, p, oracle, coin
        self.n_edges = n_edges

        # Gathered amplitude i is flat amplitude _dst[i] (2k + c is edge k's
        # pole c); node u's block is i in indptr[u]:indptr[u + 1].
        self._dst = facing_amplitudes(g, p)
        degrees = np.diff(g.indptr)
        self._starts, degrees = g.indptr[:-1][degrees > 0], degrees[degrees > 0]
        self._weights = 2.0 / degrees
        # Gathered amplitude i belongs to block _node[i].  A step works in the
        # buffers below and writes the state in place, so it allocates no
        # state-sized array; every index is in range, and take's "clip" mode
        # skips the copy of `out` that its checked mode makes.
        self._node = np.repeat(np.arange(len(self._starts)), degrees)
        self._x = np.empty(2 * n_edges, dtype=complex)
        self._y = np.empty(2 * n_edges, dtype=complex)
        self._sums = np.empty(len(self._starts), dtype=complex)

        coin_m = (coin if coin is not None else CoinSpec()).matrix
        marked_m = coin_m @ oracle.matrix if oracle is not None else coin_m
        self._marked, self._coin_m, self._marked_m = marked, coin_m, marked_m
        self._swap = None
        if np.array_equal(coin_m, PAULI_X) and (
            oracle is None or np.array_equal(oracle.matrix, MINUS_X)
        ):
            # The X coin swaps poles: gather each amplitude's partner 2k + 1 - c.
            # On marked edges coin times oracle is -I: gather in place, negated.
            is_marked = np.zeros(n_edges, dtype=bool)
            is_marked[marked] = True
            flip = is_marked[self._dst >> 1]
            self._swap = np.where(flip, self._dst, self._dst ^ 1)
            self._flip = np.flatnonzero(flip)
        self._cdf: tuple[int, np.ndarray] | None = None

    def _check(self, state: WalkState) -> None:
        if state.n_edges != self.n_edges:
            raise ValueError(
                f"state has {state.n_edges} edges, graph has {self.n_edges}"
            )

    def _gather(self, flat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Oracle and coin on (2E,) or (2E, B) flat amplitudes, gathered node by node."""
        if self._swap is not None:
            x = np.take(flat, self._swap, axis=0, out=out, mode="clip")
            x[self._flip] *= -1
            return x
        psi = flat.reshape((self.n_edges, 2) + flat.shape[1:])
        y = _act(self._coin_m, psi)
        y[self._marked] = _act(self._marked_m, psi[self._marked])
        return np.take(y.reshape(flat.shape), self._dst, axis=0, out=out, mode="clip")

    def _diffuse(self, x: np.ndarray, sums=None, y=None) -> np.ndarray:
        """Every node's diffusion of gathered amplitudes x, into buffers sums and y if given."""
        sums = np.add.reduceat(x, self._starts, axis=0, out=sums)
        sums *= self._weights if x.ndim == 1 else self._weights[:, None]
        y = np.take(sums, self._node, axis=0, out=y, mode="clip")
        y -= x
        return y

    def scatter(self, state: WalkState) -> WalkState:
        """Diffuse, at every node, the amplitudes facing it.  In place."""
        self._check(state)
        flat = _flat(state)
        x = np.take(flat, self._dst, out=self._x, mode="clip")
        flat[self._dst] = self._diffuse(x, self._sums, self._y)
        return state

    def step(self, state: WalkState) -> WalkState:
        """Advance one step: oracle, then coin, then scattering.  In place."""
        self._check(state)
        flat = _flat(state)
        flat[self._dst] = self._diffuse(self._gather(flat, self._x), self._sums, self._y)
        state.t += 1
        return state

    def cdf(self, steps: int) -> np.ndarray:
        """Cumulative edge distribution after `steps` steps from the uniform start.

        The last result is kept (read-only) and returned again for the same
        step count.
        """
        if self._cdf is None or self._cdf[0] != steps:
            state = evolve(self.g, self.p, self.oracle, steps, self.coin, plan=self)
            cdf = np.cumsum(edge_probabilities(state))
            cdf.setflags(write=False)
            self._cdf = (steps, cdf)
        return self._cdf[1]

    def matrix(self) -> np.ndarray:
        """Dense matrix of one step on the 2|E| amplitudes.

        The step run on the identity's columns: column 2k + c holds the
        step's image of amplitude (edge k, pole c).
        """
        x = self._gather(np.eye(2 * self.n_edges, dtype=complex))
        x[self._dst] = self._diffuse(x)
        return x


def _flat(state: WalkState) -> np.ndarray:
    """The state's amplitudes as one flat view, 2k + c for edge k's pole c."""
    if not (state.psi.flags.c_contiguous and state.psi.flags.writeable):
        state.psi = np.array(state.psi, order="C")
    return state.psi.reshape(-1)


def _act(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """psi @ m.T per edge, by columns rather than a matrix product.

    psi is one (E, 2) state or an (E, 2, B) array of B states side by side.
    """
    a, b = psi[:, 0], psi[:, 1]
    return np.stack([m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b], axis=1)


def _plan_for(g, p, oracle, coin, plan: WalkPlan | None) -> WalkPlan:
    """Build a plan, or check that a given one belongs to these arguments."""
    if plan is None:
        return WalkPlan(g, p, oracle, coin)
    if not (plan.g is g and plan.p is p and plan.oracle is oracle and plan.coin is coin):
        raise ValueError(
            "plan was built for a different graph, polarity, oracle or coin"
        )
    return plan


def apply_scattering(state: WalkState, g: Graph, p: PolarityMap) -> WalkState:
    """Diffuse, at every node, the amplitudes of incident edges facing it.

    Each (edge, pole) amplitude faces exactly one node, so the per-node
    blocks partition the state and the whole pass costs O(sum of degrees).
    Each call builds a `WalkPlan` first; to scatter repeatedly on one graph,
    build the plan once and call `WalkPlan.scatter`.
    """
    return WalkPlan(g, p).scatter(state)


def step(
    state: WalkState,
    g: Graph,
    p: PolarityMap,
    coin: CoinSpec | None = None,
    oracle: OracleSpec | None = None,
) -> WalkState:
    """Advance one step: oracle, then coin, then scattering.  In place.

    Each call builds a `WalkPlan` first; to take many steps, build the plan
    once and call `WalkPlan.step`.
    """
    return WalkPlan(g, p, oracle, coin).step(state)


def edge_probabilities(state: WalkState) -> np.ndarray:
    """Per-edge measurement probabilities |psi+|^2 + |psi-|^2.

    Raises:
        ValueError: If the state norm has drifted from 1 by more than 1e-9.
    """
    probs = np.abs(state.psi[:, 0]) ** 2 + np.abs(state.psi[:, 1]) ** 2
    _check_norm(float(probs.sum()))
    return probs


def _check_norm(total: float) -> None:
    """Raise ValueError if a state's total probability is off 1 by over 1e-9."""
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state norm drifted: total probability {total!r}")


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample of an index from a cumulative weight vector."""
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(cdf) - 1))


def _sample_edge(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample of an edge index from a probability vector."""
    return _draw(np.cumsum(probs), rng)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def evolve(
    g: Graph,
    p: PolarityMap,
    oracle: OracleSpec | None,
    steps: int,
    coin: CoinSpec | None = None,
    *,
    plan: WalkPlan | None = None,
) -> WalkState:
    """Run `steps` steps from the uniform superposition and return the state.

    `plan`, when given, must have been built for these g, p, oracle and coin.
    """
    plan = _plan_for(g, p, oracle, coin, plan)
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    state = diagonal_state(g)
    for _ in range(steps):
        plan.step(state)
    return state


def search(
    g: Graph,
    p: PolarityMap,
    oracle: OracleSpec,
    steps: int,
    seed=None,
    coin: CoinSpec | None = None,
    *,
    plan: WalkPlan | None = None,
) -> int:
    """Run the walk for `steps` steps and measure one edge.

    With a `plan` built for these g, p, oracle and coin, searches at the
    plan's last step count reuse its distribution instead of evolving again.
    Without one, each call builds a plan and evolves from the start.

    Returns:
        The sampled edge index (not necessarily a marked one).
    """
    if not oracle.marked:
        raise ValueError("search needs at least one marked edge")
    plan = _plan_for(g, p, oracle, coin, plan)
    return _draw(plan.cdf(steps), _as_rng(seed))


def guaranteed_search(
    g: Graph,
    p: PolarityMap,
    oracle: OracleSpec,
    steps: int,
    seed=None,
    coin: CoinSpec | None = None,
    max_calls: int = 1_000_000,
    *,
    plan: WalkPlan | None = None,
) -> tuple[int, int]:
    """Sample repeatedly until a marked edge comes up.

    The final distribution is computed once (or taken from `plan`, as in
    `search`); each draw models one run-and-measure round followed by an
    oracle check of the outcome.

    Returns:
        (edge, calls): the marked edge found and the number of draws used.

    Raises:
        CallCapExceededError: After `max_calls` unsuccessful draws.
    """
    if not oracle.marked:
        raise ValueError("search needs at least one marked edge")
    if max_calls < 1:
        raise ValueError(f"call cap must be positive, got {max_calls}")
    cdf = _plan_for(g, p, oracle, coin, plan).cdf(steps)
    rng = _as_rng(seed)
    for calls in range(1, max_calls + 1):
        edge = _draw(cdf, rng)
        if edge in oracle.marked:
            return edge, calls
    raise CallCapExceededError(max_calls)


@dataclass(frozen=True)
class SweepReport:
    """Marked-edge probability as a function of step count.

    Attributes:
        probs: p_marked at t = 0..t_max inclusive.
        t_star: Smallest t maximizing probs.
        p_star: probs[t_star].
        n_nodes / n_edges / marked / t_max: Run metadata.
        predicted_t: Analytic peak-time estimate, when one is known.
    """

    probs: tuple[float, ...]
    t_star: int
    p_star: float
    n_nodes: int
    n_edges: int
    marked: tuple[int, ...]
    t_max: int
    predicted_t: float | None = None

    def to_csv(self) -> str:
        """Serialize as CSV, one row per step."""
        if self.predicted_t is None:
            lines = ["t,p_marked"]
            lines += [f"{t},{p!r}" for t, p in enumerate(self.probs)]
        else:
            lines = ["t,p_marked,predicted_T"]
            lines += [
                f"{t},{p!r},{self.predicted_t!r}" for t, p in enumerate(self.probs)
            ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        out = {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "marked": list(self.marked),
            "t_max": self.t_max,
            "t_star": self.t_star,
            "p_star": self.p_star,
            "p_t": list(self.probs),
        }
        if self.predicted_t is not None:
            out["predicted_T"] = self.predicted_t
        return out


def sweep(
    g: Graph,
    p: PolarityMap,
    oracle: OracleSpec,
    t_max: int,
    coin: CoinSpec | None = None,
    predicted_t: float | None = None,
) -> SweepReport:
    """Record the marked-edge probability at every t in 0..t_max.

    The walk starts in the uniform superposition; ties for the maximum go to
    the smallest t.
    """
    plan = WalkPlan(g, p, oracle, coin)
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    marked = tuple(sorted(oracle.marked))
    state = diagonal_state(g)
    probs = []
    for t in range(t_max + 1):
        if t:
            plan.step(state)
        # Only the marked rows are squared; the norm takes one pass, in
        # einsum rather than a BLAS dot, whose thread wake-ups cost more.
        flat = state.psi.reshape(-1).view(np.float64)
        _check_norm(float(np.einsum("i,i->", flat, flat)))
        rows = state.psi[list(marked)]
        dist = np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2
        probs.append(float(dist.sum()))
    t_star = int(np.argmax(probs))
    return SweepReport(
        probs=tuple(probs),
        t_star=t_star,
        p_star=probs[t_star],
        n_nodes=g.n,
        n_edges=g.n_edges,
        marked=marked,
        t_max=t_max,
        predicted_t=predicted_t,
    )


def step_matrix(
    g: Graph,
    p: PolarityMap,
    coin: CoinSpec | None = None,
    oracle: OracleSpec | None = None,
) -> np.ndarray:
    """Dense matrix of one step on the 2|E| amplitudes.

    Basis order: amplitude (edge k, pole c) sits at index 2k + c.  Useful for
    spectra and for checking compiled circuits against the model.
    """
    return WalkPlan(g, p, oracle, coin).matrix()
