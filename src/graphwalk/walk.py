"""Discrete-time coined walk on the edges of a graph.

The state holds two amplitudes per edge, one per pole.  A step applies the
marking oracle -X to the marked edges, then the pole swap X (the coin) to
every edge, then a scattering pass in which each node diffuses the
amplitudes facing it with the degree-d Grover operator (2/d)J - I.
Searching runs the walk and samples the edge distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, PolarityMap, _count, _index, check_polarity, facing_amplitudes


class CallCapExceededError(RuntimeError):
    """Raised when repeated sampling exceeds the oracle-call budget.

    Attributes:
        calls: Number of samples drawn before giving up.
    """

    def __init__(self, calls: int):
        super().__init__(f"no marked edge found after {calls} oracle calls")
        self.calls = calls


@dataclass(frozen=True, eq=False)
class OracleSpec:
    """The marked edges of a search.

    A step applies -X, minus the pole swap, to each marked edge before the X
    coin; the two compose to a plain sign flip per step, the reflection the
    search amplifies.

    Attributes:
        marked: Edge indices carrying the mark.
    """

    marked: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "marked", frozenset(map(_index, self.marked)))


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


def _start_amplitude(n_edges: int) -> float:
    """1/sqrt(2E), each (edge, pole) amplitude of the uniform start."""
    if n_edges == 0:
        raise ValueError("graph has no edges to walk on")
    return 1.0 / np.sqrt(2 * n_edges)


def diagonal_state(g: Graph) -> WalkState:
    """Uniform superposition over all (edge, pole) pairs, the search start."""
    psi = np.full((g.n_edges, 2), _start_amplitude(g.n_edges), dtype=complex)
    return WalkState(psi, t=0)


class WalkPlan:
    """One step operator for a graph, polarity and oracle, built once.

    A step applies the oracle -X to the marked edges, then the X coin to
    every edge, then every node's diffusion.  The first two fold into one
    action per edge: the pole swap on unmarked edges, -I on marked ones.
    The plan keeps the 2|E| amplitudes in an order of its own, node by
    node: first the nodes of degree >= 2 in the graph's CSR order, each
    node's facing amplitudes in ascending neighbor order, then the
    amplitudes facing degree-1 nodes.  A step is one gather into that
    order, which reads each pole's partner (on a marked edge, the pole
    itself) and negates the marked edges, then the diffusions: one segment
    sum over the nodes of degree >= 2, and one pass of x + 0.0 over the
    degree-1 nodes, the bits of their one-element sums 2x - x.  The step
    reads and writes the plan's buffers through slices made once, at
    construction.  `evolve` and `sweep` run the plan's one walk loop,
    which starts from the uniform superposition and steps in the plan's
    buffer, so their steps scatter nothing; `step` works on a flat state,
    permuted into the plan's order and back around each step.  `_entries()`
    reads the same step in closed form, bit for bit, and `matrix()` fills
    those entries into a dense array.

    The plan remembers the cumulative edge distribution of its last
    evolution, so repeated draws at one step count evolve once, and the
    marked edges' bounds in it that `guaranteed_search` draws against.  It
    also keeps the work buffers of a step, which writes the new amplitudes
    into `state.psi` itself (a non-contiguous or read-only `psi` is first
    replaced by a contiguous copy), so threads must not share a plan.

    Attributes:
        g, p, oracle: What the plan was built for, as passed.
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

    def __init__(self, g: Graph, p: PolarityMap, oracle: OracleSpec | None = None):
        check_polarity(g, p)
        n_edges = g.n_edges
        # The range is checked on the Python ints, which may not fit an intp.
        marked = sorted(oracle.marked) if oracle is not None else []
        if marked and (marked[0] < 0 or marked[-1] >= n_edges):
            raise ValueError(f"marked edge index out of range for {n_edges} edges")
        self.g, self.p, self.oracle = g, p, oracle
        self.n_edges = n_edges

        # Plan position i holds flat amplitude _dst[i] (2k + c is edge k's
        # pole c), and flat amplitude j sits at position _at[j].  Nodes of
        # degree >= 2 fill the first _hubs positions, node by node; the
        # amplitudes facing degree-1 nodes follow.
        degrees = np.diff(g.indptr)
        leaf = np.repeat(degrees == 1, degrees)
        self._dst = facing_amplitudes(g, p)[np.argsort(leaf, kind="stable")]
        self._at = np.empty_like(self._dst)
        self._at[self._dst] = np.arange(2 * n_edges)
        degrees = degrees[degrees > 1]
        self._hubs = int(degrees.sum())
        self._starts = np.cumsum(degrees) - degrees
        self._weights = 2.0 / degrees
        # Hub position i belongs to block _node[i].  A step works in the
        # buffers below and writes the state in place, so it allocates no
        # state-sized array; every index is in range, and take's "clip" mode
        # skips the copy of `out` that its checked mode makes.
        self._node = np.repeat(np.arange(len(degrees)), degrees)
        self._x = np.empty(2 * n_edges, dtype=complex)
        self._y = np.empty(2 * n_edges, dtype=complex)
        self._sums = np.empty(len(degrees), dtype=complex)
        h = self._hubs
        self._x_hub, self._x_leaf = self._x[:h], self._x[h:]
        self._y_hub, self._y_leaf = self._y[:h], self._y[h:]

        is_marked = np.zeros(n_edges, dtype=bool)
        is_marked[np.array(marked, dtype=np.intp)] = True
        on_marked = is_marked[self._dst >> 1]
        # The X coin swaps poles: gather each amplitude's partner 2k + 1 - c,
        # read at its plan position.  On marked edges X times -X is -I: gather
        # in place, negated.
        self._reads = self._at[np.where(on_marked, self._dst, self._dst ^ 1)]
        self._flip = np.flatnonzero(on_marked)
        self._cdf: tuple[int, np.ndarray] | None = None
        self._bounds: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None = None

    def _advance(self) -> None:
        """One step on the plan-ordered amplitudes in `_y`, in place."""
        x = self._y.take(self._reads, out=self._x, mode="clip")
        x[self._flip] *= -1
        sums = np.add.reduceat(self._x_hub, self._starts, out=self._sums)
        sums *= self._weights
        z_hub = sums.take(self._node, out=self._y_hub, mode="clip")
        z_hub -= self._x_hub
        # A degree-1 node's segment sum would be its one amplitude, weighted
        # by 2.0.  x + 0.0 gives the bits of 2x - x for every amplitude below
        # 2**1000 in one pass: both turn -0.0 into +0.0, and neither rounds.
        np.add(self._x_leaf, 0.0, out=self._y_leaf)

    def _walk(self, t_max: int):
        """Yield the plan-ordered amplitudes at t = 0..t_max from the uniform start.

        Every yield is the plan's own buffer, which the next step overwrites.
        """
        z = self._y
        z.fill(_start_amplitude(self.n_edges))
        yield z
        for _ in range(t_max):
            self._advance()
            yield z

    def step(self, state: WalkState) -> WalkState:
        """Advance one step: oracle, then coin, then scattering.  In place."""
        if state.n_edges != self.n_edges:
            raise ValueError(f"state has {state.n_edges} edges, graph has {self.n_edges}")
        flat = _flat(state)
        flat.take(self._dst, out=self._y, mode="clip")
        self._advance()
        self._y.take(self._at, out=flat, mode="clip")
        state.t += 1
        return state

    def cdf(self, steps: int) -> np.ndarray:
        """Cumulative edge distribution after `steps` steps from the uniform start.

        The last result is kept (read-only) and returned again for the same
        step count.
        """
        steps = _count(steps, "step count")
        if self._cdf is None or self._cdf[0] != steps:
            state = evolve(self.g, self.p, self.oracle, steps, plan=self)
            cdf = np.cumsum(edge_probabilities(state))
            cdf.setflags(write=False)
            self._cdf = (steps, cdf)
        return self._cdf[1]

    def _marked_bounds(self, cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The marked edges in ascending order, their bounds in `cdf` and their mass.

        `_draw` picks edge k for lo_k <= u < hi_k, where lo_k = cdf[k - 1]
        (-inf for edge 0) and hi_k = cdf[k] (+inf for the last edge).
        `bounds` is [lo_1, hi_1, lo_2, hi_2, ...] over the marked edges, a
        sorted array, so a draw u hits marked edge j exactly when
        searchsorted(bounds, u, side="right") is 2j + 1.  `mass` is the
        marked share of cdf[-1].  They are kept with the `cdf` they were read
        from and read again for another one.
        """
        if self._bounds is None or self._bounds[0] is not cdf:
            marked = np.array(sorted(self.oracle.marked), dtype=np.intp)
            lo = np.where(marked > 0, cdf[marked - 1], 0.0)
            hi = cdf[marked]
            mass = float((hi - lo).sum() / cdf[-1])
            bounds = np.stack((lo, hi), axis=1).ravel()
            if marked[0] == 0:
                bounds[0] = -np.inf
            if marked[-1] == len(cdf) - 1:
                bounds[-1] = np.inf
            self._bounds = (cdf, marked, bounds, mass)
        return self._bounds[1:]

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The step as (row, column, value) arrays, 2k + c for edge k's pole c.
        The gather sends column j to the one plan position i that reads it,
        signed s = -1 on a marked edge, else +1.  A node of degree d >= 2 makes
        that w*s at its d positions and w*s - s at i (w = 2/d), bit for bit as
        the kernel does; a degree-1 node keeps s."""
        h, n = self._hubs, 2 * self.n_edges
        s = np.ones(n)
        s[self._flip] = -1.0
        deg = np.diff(self._starts, append=h)[self._node]  # each hub position's degree
        i = np.repeat(np.arange(h), deg)
        r = self._starts[self._node[i]] + np.arange(len(i)) - np.repeat(np.cumsum(deg) - deg, deg)
        vals = self._weights[self._node[i]] * s[i] - np.where(r == i, s[i], 0.0)
        i, r = (np.concatenate((a, np.arange(h, n))) for a in (i, r))
        return self._dst[r], self._dst[self._reads[i]], np.concatenate((vals, s[h:]))

    def matrix(self) -> np.ndarray:
        """Dense matrix of one step on the 2|E| amplitudes, filled from `_entries`."""
        rows, cols, vals = self._entries()
        out = np.zeros((2 * self.n_edges,) * 2, dtype=complex)
        out[rows, cols] = vals
        return out


def _flat(state: WalkState) -> np.ndarray:
    """The state's amplitudes as one flat view, 2k + c for edge k's pole c."""
    if not (state.psi.flags.c_contiguous and state.psi.flags.writeable):
        state.psi = np.array(state.psi, order="C")
    return state.psi.reshape(-1)


def _check_marked(oracle: OracleSpec) -> None:
    if not oracle.marked:
        raise ValueError("search needs at least one marked edge")


def _plan_for(g, p, oracle, plan: WalkPlan | None) -> WalkPlan:
    """Build a plan, or check that a given one belongs to these arguments."""
    if plan is None:
        return WalkPlan(g, p, oracle)
    if not (plan.g is g and plan.p is p and plan.oracle is oracle):
        raise ValueError("plan was built for a different graph, polarity or oracle")
    return plan


# perfbench's tests read `step` to check that the tracer restores it.
def step(state: WalkState, g: Graph, p: PolarityMap, oracle: OracleSpec | None = None) -> WalkState:
    """Advance one step: oracle, then coin, then scattering.  In place.

    Each call builds a `WalkPlan` first; to take many steps, build the plan
    once and call `WalkPlan.step`.
    """
    return WalkPlan(g, p, oracle).step(state)


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
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"state norm drifted: total probability {total!r}")


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One inverse-CDF sample of an index from a cumulative weight vector,
    made from one `rng.random()` double."""
    u = rng.random() * cdf[-1]
    return int(np.searchsorted(cdf[:-1], u, side="right"))  # at most len(cdf) - 1


def evolve(
    g: Graph,
    p: PolarityMap,
    oracle: OracleSpec | None,
    steps: int,
    *,
    plan: WalkPlan | None = None,
) -> WalkState:
    """Run `steps` steps from the uniform superposition and return the state.

    `plan`, when given, must have been built for these g, p and oracle.
    """
    plan = _plan_for(g, p, oracle, plan)
    steps = _count(steps, "step count")
    for z in plan._walk(steps):
        pass
    return WalkState(np.take(z, plan._at, mode="clip").reshape(-1, 2), t=steps)


def search(
    g: Graph,
    p: PolarityMap,
    oracle: OracleSpec,
    steps: int,
    seed=None,
    *,
    plan: WalkPlan | None = None,
) -> int:
    """Run the walk for `steps` steps and measure one edge.

    With a `plan` built for these g, p and oracle, searches at the
    plan's last step count reuse its distribution instead of evolving again.
    Without one, each call builds a plan and evolves from the start.

    Returns:
        The sampled edge index (not necessarily a marked one).
    """
    _check_marked(oracle)
    plan = _plan_for(g, p, oracle, plan)
    return _draw(plan.cdf(steps), np.random.default_rng(seed))


def guaranteed_search(
    g: Graph,
    p: PolarityMap,
    oracle: OracleSpec,
    steps: int,
    seed=None,
    max_calls: int = 1_000_000,
    *,
    plan: WalkPlan | None = None,
) -> tuple[int, int]:
    """Sample repeatedly until a marked edge comes up.

    The final distribution is computed once (or taken from `plan`, as in
    `search`); each draw models one run-and-measure round followed by an
    oracle check of the outcome.  The check needs only whether the draw fell
    in a marked edge's interval of the cumulative distribution, so a draw
    searches the 2m bounds of the m marked intervals rather than all E
    entries, and picks the edge a single `search` draw would.  Draws are made
    in batches, sized from the marked mass and doubling up to 2**14; a
    Generator passed as `seed` is left exactly where `calls` (on a miss,
    `max_calls`) single draws leave it.

    Returns:
        (edge, calls): the marked edge found and the number of draws used.

    Raises:
        CallCapExceededError: After `max_calls` unsuccessful draws.

    Examples:
        >>> from graphwalk import greedy_coloring, polarity_from_coloring, star_graph
        >>> g = star_graph(16)
        >>> p = polarity_from_coloring(g, greedy_coloring(g))
        >>> oracle = OracleSpec(marked=frozenset({0}))
        >>> guaranteed_search(g, p, oracle, 0, seed=3)  # uniform: p = 1/16
        (0, 21)
        >>> guaranteed_search(g, p, oracle, 4, seed=3)  # the peak: p = 0.978
        (0, 1)
    """
    _check_marked(oracle)
    max_calls = _count(max_calls, "call cap", 1)
    plan = _plan_for(g, p, oracle, plan)
    cdf = plan.cdf(steps)
    marked, bounds, mass = plan._marked_bounds(cdf)
    rng = np.random.default_rng(seed)  # a Generator comes back as it is
    ceiling = 1 << 14  # bounds a batch's memory whatever max_calls is
    n = ceiling if mass * ceiling <= 1.0 else round(1.0 / mass)
    calls = 0
    while calls < max_calls:
        n = min(n, max_calls - calls)
        saved = rng.bit_generator.state if n > 1 else None
        # `rng.random(n)` gives the doubles of n single draws, so these are
        # _draw's u; an odd position is a hit on marked[pos >> 1]
        pos = bounds.searchsorted(rng.random(n) * cdf[-1], side="right")
        odd = pos & 1
        i = int(odd.argmax())
        if odd[i]:
            if i + 1 < n:  # put rng back to just after the hit
                rng.bit_generator.state = saved
                rng.random(i + 1)
            return int(marked[pos[i] >> 1]), calls + i + 1
        calls += n
        n = min(2 * n, ceiling)
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
        header, extra = "t,p_marked", ""
        if self.predicted_t is not None:
            header, extra = "t,p_marked,predicted_T", f",{self.predicted_t!r}"
        lines = [header] + [f"{t},{p!r}{extra}" for t, p in enumerate(self.probs)]
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


def sweep(g: Graph, p: PolarityMap, oracle: OracleSpec, t_max: int) -> SweepReport:
    """Record the marked-edge probability at every t in 0..t_max.

    The walk starts in the uniform superposition; ties for the maximum go to
    the smallest t.  The report carries no peak-time prediction; a caller
    that has one attaches it with `dataclasses.replace`.
    """
    plan = WalkPlan(g, p, oracle)
    t_max = _count(t_max, "t_max")
    marked = tuple(sorted(oracle.marked))
    # The plan positions of each marked edge's (+, -) poles.
    at = plan._at[2 * np.array(marked, dtype=np.intp)[:, None] + (0, 1)]
    probs = []
    for z in plan._walk(t_max):
        # Only the marked rows are squared; the norm takes one pass, in
        # einsum rather than a BLAS dot, whose thread wake-ups cost more.
        parts = z.view(np.float64)
        _check_norm(float(np.einsum("i,i->", parts, parts)))
        rows = z[at]
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
    )


def step_matrix(g: Graph, p: PolarityMap, oracle: OracleSpec | None = None) -> np.ndarray:
    """Dense matrix of one step on the 2|E| amplitudes.

    Basis order: amplitude (edge k, pole c) sits at index 2k + c.  On a 3-leaf
    star, + poles at the hub, rows 0, 2, 4 face the hub; edge 0 is marked:

    >>> from graphwalk import star_graph
    >>> m = step_matrix(star_graph(3), PolarityMap((0, 0, 0)), OracleSpec(frozenset({0})))
    >>> print(m.real.round(3))
    [[ 0.333  0.     0.     0.667  0.     0.667]
     [ 0.    -1.     0.     0.     0.     0.   ]
     [-0.667  0.     0.    -0.333  0.     0.667]
     [ 0.     0.     1.     0.     0.     0.   ]
     [-0.667  0.     0.     0.667  0.    -0.333]
     [ 0.     0.     0.     0.     1.     0.   ]]
    """
    return WalkPlan(g, p, oracle).matrix()
