"""Undirected graphs with indexed edges, colorings, and edge polarities.

The walk lives on the edges of a simple connected graph.  Every edge gets a
stable index and a polarity: one endpoint is the + pole, the other the - pole.
Node-level operations (scattering, circuit wiring) address the amplitude
component facing the node, so the polarity convention is fixed here once and
shared by the engine, the analyzer, and the compiler.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Raised for structurally invalid graphs or polarities.

    Attributes:
        edge: Index of the edge at fault, when the fault is one edge's.
        first: Index of the earlier copy, when that edge is a duplicate.
    """

    def __init__(self, message: str, edge: int | None = None, first: int | None = None):
        super().__init__(message)
        self.edge = edge
        self.first = first


class GraphParseError(GraphError):
    """Raised when a graph document cannot be parsed.

    Attributes:
        line: 1-based line (edge-list) or edge position (JSON) of the fault,
            when one can be pinned down.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _int_array(values) -> np.ndarray:
    """Ids or colours as an int64 array (exact Python ints if one does not
    fit), each entry by `_index`'s rule: an integer ndarray by its dtype, any
    other input by one C-level pass over its entries' types."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.array(values, dtype=object)
        entries = values.ravel()
        for entry in dict(zip(map(type, entries), entries)).values():
            _index(entry, "an integer")
    return _int64(values)


def _int64(values) -> np.ndarray:
    """Integers as an int64 array, or as exact Python ints if one does not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _index(k, what: str = "an edge index") -> int:
    """k as an int (an index or a count), like `operator.index`, but a bool is refused."""
    if isinstance(k, bool):
        raise TypeError(f"'bool' object cannot be interpreted as {what}")
    return operator.index(k)


def _count(k, name: str, least: int = 0) -> int:
    """k as an int by `_index`'s rule, refused below `least` (0 or 1)."""
    k = _index(k, "an integer")
    if k < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {k}")
    return k


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple connected undirected graph with indexed edges.

    Nodes are 0..n-1.  Row k of `edges` is edge k, normalized to u < v; that
    index is used everywhere else (amplitudes, polarities, qubit wiring).
    Construction validates simplicity and connectivity and stores the
    adjacency as compressed sparse rows: node u's incident edges are the
    entries indptr[u]:indptr[u + 1] of `neighbor` and `edge`, in ascending
    neighbor order.  Every array is read-only.  Graphs are equal when they
    have the same n and the same edges in the same order; they are not
    hashable.

    Attributes:
        n: Number of nodes.
        edges: (E, 2) int64 array of (u, v) rows with u < v.
        indptr: n + 1 offsets into `neighbor` and `edge`.
        neighbor: The neighbor at each of the 2E entries.
        edge: The index of the edge at each entry.

    Raises:
        TypeError: If n or an endpoint is not an integer (a bool or a float).
        GraphError: If n < 1, or the edges are not simple and connected.

    Examples:
        >>> g = Graph(3, ((2, 1), (1, 0)))
        >>> g.edges
        array([[1, 2],
               [0, 1]])
        >>> g.indptr, g.neighbor, g.edge
        (array([0, 1, 3, 4]), array([1, 0, 2, 1]), array([1, 1, 0, 0]))
    """

    n: int
    edges: np.ndarray
    indptr: np.ndarray = field(init=False, repr=False)
    neighbor: np.ndarray = field(init=False, repr=False)
    edge: np.ndarray = field(init=False, repr=False)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __post_init__(self):
        n = _index(self.n, "a node count")
        if n < 1:
            raise GraphError(f"graph needs at least one node, got n={n}")
        written = _int_array(self.edges)
        if written.size == 0:
            written = written.reshape(0, 2)
        if written.ndim != 2 or written.shape[1] != 2:
            raise GraphError(f"edges must be (u, v) pairs, got shape {written.shape}")
        lo = np.minimum(written[:, 0], written[:, 1])
        hi = np.maximum(written[:, 0], written[:, 1])

        n_edges = len(lo)
        # n nodes need at least n - 1 edges to connect.  With fewer, work on
        # the ids that occur, renumbered 0..m-1, so nothing is sized by n and
        # the pair keys a·m + b fit int64 however large the ids are.
        if n > n_edges + 1:
            ids, ends = np.unique(np.concatenate(([0], lo, hi)), return_inverse=True)
            m, a, b = len(ids), ends[1 : n_edges + 1], ends[n_edges + 1 :]
        else:
            ids, m, a, b = None, n, lo, hi
        _check_edges(n, written, lo, hi, a * m + b)
        roots = _component_roots(m, a, b)
        reached = np.flatnonzero(roots == 0) if ids is None else ids[roots == 0]
        if len(reached) < n:
            gaps = np.flatnonzero(reached != np.arange(len(reached)))
            missing = int(gaps[0]) if gaps.size else len(reached)
            raise GraphError(f"graph is not connected: node {missing} unreachable from node 0")

        rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.argsort(rows * n + cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        object.__setattr__(self, "edges", _read_only(np.stack([lo, hi], axis=1)))
        object.__setattr__(self, "indptr", _read_only(indptr))
        object.__setattr__(self, "neighbor", _read_only(cols[order]))
        edge = np.where(order < n_edges, order, order - n_edges)
        object.__setattr__(self, "edge", _read_only(edge))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        u = _index(u, "a node index")
        if not 0 <= u < self.n:
            raise GraphError(f"node {u} outside 0..{self.n - 1}")
        return int(self.indptr[u + 1] - self.indptr[u])

    def edge_index(self, u: int, v: int) -> int:
        """Return the index of edge {u, v}, raising GraphError if absent."""
        u, v = _index(u, "a node index"), _index(v, "a node index")
        lo, hi = (u, v) if u < v else (v, u)
        if 0 <= lo and hi < self.n:
            start, stop = self.indptr[lo], self.indptr[lo + 1]
            i = start + np.searchsorted(self.neighbor[start:stop], hi)
            if i < stop and self.neighbor[i] == hi:
                return int(self.edge[i])
        raise GraphError(f"no edge between {u} and {v}")


def _check_edges(
    n: int, written: np.ndarray, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray
) -> None:
    """Raise for the first faulty edge in list order, if any.

    An edge is checked for range, then for a self-loop, then for an earlier
    copy (equal `keys`, one per edge); the range message shows the edge as
    written.
    """
    outside = (lo < 0) | (hi >= n)
    loop = lo == hi
    # The key of an edge outside the range may have wrapped.  A false match
    # is harmless: it marks the later of its two edges, which is this edge,
    # itself a range fault, or an edge after it.
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    faults = np.flatnonzero(outside | loop | repeat)
    if not faults.size:
        return
    k = int(faults[0])
    if outside[k]:
        u, v = (int(x) for x in written[k])
        raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}", k)
    if loop[k]:
        raise GraphError(f"self-loop at node {int(lo[k])}", k)
    first = int(np.flatnonzero(keys[:k] == keys[k])[0])
    raise GraphError(f"duplicate edge ({int(lo[k])}, {int(hi[k])})", k, first)


def _component_roots(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per node, the smallest node of its component (edges lo[i] - hi[i]).

    Min-label hooking: each round points every root that shares an edge
    with a smaller root at the smallest such root, then jumps pointers until
    every node points at its root.  Labels only decrease, so no cycle forms.
    A tree that neither hooks nor is hooked in one round hooks in the next,
    so the trees of an unfinished component at least halve every two
    rounds: O(log n) rounds of O(E) work.
    """
    label = np.arange(n)
    while True:
        a, b = label[lo], label[hi]
        split = a != b
        if not split.any():
            return label
        a, b = a[split], b[split]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


@dataclass(frozen=True, eq=False)
class PolarityMap:
    """Assignment of the + pole of every edge to one of its endpoints.

    plus_node[k] is the endpoint of edge k holding the + pole; the opposite
    endpoint holds the - pole.  A node always scatters the components of its
    incident edges whose pole faces it.  Polarities are equal when their
    arrays are; they are not hashable.

    Attributes:
        plus_node: Per edge, the node id of the + endpoint (read-only int64
            array; exact Python ints if one does not fit).

    Raises:
        TypeError: If a node id is a bool, a float or any other non-integer.

    Examples:
        >>> p = PolarityMap((1, 1))
        >>> p.plus_node, p.component_at(0, 1), p.component_at(0, 0)
        (array([1, 1]), 0, 1)
        >>> p == PolarityMap([1, 1])
        True
    """

    plus_node: np.ndarray

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, PolarityMap):
            return NotImplemented
        return np.array_equal(self.plus_node, other.plus_node)

    def __post_init__(self):
        object.__setattr__(self, "plus_node", _read_only(np.array(_int_array(self.plus_node))))

    def component_at(self, edge_index: int, node: int) -> int:
        """Return 0 if `node` holds the + pole of the edge, else 1.  `node`
        must be an endpoint of the edge, which the caller checks: the map
        does not know the graph, and any other node reads as 1."""
        k, node = _index(edge_index), _index(node, "a node index")
        if not 0 <= k < len(self.plus_node):
            raise GraphError(f"edge {k} outside 0..{len(self.plus_node) - 1}", k)
        return 0 if self.plus_node[k] == node else 1


def facing_amplitudes(g: Graph, p: PolarityMap) -> np.ndarray:
    """Per CSR entry of `g`, the amplitude 2k + c of edge k that faces the row node.

    c is 0 when the row node holds the + pole of edge k, else 1, so node u's
    facing amplitudes are entries indptr[u]:indptr[u + 1], in ascending
    neighbor order.
    """
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    return 2 * g.edge + (p.plus_node[g.edge] != rows)


def check_polarity(g: Graph, p: PolarityMap) -> None:
    """Validate that `p` assigns a + endpoint to every edge of `g`."""
    plus = p.plus_node
    if len(plus) != g.n_edges:
        raise GraphError(f"polarity covers {len(plus)} edges, graph has {g.n_edges}")
    lo, hi = g.edges.T
    foreign = np.flatnonzero((plus != lo) & (plus != hi))
    if foreign.size:
        k = int(foreign[0])
        raise GraphError(
            f"polarity of edge {k} points at node {plus[k]}, "
            f"not an endpoint of ({lo[k]}, {hi[k]})"
        )


def greedy_coloring(g: Graph) -> np.ndarray:
    """Color nodes first-fit in ascending id order.

    Each node takes the smallest color unused by its already-colored
    neighbors, so adjacent nodes always end up with distinct colors.  Those
    neighbors are the ones below it: a prefix of its ascending CSR slice.

    Returns:
        Per-node int64 color array.

    Examples:
        >>> greedy_coloring(path_graph(3))
        array([0, 1, 0])
    """
    neighbor = g.neighbor.tolist()
    start = g.indptr[:-1]
    # edge (u, v) with u < v puts u below v
    stop = start + np.bincount(g.edges[:, 1], minlength=g.n)
    colors = [0] * g.n
    for u, (a, b) in enumerate(zip(start.tolist(), stop.tolist())):
        # One neighbor below (every leaf of a star or a starified graph):
        # color 0 unless it took 0, without building a set.
        if b - a == 1:
            colors[u] = 0 if colors[neighbor[a]] else 1
        elif b > a:
            taken = set(map(colors.__getitem__, neighbor[a:b]))
            c = 0
            while c in taken:
                c += 1
            colors[u] = c
    return np.array(colors, dtype=np.int64)


def check_proper(g: Graph, colors) -> None:
    """Validate that `colors` (one per node) is a proper coloring of `g`."""
    if len(colors) != g.n:
        raise GraphError(f"coloring covers {len(colors)} nodes, graph has {g.n}")
    c = _int_array(colors)
    lo, hi = g.edges.T
    clash = np.flatnonzero(c[lo] == c[hi])
    if clash.size:
        k = int(clash[0])
        raise GraphError(
            f"improper coloring: edge {k} joins nodes {lo[k]} and {hi[k]} "
            f"sharing color {c[lo[k]]}"
        )


def polarity_from_coloring(g: Graph, colors) -> PolarityMap:
    """Derive a polarity from a proper coloring: + pole at the higher color.

    Colors of adjacent nodes differ, so every edge gets a well-defined
    orientation that both endpoints can compute locally.

    Raises:
        GraphError: If the coloring is improper or has the wrong length.

    Examples:
        >>> g = path_graph(3)
        >>> polarity_from_coloring(g, greedy_coloring(g)).plus_node
        array([1, 1])
    """
    c = _int_array(colors)
    check_proper(g, c)
    lo, hi = g.edges.T
    return PolarityMap(np.where(c[lo] > c[hi], lo, hi))


@dataclass(frozen=True)
class StarifiedGraph:
    """A graph extended with one virtual pendant edge per original node.

    Original node u gains a virtual twin (node real_node_count + u) joined by
    virtual edge (index real_edge_count + u).  Searching that edge is the
    edge-walk equivalent of searching node u.

    Attributes:
        graph: The extended graph.
        real_node_count: Nodes of the original graph (ids below this are real).
        real_edge_count: Edges of the original graph (indices below this are
            real).
    """

    graph: Graph
    real_node_count: int
    real_edge_count: int

    def is_virtual_edge(self, k: int) -> bool:
        """Whether edge k of the extended graph is a virtual pendant edge."""
        k = _index(k)
        if not 0 <= k < self.graph.n_edges:
            raise GraphError(f"edge {k} outside 0..{self.graph.n_edges - 1}", k)
        return k >= self.real_edge_count

    def virtual_edge_of(self, u: int) -> int:
        """Index of the pendant edge attached to real node u."""
        u = _index(u, "a node index")
        if not 0 <= u < self.real_node_count:
            raise GraphError(f"node {u} is not a node of the original graph")
        return self.real_edge_count + u


def starify(g: Graph) -> StarifiedGraph:
    """Attach a virtual pendant edge to every node.

    Examples:
        >>> s = starify(complete_graph(3))
        >>> s.graph.n, s.graph.n_edges
        (6, 6)
        >>> s.graph.edges[s.virtual_edge_of(2)]
        array([2, 5])
    """
    n, n_edges = g.n, g.n_edges
    real = np.arange(n)
    # The result is simple and connected by construction, so its CSR comes
    # from g's with no check and no sort: real node u's row gains twin n + u
    # at its end (every real neighbor is below n), and the twins' rows, one
    # entry each, follow the real rows' `size` entries.
    size = 2 * n_edges + n
    indptr = np.concatenate([g.indptr + np.arange(n + 1), size + 1 + real])
    twin = indptr[1 : n + 1] - 1
    kept = np.ones(size + n, dtype=bool)
    kept[twin] = False
    kept[size:] = False
    neighbor = np.empty(size + n, dtype=g.neighbor.dtype)
    neighbor[kept], neighbor[twin], neighbor[size:] = g.neighbor, n + real, real
    edge = np.empty(size + n, dtype=g.edge.dtype)
    edge[kept], edge[twin], edge[size:] = g.edge, n_edges + real, n_edges + real
    edges = np.concatenate([g.edges, np.stack([real, n + real], axis=1)])
    out = object.__new__(Graph)  # Graph() would check it all again
    object.__setattr__(out, "n", 2 * n)
    arrays = {"edges": edges, "indptr": indptr, "neighbor": neighbor, "edge": edge}
    for name, value in arrays.items():
        object.__setattr__(out, name, _read_only(value))
    return StarifiedGraph(out, n, n_edges)


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    """Parse a graph document.

    Two formats are supported.  "edge-list": one `u v` pair per line, `#`
    starts a comment, blank lines ignored; the node count is one past the
    largest endpoint.  "json": an object {"nodes": n, "edges": [[u, v], ...]}.

    Raises:
        GraphParseError: On malformed input, with the offending line (or edge
            position, for JSON) in the message.
        GraphError: If the parsed graph is not simple and connected.
    """
    return parse_graph_document(text, fmt)[0]


def parse_graph_document(
    text: str, fmt: str = "edge-list"
) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse a graph document, keeping any user-supplied coloring.

    The JSON format takes an optional "colors" array (one color per node),
    validated for length and properness; the edge-list format never carries
    colors.

    Returns:
        (graph, colors): colors is None when the document has none.
    """
    if fmt == "edge-list":
        return _parse_edge_list(text), None
    if fmt == "json":
        return _parse_json(text)
    raise GraphParseError(f"unknown graph format {fmt!r} (expected edge-list or json)")


def _edge_lines(text: str):
    """Yield (line number, content) for each line of an edge list that holds an edge."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


_PLAIN_BYTES = b"0123456789 \t\r\n"


def _plain_endpoints(text: str) -> np.ndarray | None:
    """The endpoints of a plain edge list, read with one split; else None.

    Plain text holds ASCII digits, spaces, tabs and line ends only (so no
    comment and no sign), and two numbers on every non-blank line.  Any
    other text, and any number that does not fit int64, is left to the
    per-line tokenizer.
    """
    if not text.isascii():
        return None
    raw = text.encode()
    if raw.translate(None, _PLAIN_BYTES) or not raw.strip():
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    digit = chars >= ord("0")
    begins = np.flatnonzero(digit & ~np.concatenate(([False], digit[:-1])))
    line_ends = np.flatnonzero((chars == ord("\n")) | (chars == ord("\r")))
    per_line = np.diff(np.searchsorted(begins, line_ends), prepend=0, append=len(begins))
    if not np.all((per_line == 0) | (per_line == 2)):
        return None
    flat = np.fromstring(text, dtype=np.int64, sep=" ")
    # fromstring clamps a number that overflows to the int64 maximum
    return None if flat.max() == np.iinfo(np.int64).max else flat


def _line_endpoints(text: str) -> list[int]:
    """The endpoints u, v, u, v, ... of an edge list, read line by line.

    Raises:
        GraphParseError: On the first line that is not a pair of node ids,
            each ASCII digits only; a "-" before the digits is a negative id.
    """
    flat: list[int] = []
    for lineno, line in _edge_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"expected two node ids, got {len(parts)} fields: {line!r}", lineno
            )
        ids = [s.removeprefix("-") for s in parts]
        try:
            if not all(s.isascii() and s.isdigit() for s in ids):
                raise ValueError
            u, v = int(ids[0]), int(ids[1])
        except ValueError:  # int() also refuses more digits than its limit
            raise GraphParseError(f"non-integer node id in {line!r}", lineno) from None
        if ids != parts:
            raise GraphParseError(f"negative node id in {line!r}", lineno)
        flat += (u, v)
    return flat


def _parse_edge_list(text: str) -> Graph:
    flat = _plain_endpoints(text)
    if flat is None:
        flat = _int64(_line_endpoints(text))
    if not flat.size:
        raise GraphParseError("no edges found")
    return _build_graph(
        1 + int(flat.max()),
        flat.reshape(-1, 2),
        lambda k: next(itertools.islice(_edge_lines(text), k, None))[0],
        "on line",
    )


def _build_graph(n: int, edges, position, seen: str) -> Graph:
    """Graph(n, edges), naming a faulty edge k by `position(k)` in the document."""
    try:
        return Graph(n, edges)
    except GraphError as exc:
        message = str(exc)
        if exc.first is not None:
            message += f" (first seen {seen} {position(exc.first)})"
        line = None if exc.edge is None else position(exc.edge)
        raise GraphParseError(message, line) from None


def _int_pairs(items: list) -> bool:
    """True if every item is a list of two ints, checked by C-level passes.

    Types are matched exactly, so a bool or a float is not an int.
    """
    return (
        set(map(type, items)) <= {list}
        and set(map(len, items)) <= {2}
        and set(map(type, itertools.chain.from_iterable(items))) <= {int}
    )


def _parse_json(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphParseError("top-level JSON value must be an object")
    if "nodes" not in doc or "edges" not in doc:
        raise GraphParseError('JSON graph needs "nodes" and "edges" keys')
    n = doc["nodes"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphParseError('"nodes" must be an integer')
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise GraphParseError('"edges" must be a list of [u, v] pairs')
    if not _int_pairs(raw_edges):
        for pos, pair in enumerate(raw_edges, start=1):
            if not _int_pairs([pair]):
                raise GraphParseError(f"edge must be a [u, v] integer pair, got {pair!r}", pos)
    g = _build_graph(n, _int64(raw_edges), lambda k: k + 1, "at edge")
    colors = None
    if "colors" in doc:
        raw = doc["colors"]
        if type(raw) is not list or not set(map(type, raw)) <= {int} or min(raw, default=0) < 0:
            raise GraphParseError('"colors" must be a list of non-negative integers')
        colors = tuple(raw)
        check_proper(g, colors)
    return g, colors


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format, one edge per line in index order."""
    return "".join(f"{u} {v}\n" for u, v in g.edges.tolist())


def to_json(g: Graph) -> str:
    """Serialize to the JSON format parse_graph accepts."""
    return json.dumps({"nodes": g.n, "edges": g.edges.tolist()})


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 2:
        raise GraphError(f"path needs at least 2 nodes, got {n}")
    return Graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 nodes."""
    if n < 3:
        raise GraphError(f"cycle needs at least 3 nodes, got {n}")
    return Graph(n, np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1))


def star_graph(m: int) -> Graph:
    """Star with hub 0 and m leaves; edge k joins the hub to leaf k + 1."""
    if m < 1:
        raise GraphError(f"star needs at least 1 leaf, got {m}")
    return Graph(m + 1, np.stack([np.zeros(m, dtype=np.int64), np.arange(1, m + 1)], axis=1))


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 2 nodes, edges in lexicographic order."""
    if n < 2:
        raise GraphError(f"complete graph needs at least 2 nodes, got {n}")
    return Graph(n, np.stack(np.triu_indices(n, 1), axis=1))


def random_connected_graph(n: int, extra_edges: int = 0, seed: int = 0) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges.

    Node i > 0 attaches to a uniformly random earlier node, then up to
    `extra_edges` distinct non-tree edges are added (fewer if the graph
    saturates).  Deterministic for a given seed.
    """
    if n < 2:
        raise GraphError(f"random graph needs at least 2 nodes, got {n}")
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    limit = n * (n - 1) // 2
    budget = min(extra_edges, limit - len(edges))
    while budget > 0:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges:
            continue
        edges.add(key)
        budget -= 1
    return Graph(n, np.array(sorted(edges)))
