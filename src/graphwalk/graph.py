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
from collections import defaultdict
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class Graph:
    """A simple connected undirected graph with indexed edges.

    Nodes are 0..n-1.  Edges are stored as (u, v) pairs with u < v; their
    tuple position is the edge index used everywhere else (amplitudes,
    polarities, qubit wiring).  Construction validates simplicity and
    connectivity and precomputes the adjacency structure.

    Attributes:
        n: Number of nodes.
        edges: Tuple of (u, v) pairs, normalized to u < v.
        adjacency: Per node, a tuple of (neighbor, edge_index) pairs in
            ascending neighbor order.  Derived; excluded from equality.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise GraphError(f"graph needs at least one node, got n={n}")
        first_index: dict[tuple[int, int], int] = {}
        for k, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}", k)
            if u == v:
                raise GraphError(f"self-loop at node {u}", k)
            e = (u, v) if u < v else (v, u)
            first = first_index.setdefault(e, k)
            if first != k:
                raise GraphError(f"duplicate edge {e}", k, first)
        object.__setattr__(self, "edges", tuple(first_index))
        del first_index  # not held while the per-node lists are built

        # n nodes need at least n - 1 edges to connect; with fewer, search
        # from node 0 in a dict, without any per-node list.
        neighbors = defaultdict(list) if n > len(self.edges) + 1 else [[] for _ in range(n)]
        for k, (u, v) in enumerate(self.edges):
            neighbors[u].append((v, k))
            neighbors[v].append((u, k))
        seen = {0}
        frontier = [0]
        while frontier:
            for v, _ in neighbors[frontier.pop()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) != n:
            missing = next(u for u in itertools.count() if u not in seen)
            raise GraphError(f"graph is not connected: node {missing} unreachable from node 0")
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(nbrs)) for nbrs in neighbors)
        )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def edge_index(self, u: int, v: int) -> int:
        """Return the index of edge {u, v}, raising GraphError if absent."""
        key = (u, v) if u < v else (v, u)
        for nbr, k in self.adjacency[key[0]]:
            if nbr == key[1]:
                return k
        raise GraphError(f"no edge between {u} and {v}")


@dataclass(frozen=True)
class PolarityMap:
    """Assignment of the + pole of every edge to one of its endpoints.

    plus_node[k] is the endpoint of edge k holding the + pole; the opposite
    endpoint holds the - pole.  A node always scatters the components of its
    incident edges whose pole faces it.

    Attributes:
        plus_node: Per edge, the node id of the + endpoint.
    """

    plus_node: tuple[int, ...]

    def component_at(self, edge_index: int, node: int) -> int:
        """Return 0 if `node` holds the + pole of the edge, else 1."""
        return 0 if self.plus_node[edge_index] == node else 1


def check_polarity(g: Graph, p: PolarityMap) -> None:
    """Validate that `p` assigns a + endpoint to every edge of `g`."""
    if len(p.plus_node) != g.n_edges:
        raise GraphError(
            f"polarity covers {len(p.plus_node)} edges, graph has {g.n_edges}"
        )
    for k, (u, v) in enumerate(g.edges):
        if p.plus_node[k] not in (u, v):
            raise GraphError(
                f"polarity of edge {k} points at node {p.plus_node[k]}, "
                f"not an endpoint of ({u}, {v})"
            )


def greedy_coloring(g: Graph) -> tuple[int, ...]:
    """Color nodes first-fit in ascending id order.

    Each node takes the smallest color unused by its already-colored
    neighbors, so adjacent nodes always end up with distinct colors.

    Returns:
        Per-node color tuple.

    Examples:
        >>> greedy_coloring(path_graph(3))
        (0, 1, 0)
    """
    colors: list[int] = [-1] * g.n
    for u in range(g.n):
        taken = {colors[v] for v, _ in g.adjacency[u] if colors[v] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return tuple(colors)


def check_proper(g: Graph, colors: tuple[int, ...]) -> None:
    """Validate that `colors` is a proper coloring of `g`."""
    if len(colors) != g.n:
        raise GraphError(f"coloring covers {len(colors)} nodes, graph has {g.n}")
    for k, (u, v) in enumerate(g.edges):
        if colors[u] == colors[v]:
            raise GraphError(
                f"improper coloring: edge {k} joins nodes {u} and {v} "
                f"sharing color {colors[u]}"
            )


def polarity_from_coloring(g: Graph, colors: tuple[int, ...]) -> PolarityMap:
    """Derive a polarity from a proper coloring: + pole at the higher color.

    Colors of adjacent nodes differ, so every edge gets a well-defined
    orientation that both endpoints can compute locally.

    Raises:
        GraphError: If the coloring is improper or has the wrong length.

    Examples:
        >>> g = path_graph(3)
        >>> polarity_from_coloring(g, greedy_coloring(g)).plus_node
        (1, 1)
    """
    check_proper(g, colors)
    return PolarityMap(
        tuple(u if colors[u] > colors[v] else v for (u, v) in g.edges)
    )


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

    def is_virtual_node(self, u: int) -> bool:
        return u >= self.real_node_count

    def is_virtual_edge(self, k: int) -> bool:
        return k >= self.real_edge_count

    def virtual_edge_of(self, u: int) -> int:
        """Index of the pendant edge attached to real node u."""
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
        (2, 5)
    """
    edges = list(g.edges) + [(u, g.n + u) for u in range(g.n)]
    return StarifiedGraph(Graph(2 * g.n, tuple(edges)), g.n, g.n_edges)


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


def _parse_edge_list(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    for lineno, line in _edge_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"expected two node ids, got {len(parts)} fields: {line!r}", lineno
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer node id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative node id in {line!r}", lineno)
        edges.append((u, v))
    if not edges:
        raise GraphParseError("no edges found")
    n = 1 + max(itertools.chain.from_iterable(edges))
    return _build_graph(
        n, edges, lambda k: next(itertools.islice(_edge_lines(text), k, None))[0], "on line"
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
    for pos, pair in enumerate(raw_edges, start=1):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise GraphParseError(f"edge must be a [u, v] integer pair, got {pair!r}", pos)
    g = _build_graph(n, raw_edges, lambda k: k + 1, "at edge")
    colors = None
    if "colors" in doc:
        raw = doc["colors"]
        if not isinstance(raw, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in raw
        ):
            raise GraphParseError('"colors" must be a list of non-negative integers')
        colors = tuple(raw)
        check_proper(g, colors)
    return g, colors


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format, one edge per line in index order."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def to_json(g: Graph) -> str:
    """Serialize to the JSON format parse_graph accepts."""
    return json.dumps({"nodes": g.n, "edges": [list(e) for e in g.edges]})


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 2:
        raise GraphError(f"path needs at least 2 nodes, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 nodes."""
    if n < 3:
        raise GraphError(f"cycle needs at least 3 nodes, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(m: int) -> Graph:
    """Star with hub 0 and m leaves; edge k joins the hub to leaf k + 1."""
    if m < 1:
        raise GraphError(f"star needs at least 1 leaf, got {m}")
    return Graph(m + 1, tuple((0, i) for i in range(1, m + 1)))


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 2 nodes, edges in lexicographic order."""
    if n < 2:
        raise GraphError(f"complete graph needs at least 2 nodes, got {n}")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def random_connected_graph(n: int, extra_edges: int = 0, seed: int = 0) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges.

    Node i > 0 attaches to a uniformly random earlier node, then up to
    `extra_edges` distinct non-tree edges are added (fewer if the graph
    saturates).  Deterministic for a given seed.
    """
    import numpy as np

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
    return Graph(n, tuple(sorted(edges)))
