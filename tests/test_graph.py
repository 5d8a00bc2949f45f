"""Graph parsing, validation, coloring, polarity, and starification."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from graphwalk import (
    Graph,
    GraphError,
    GraphParseError,
    PolarityMap,
    check_polarity,
    check_proper,
    complete_graph,
    cycle_graph,
    greedy_coloring,
    parse_graph,
    parse_graph_document,
    path_graph,
    polarity_from_coloring,
    random_connected_graph,
    star_graph,
    starify,
    to_edge_list,
    to_json,
)
from graphwalk.graph import _line_endpoints, _plain_endpoints


def test_parse_edge_list_path():
    g = parse_graph("0 1\n1 2")
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_parse_edge_list_star():
    g = parse_graph("0 1\n0 2\n0 3")
    assert g.n == 4
    assert g.n_edges == 3
    assert g.degree(0) == 3
    assert all(g.degree(u) == 1 for u in (1, 2, 3))


def test_degree_refuses_nodes_outside_the_graph():
    g = star_graph(3)
    for u in (-1, 4):
        with pytest.raises(GraphError, match=rf"^node {u} outside 0\.\.3$"):
            g.degree(u)
    with pytest.raises(TypeError, match="bool"):
        g.degree(True)
    assert g.degree(np.int64(3)) == 1


def test_parse_edge_list_disconnected():
    with pytest.raises(GraphError, match="not connected"):
        parse_graph("0 1\n2 3")


def test_parse_edge_list_comments_and_blanks():
    g = parse_graph("# header\n0 1  # first edge\n\n  1 2\n")
    assert g.edges.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize(
    "text, line, what",
    [
        ("0 1\n1 2 3", 2, "two node ids"),
        ("0 1\nx 2", 2, "non-integer"),
        ("0 0", 1, "self-loop"),
        ("0 1\n1 0", 2, "duplicate"),
        ("0 -1", 1, "negative"),
        ("0 -0", 1, "negative"),
        ("0 1\n1 +2", 2, "non-integer"),
        ("0 1\n1 0_2", 2, "non-integer"),
        ("0 1\n1 \uff12", 2, "non-integer"),  # full-width 2
        ("0 1\n1 \u0663", 2, "non-integer"),  # Arabic-Indic 3
        ("0 1\n1 --2", 2, "non-integer"),
    ],
)
def test_parse_edge_list_errors_carry_line(text, line, what):
    with pytest.raises(GraphParseError, match=f"line {line}.*{what}"):
        parse_graph(text)


def test_parse_edge_list_empty():
    with pytest.raises(GraphParseError, match="no edges"):
        parse_graph("# nothing here\n")


def test_parse_json():
    g = parse_graph('{"nodes": 3, "edges": [[0, 1], [1, 2]]}', "json")
    assert g == path_graph(3)


_BAD_PAIR = r"edge must be a \[u, v\] integer pair, got"


@pytest.mark.parametrize(
    "text, what",
    [
        ("{", "invalid JSON"),
        ("[1, 2]", "must be an object"),
        ('{"edges": []}', '"nodes"'),
        ('{"nodes": "3", "edges": []}', "integer"),
        ('{"nodes": 2, "edges": [[0, 1, 2]]}', "pair"),
        ('{"nodes": 2, "edges": [[0, true]]}', rf"^line 1: {_BAD_PAIR} \[0, True\]$"),
        ('{"nodes": 2, "edges": [[0, 1.0]]}', rf"^line 1: {_BAD_PAIR} \[0, 1\.0\]$"),
        ('{"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3.0]]}',
         rf"^line 3: {_BAD_PAIR} \[2, 3\.0\]$"),
        ('{"nodes": 4, "edges": [[0, 1], [1, 2], {"u": 2}]}',
         rf"^line 3: {_BAD_PAIR} \{{'u': 2\}}$"),
        ('{"nodes": 2, "edges": [[0, 0]]}', "self-loop"),
        ('{"nodes": 2, "edges": [[0, 1], [1, 0]]}', "duplicate"),
        ('{"nodes": 2, "edges": [[0, 5]]}', "outside"),
    ],
)
def test_parse_json_errors(text, what):
    with pytest.raises(GraphParseError, match=what):
        parse_graph(text, "json")


def test_parse_json_colors():
    g, colors = parse_graph_document(
        '{"nodes": 3, "edges": [[0, 1], [1, 2]], "colors": [0, 1, 0]}', "json"
    )
    assert g == path_graph(3)
    assert colors == (0, 1, 0)


def test_parse_json_colors_improper():
    with pytest.raises(GraphError, match="improper"):
        parse_graph_document(
            '{"nodes": 2, "edges": [[0, 1]], "colors": [1, 1]}', "json"
        )


def test_parse_json_colors_malformed():
    with pytest.raises(GraphParseError, match="colors"):
        parse_graph_document(
            '{"nodes": 2, "edges": [[0, 1]], "colors": [0, -1]}', "json"
        )


def test_parse_unknown_format():
    with pytest.raises(GraphParseError, match="unknown graph format"):
        parse_graph("0 1", "yaml")


def test_graph_normalizes_edge_order():
    g = Graph(3, ((1, 0), (2, 1)))
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g == path_graph(3)


@pytest.mark.parametrize(
    "n, edges, what",
    [
        (0, (), "at least one node"),
        (2, ((0, 2),), "outside"),
        (2, ((1, 1),), "self-loop"),
        (3, ((0, 1), (1, 0), (1, 2)), "duplicate"),
        (4, ((0, 1), (2, 3)), "not connected"),
    ],
)
def test_graph_validation(n, edges, what):
    with pytest.raises(GraphError, match=what):
        Graph(n, edges)


def _doc(text, fmt="edge-list"):
    return lambda: parse_graph_document(text, fmt)


@pytest.mark.parametrize(
    "build, message, attrs",
    [
        pytest.param(_doc("0 1\n1 2 3"),
                     "line 2: expected two node ids, got 3 fields: '1 2 3'", {"line": 2},
                     id="edges-three-fields"),
        pytest.param(_doc("0 1\nx 2"), "line 2: non-integer node id in 'x 2'", {"line": 2},
                     id="edges-non-integer"),
        pytest.param(_doc("0 0"), "line 1: self-loop at node 0", {"line": 1},
                     id="edges-self-loop"),
        pytest.param(_doc("5 5"), "line 1: self-loop at node 5", {"line": 1},
                     id="edges-self-loop-before-node-count"),
        pytest.param(_doc("0 1\n1 0"),
                     "line 2: duplicate edge (0, 1) (first seen on line 1)", {"line": 2},
                     id="edges-duplicate"),
        pytest.param(_doc("# h\n0 1\n\n1 2  # c\n2 0\n  1 0\n"),
                     "line 6: duplicate edge (0, 1) (first seen on line 2)", {"line": 6},
                     id="edges-duplicate-after-comments-and-blanks"),
        pytest.param(_doc("0 1\n1 2\n3 3\n2 1\n"), "line 3: self-loop at node 3",
                     {"line": 3}, id="edges-first-of-several-faults"),
        pytest.param(_doc("0 -1"), "line 1: negative node id in '0 -1'", {"line": 1},
                     id="edges-negative"),
        pytest.param(_doc("# nothing here\n"), "no edges found", {"line": None},
                     id="edges-empty"),
        pytest.param(_doc("  \n\t\n \r\n"), "no edges found", {"line": None},
                     id="edges-whitespace-only"),
        pytest.param(_doc("0 1\n2 3"),
                     "graph is not connected: node 2 unreachable from node 0",
                     {"line": None}, id="edges-disconnected"),
        pytest.param(_doc("{", "json"),
                     "invalid JSON: Expecting property name enclosed in double quotes: "
                     "line 1 column 2 (char 1)", {"line": None}, id="json-invalid"),
        pytest.param(_doc("[1, 2]", "json"), "top-level JSON value must be an object",
                     {"line": None}, id="json-not-object"),
        pytest.param(_doc('{"edges": []}', "json"),
                     'JSON graph needs "nodes" and "edges" keys', {"line": None},
                     id="json-no-nodes"),
        pytest.param(_doc('{"nodes": "3", "edges": []}', "json"),
                     '"nodes" must be an integer', {"line": None}, id="json-nodes-string"),
        pytest.param(_doc('{"nodes": 3, "edges": 5}', "json"),
                     '"edges" must be a list of [u, v] pairs', {"line": None},
                     id="json-edges-not-a-list"),
        pytest.param(_doc('{"nodes": 2, "edges": [[0, 1, 2]]}', "json"),
                     "line 1: edge must be a [u, v] integer pair, got [0, 1, 2]",
                     {"line": 1}, id="json-triple"),
        pytest.param(_doc('{"nodes": 2, "edges": [[0, 0]]}', "json"),
                     "line 1: self-loop at node 0", {"line": 1}, id="json-self-loop"),
        pytest.param(_doc('{"nodes": 2, "edges": [[0, 1], [1, 0]]}', "json"),
                     "line 2: duplicate edge (0, 1) (first seen at edge 1)", {"line": 2},
                     id="json-duplicate"),
        pytest.param(_doc('{"nodes": 2, "edges": [[0, 5]]}', "json"),
                     "line 1: edge (0, 5) has an endpoint outside 0..1", {"line": 1},
                     id="json-out-of-range"),
        pytest.param(_doc('{"nodes": 3, "edges": [[1, 2], [5, 0]]}', "json"),
                     "line 2: edge (5, 0) has an endpoint outside 0..2", {"line": 2},
                     id="json-out-of-range-as-written"),
        pytest.param(_doc('{"nodes": 3, "edges": [[0, 0], [0, 1, 2]]}', "json"),
                     "line 2: edge must be a [u, v] integer pair, got [0, 1, 2]",
                     {"line": 2}, id="json-malformed-pair-before-graph-faults"),
        pytest.param(_doc('{"nodes": 2, "edges": [[0, 1]], "colors": [1, 1]}', "json"),
                     "improper coloring: edge 0 joins nodes 0 and 1 sharing color 1", {},
                     id="json-colors-improper"),
        pytest.param(_doc('{"nodes": 2, "edges": [[0, 1]], "colors": [0, -1]}', "json"),
                     '"colors" must be a list of non-negative integers', {"line": None},
                     id="json-colors-malformed"),
        pytest.param(_doc("0 1", "yaml"),
                     "unknown graph format 'yaml' (expected edge-list or json)",
                     {"line": None}, id="unknown-format"),
        pytest.param(lambda: Graph(0, ()), "graph needs at least one node, got n=0",
                     {"edge": None, "first": None}, id="graph-no-nodes"),
        pytest.param(lambda: Graph(3, [[0, 1, 2]]),
                     "edges must be (u, v) pairs, got shape (1, 3)",
                     {"edge": None, "first": None}, id="graph-not-pairs"),
        pytest.param(lambda: Graph(2, ((0, 2),)),
                     "edge (0, 2) has an endpoint outside 0..1", {"edge": 0, "first": None},
                     id="graph-out-of-range"),
        pytest.param(lambda: Graph(2, ((1, 1),)), "self-loop at node 1",
                     {"edge": 0, "first": None}, id="graph-self-loop"),
        pytest.param(lambda: Graph(3, ((0, 1), (1, 0), (1, 2))), "duplicate edge (0, 1)",
                     {"edge": 1, "first": 0}, id="graph-duplicate"),
        pytest.param(lambda: Graph(4, ((0, 1), (1, 2), (3, 3), (0, 1))),
                     "self-loop at node 3", {"edge": 2, "first": None},
                     id="graph-first-of-several-faults"),
        pytest.param(lambda: Graph(4, ((0, 1), (2, 3))),
                     "graph is not connected: node 2 unreachable from node 0",
                     {"edge": None, "first": None}, id="graph-disconnected"),
    ],
)
def test_graph_error_messages(build, message, attrs):
    with pytest.raises(GraphError) as info:
        build()
    assert str(info.value) == message
    for name, value in attrs.items():
        assert getattr(info.value, name) == value


@pytest.mark.parametrize(
    "build",
    [lambda: Graph(10**6, ((0, 1),)), lambda: parse_graph("0 1\n1 1000000")],
    ids=["graph", "edge-list"],
)
def test_too_few_edges_rejected_before_per_node_work(build):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="node 2 unreachable"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _write(edges, rng, style):
    """An edge list in one of several spellings of the same graph."""
    sep = {"tabs": "\t", "spaces": "  "}.get(style, " ")
    end = "\r\n" if style == "crlf" else "\n"
    lines = []
    for u, v in edges:
        if style == "zeros":
            u, v = f"{u:03d}", f"0{v}"
        elif style == "signed":
            u = f"+{u}"
        line = f"{u}{sep}{v}"
        if style == "comments":
            line += "  # edge"
        if style == "blank" and rng.random() < 0.3:
            lines.append("   ")
        lines.append(line + (" \t" if style == "spaces" else ""))
    head = "# a graph" + end if style == "comments" else ""
    return head + end.join(lines) + (end if style != "no-final-newline" else "")


PLAIN = ["plain", "crlf", "tabs", "spaces", "blank", "zeros", "no-final-newline"]


@pytest.mark.parametrize("style", PLAIN + ["comments", "signed"])
def test_tokenizers_agree(style):
    rng = np.random.default_rng(len(style))
    graphs = [star_graph(40), path_graph(2)]
    graphs += [random_connected_graph(5 + 7 * s, extra_edges=3 * s, seed=s) for s in range(8)]
    for g in graphs:
        order = rng.permutation(g.n_edges)
        written = [tuple(e)[:: 1 if rng.random() < 0.5 else -1] for e in g.edges[order].tolist()]
        text = _write(written, rng, style)
        fast = _plain_endpoints(text)
        assert (fast is None) == (style not in PLAIN)
        if style == "signed":  # "+u" is not ASCII digits, so both readers refuse it
            with pytest.raises(GraphParseError, match="line 1: non-integer node id"):
                _line_endpoints(text)
            continue
        slow = _line_endpoints(text)
        if fast is not None:
            assert fast.tolist() == slow
        assert Graph(g.n, np.reshape(slow, (-1, 2))) == parse_graph(text)
        assert parse_graph(text) == Graph(g.n, g.edges[order])


@pytest.mark.parametrize(
    "text, fmt, message",
    [
        ("0 1\n1 12345678901234567890\n", "edge-list",
         "graph is not connected: node 2 unreachable from node 0"),
        ("0 1\n1 9223372036854775807\n", "edge-list",
         "graph is not connected: node 2 unreachable from node 0"),
        ("0 1\n12345678901234567890 12345678901234567890\n", "edge-list",
         "line 2: self-loop at node 12345678901234567890"),
        ("0 1\n1 12345678901234567890\n12345678901234567890 1\n", "edge-list",
         "line 3: duplicate edge (1, 12345678901234567890) (first seen on line 2)"),
        ('{"nodes": 2, "edges": [[0, 1180591620717411303424]]}', "json",
         "line 1: edge (0, 1180591620717411303424) has an endpoint outside 0..1"),
        ('{"nodes": 2, "edges": [[0, 1], [-1180591620717411303424, 1]]}', "json",
         "line 2: edge (-1180591620717411303424, 1) has an endpoint outside 0..1"),
        ('{"nodes": 1180591620717411303425, "edges": [[0, 1]]}', "json",
         "graph is not connected: node 2 unreachable from node 0"),
        ('{"nodes": 3, "edges": [[0, 1], [1, 2]], "colors": [0, 9223372036854775808, 0]}',
         "json", None),
        ('{"nodes": 3, "edges": [[0, 1], [1, 2]], '
         '"colors": [9223372036854775808, 9223372036854775809, 9223372036854775809]}',
         "json",
         "improper coloring: edge 1 joins nodes 1 and 2 sharing color 9223372036854775809"),
    ],
    ids=["edges-20-digits", "edges-int64-max", "edges-big-self-loop", "edges-big-duplicate",
         "json-over-int64", "json-under-int64", "json-big-nodes", "json-big-colors",
         "json-big-colors-improper"],
)
def test_ids_beyond_int64(text, fmt, message):
    """Ids and colors past int64 are read exactly, with the same messages."""
    if message is None:
        g, colors = parse_graph_document(text, fmt)
        assert polarity_from_coloring(g, colors).plus_node.tolist() == [1, 1]
        return
    with pytest.raises(GraphError) as info:
        parse_graph_document(text, fmt)
    assert str(info.value) == message


def loop_fault(n, edges):
    """The first fault of an edge list, found one edge at a time.

    Returns (message, edge, first) for the first faulty edge in list order,
    then for a disconnected graph, or None for a valid one.
    """
    first_index = {}
    for k, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}", k, None
        if u == v:
            return f"self-loop at node {u}", k, None
        e = (min(u, v), max(u, v))
        first = first_index.setdefault(e, k)
        if first != k:
            return f"duplicate edge {e}", k, first
    seen, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for a, b in first_index:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    missing = next((u for u in range(n) if u not in seen), None)
    if missing is not None:
        return f"graph is not connected: node {missing} unreachable from node 0", None, None
    return None


def test_validation_matches_loop_reference():
    rng = np.random.default_rng(11)
    outcomes = set()
    for i in range(900):
        n = int(rng.integers(1, 8))
        ids = np.arange(-1, n + 1)
        if i % 3 == 1:  # endpoints whose pair keys overflow int64
            ids = np.append(ids, [2**62, 2**62 + 1, -(2**62)])
        elif i % 3 == 2:  # a node count whose square overflows int64, ids near it
            n += 4 * 10**9
            ids = np.append(ids, [n - 2, n - 1])
        edges = [tuple(rng.choice(ids, 2).tolist()) for _ in range(rng.integers(0, 12))]
        want = loop_fault(n, edges)
        if want is None:
            assert Graph(n, edges).n_edges == len(edges)
            outcomes.add("valid")
            continue
        with pytest.raises(GraphError) as info:
            Graph(n, edges)
        assert (str(info.value), info.value.edge, info.value.first) == want
        outcomes.add(want[0].split()[0])
    # every rule was exercised, and some lists were valid
    assert outcomes == {"edge", "self-loop", "duplicate", "graph", "valid"}


def test_adjacency_consistency():
    for seed in range(20):
        g = random_connected_graph(12, extra_edges=10, seed=seed)
        seen = []
        for u in range(g.n):
            row = slice(g.indptr[u], g.indptr[u + 1])
            assert list(g.neighbor[row]) == sorted(g.neighbor[row])
            for v, k in zip(g.neighbor[row].tolist(), g.edge[row].tolist()):
                assert g.edges[k].tolist() == sorted([u, v])
                seen.append(k)
        # each edge appears exactly once per endpoint
        assert sorted(seen) == sorted(list(range(g.n_edges)) * 2)


def test_edge_index():
    g = star_graph(3)
    assert g.edge_index(2, 0) == 1
    with pytest.raises(GraphError, match="no edge"):
        g.edge_index(1, 2)
    assert g.edge_index(np.int64(2), np.int64(0)) == 1
    for u, v in [(0, True), (True, 2), (0.0, 1.0), (0, 1.0)]:
        with pytest.raises(TypeError):
            g.edge_index(u, v)


def test_edge_index_on_large_hub():
    m = 10**4
    g = star_graph(m)
    assert g.edge_index(0, m) == g.edge_index(m, 0) == m - 1
    assert type(g.edge_index(0, m)) is int
    # absent, below 0 and past the last node: all "no edge", none wraps around
    for u, v in [(1, 2), (0, m + 1), (-1, 0), (0, -m), (10**6, 10**7), (2**70, 0)]:
        with pytest.raises(GraphError, match=f"^no edge between {u} and {v}$"):
            g.edge_index(u, v)


def test_hub_last_star_connects_in_few_rounds():
    """Edges (0, m), (1, m), ... put the hub above every leaf.  Each hooking
    round joins every leaf root to the hub at once; a round that kept only
    one of the competing hooks would join one leaf per round, m rounds of
    O(E) work (seconds here)."""
    m = 2 * 10**4
    edges = np.stack([np.arange(m), np.full(m, m)], axis=1)
    start = time.perf_counter()
    g = Graph(m + 1, edges)
    assert time.perf_counter() - start < 1.0
    assert g.degree(m) == m


def test_greedy_coloring_examples():
    assert greedy_coloring(path_graph(3)).tolist() == [0, 1, 0]
    assert greedy_coloring(star_graph(3)).tolist() == [0, 1, 1, 1]
    assert greedy_coloring(complete_graph(2)).tolist() == [0, 1]


def loop_coloring(g):
    """First-fit coloring over per-node neighbor lists, one node at a time."""
    neighbors = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    colors = [-1] * g.n
    for u in range(g.n):
        taken = {colors[v] for v in neighbors[u] if colors[v] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return colors


def test_greedy_coloring_proper_on_random_graphs():
    for seed in range(1000):
        g = random_connected_graph(3 + seed % 22, extra_edges=seed % 17, seed=seed)
        colors = greedy_coloring(g)
        check_proper(g, colors)
        assert colors.tolist() == loop_coloring(g)
        if seed % 10 == 0:
            s = starify(g).graph
            assert greedy_coloring(s).tolist() == loop_coloring(s)


def test_check_proper_length():
    with pytest.raises(GraphError, match="covers 2 nodes"):
        check_proper(path_graph(3), (0, 1))


def test_polarity_from_coloring_examples():
    assert polarity_from_coloring(complete_graph(2), (0, 1)).plus_node.tolist() == [1]
    assert polarity_from_coloring(path_graph(3), (0, 1, 0)).plus_node.tolist() == [1, 1]


def test_polarity_from_coloring_improper():
    with pytest.raises(GraphError, match="improper"):
        polarity_from_coloring(complete_graph(2), (0, 0))


def test_polarity_antisymmetry_on_random_graphs():
    for seed in range(50):
        g = random_connected_graph(10, extra_edges=12, seed=seed)
        p = polarity_from_coloring(g, greedy_coloring(g))
        check_polarity(g, p)
        for k, (u, v) in enumerate(g.edges):
            # exactly one + endpoint: the components at u and v differ
            assert {p.component_at(k, u), p.component_at(k, v)} == {0, 1}


def test_component_at_refuses_edges_outside_the_map():
    p = PolarityMap((1, 1))
    for k in (-1, 2):
        with pytest.raises(GraphError, match=rf"^edge {k} outside 0\.\.1$") as info:
            p.component_at(k, 1)
        assert info.value.edge == k
    with pytest.raises(TypeError, match="bool"):
        p.component_at(True, 1)
    assert p.component_at(np.int64(1), 1) == 0


def test_component_at_refuses_nodes_that_are_not_ints():
    p = PolarityMap((1, 1))
    assert p.component_at(0, np.int64(1)) == 0
    for node in (True, 1.0, 1.5):
        with pytest.raises(TypeError):
            p.component_at(0, node)


def test_check_polarity_rejects_foreign_node():
    g = path_graph(3)
    with pytest.raises(GraphError, match="not an endpoint"):
        check_polarity(g, PolarityMap((2, 1)))
    with pytest.raises(GraphError, match="covers"):
        check_polarity(g, PolarityMap((1,)))


def test_starify_single_edge():
    s = starify(complete_graph(2))
    assert s.graph.n == 4
    assert s.graph.n_edges == 3
    assert sorted(s.graph.degree(u) for u in range(4)) == [1, 1, 2, 2]


def test_starify_triangle():
    s = starify(complete_graph(3))
    assert s.graph.n == 6
    assert s.graph.n_edges == 6


@pytest.mark.parametrize("n", [4, 7, 11])
def test_starify_complete_edge_count(n):
    s = starify(complete_graph(n))
    assert s.graph.n_edges == n * (n - 1) // 2 + n


def test_starify_degrees_and_flags():
    g = random_connected_graph(9, extra_edges=6, seed=3)
    s = starify(g)
    assert s.graph.n == 2 * g.n
    for u in range(g.n):
        assert s.graph.degree(u) == g.degree(u) + 1
        assert s.graph.degree(g.n + u) == 1
        k = s.virtual_edge_of(u)
        assert s.is_virtual_edge(k)
        assert s.graph.edges[k].tolist() == [u, g.n + u]
    for k in range(g.n_edges):
        assert not s.is_virtual_edge(k)


@pytest.mark.parametrize(
    "g",
    [
        Graph(1, []),
        star_graph(1),
        star_graph(6),
        Graph(7, [(u, 6) for u in range(6)]),  # a star written hub-last
        path_graph(5),
        cycle_graph(6),
        complete_graph(5),
        *(random_connected_graph(4 + 9 * s, extra_edges=5 * s, seed=s) for s in range(5)),
    ],
)
def test_starify_equals_the_checked_graph(g):
    # starify derives its CSR from g's instead of building Graph(2n, edges),
    # which checks the edges and sorts again; every array must come out equal.
    real = np.arange(g.n)
    want = Graph(2 * g.n, np.concatenate([g.edges, np.stack([real, g.n + real], axis=1)]))
    got = starify(g).graph
    assert got.n == want.n and type(got.n) is type(want.n)
    for name in ("edges", "indptr", "neighbor", "edge"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)
        assert not a.flags.writeable, name
    assert got == want


def test_is_virtual_edge_refuses_edges_outside_the_extended_graph():
    s = starify(complete_graph(3))  # 6 nodes, 6 edges
    assert [s.is_virtual_edge(k) for k in range(6)] == [False] * 3 + [True] * 3
    assert s.is_virtual_edge(np.int64(5))
    for k in (-1, 6, 99):
        with pytest.raises(GraphError, match=rf"^edge {k} outside 0\.\.5$") as info:
            s.is_virtual_edge(k)
        assert info.value.edge == k
    for k in (True, False, 4.0, 4.5):
        with pytest.raises(TypeError):
            s.is_virtual_edge(k)


def test_starify_virtual_edge_of_range():
    s = starify(complete_graph(3))
    with pytest.raises(GraphError, match="not a node"):
        s.virtual_edge_of(3)
    assert s.virtual_edge_of(np.int64(1)) == 4
    for u in (True, 1.5, 1.0):
        with pytest.raises(TypeError):
            s.virtual_edge_of(u)


def test_round_trip_serialization():
    graphs = [
        path_graph(5),
        star_graph(4),
        complete_graph(5),
        random_connected_graph(11, extra_edges=9, seed=7),
    ]
    for g in graphs:
        assert parse_graph(to_edge_list(g)) == g
        assert parse_graph(to_json(g), "json") == g
        p = polarity_from_coloring(g, greedy_coloring(g))
        assert polarity_from_coloring(parse_graph(to_json(g), "json"), greedy_coloring(g)) == p
    assert path_graph(3) != Graph(3, ((1, 2), (0, 1)))  # same edges, other indices
    assert path_graph(3) != path_graph(4)
    assert PolarityMap((1, 1)) != PolarityMap((1, 2))
    # against another type, __eq__ defers and identity decides
    assert path_graph(3) != "0 1\n1 2"
    assert PolarityMap((1, 1)) != (1, 1)


def test_graph_and_polarity_arrays_are_read_only():
    g = random_connected_graph(9, extra_edges=6, seed=1)
    p = polarity_from_coloring(g, greedy_coloring(g))
    for a in (g.edges, g.indptr, g.neighbor, g.edge, p.plus_node):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # equality is by value, so neither type can be hashed
    for obj in (g, p):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


def test_polarity_copies_its_input():
    plus = np.array([1, 1])
    p = PolarityMap(plus)
    plus[0] = 0
    assert p.plus_node.tolist() == [1, 1]


@pytest.mark.parametrize(
    "builder, bad",
    [
        (path_graph, 1),
        (cycle_graph, 2),
        (star_graph, 0),
        (complete_graph, 1),
        (random_connected_graph, 1),
    ],
)
def test_constructor_range_errors(builder, bad):
    with pytest.raises(GraphError):
        builder(bad)


def test_cycle_graph():
    g = cycle_graph(5)
    assert g.n_edges == 5
    assert all(g.degree(u) == 2 for u in range(5))


def test_random_connected_graph_deterministic():
    a = random_connected_graph(15, extra_edges=10, seed=4)
    b = random_connected_graph(15, extra_edges=10, seed=4)
    assert a == b
    assert a.n_edges == 15 - 1 + 10


def test_random_connected_graph_saturates():
    g = random_connected_graph(4, extra_edges=100, seed=0)
    assert g == complete_graph(4)


# Ids and colours follow the rule of a single index: a bool, a float or a
# complex is refused, never truncated to a node.  A Python sequence is read
# entry by entry; an ndarray by its dtype, or entry by entry if it holds
# objects.  (An ndarray built from bools mixed with ints is an int array.)
BAD_EDGES = [
    ((0.5, 1.5), (1.0, 2.0)),
    ((True, 2), (0, 2)),
    ((0, 1), (1, np.float64(2.0))),
    ((0, 1), (1, 2 + 0j)),
    np.array([[0.5, 1.5], [1.0, 2.0]]),
    np.array([[True, False]]),
    np.array([(True, 2), (0, 2)], dtype=object),
]
BAD_IDS = [
    (1.7, 2.2),
    (True, 1),
    [1, np.bool_(True)],
    np.array([1.7, 2.2]),
    np.array([True, True]),
    np.array([True, 1], dtype=object),
]
BAD_COLORS = [
    (0.0, 1.0, 0.0),
    (False, True, False),
    np.array([0.0, 1.0, 0.0]),
    np.array([False, True, False]),
    np.array([0, True, 0], dtype=object),
]


@pytest.mark.parametrize(
    "edges", BAD_EDGES,
    ids=["float", "bool", "numpy-float", "complex", "float-array", "bool-array", "object-array"],
)
def test_graph_refuses_ids_that_are_not_integers(edges):
    with pytest.raises(TypeError):
        Graph(3, edges)


@pytest.mark.parametrize(
    "plus", BAD_IDS,
    ids=["float", "bool", "numpy-bool", "float-array", "bool-array", "object-array"],
)
def test_polarity_refuses_ids_that_are_not_integers(plus):
    with pytest.raises(TypeError):
        PolarityMap(plus)


@pytest.mark.parametrize(
    "colors", BAD_COLORS, ids=["float", "bool", "float-array", "bool-array", "object-array"]
)
def test_coloring_refuses_colors_that_are_not_integers(colors):
    g = path_graph(3)
    with pytest.raises(TypeError):
        polarity_from_coloring(g, colors)
    with pytest.raises(TypeError):
        check_proper(g, colors)


@pytest.mark.parametrize("n", [2.0, 3.0, True, "3"])
def test_graph_refuses_a_node_count_that_is_not_an_integer(n):
    with pytest.raises(TypeError):
        Graph(n, ((0, 1),))


def test_numpy_integer_ids_are_accepted():
    want = Graph(3, ((0, 1), (1, 2)))
    assert Graph(np.int64(3), ((np.int64(0), np.int32(1)), (1, np.uint8(2)))) == want
    assert Graph(3, np.array([[0, 1], [1, 2]], dtype=np.int32)) == want
    assert Graph(3, np.array([[0, 1], [1, 2]], dtype=object)) == want
    assert Graph(1, ()).n_edges == 0
    plus = PolarityMap((np.int64(1), 2))
    assert plus == PolarityMap(np.array([1, 2], dtype=np.uint16))
    assert plus.plus_node.dtype == np.int64
    assert polarity_from_coloring(want, (np.int8(0), 1, np.int64(0))) == PolarityMap((1, 1))
