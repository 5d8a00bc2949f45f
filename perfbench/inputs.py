"""Seeded benchmark inputs, built with numpy alone.

The generators here deliberately do not call into graphwalk, so a change to
the package's own graph builders cannot change what the benchmark feeds it.
Edge lists are written in the CLI's edge-list format; an edge's line number
is its edge index.
"""

from __future__ import annotations

import numpy as np


def star_edges(m: int) -> np.ndarray:
    """Star with hub 0 and leaves 1..m, edge k joining the hub to leaf k + 1."""
    leaves = np.arange(1, m + 1, dtype=np.int64)
    return np.stack([np.zeros_like(leaves), leaves], axis=1)


def random_connected_edges(n: int, n_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Random spanning tree on n nodes plus distinct extra edges, sorted.

    Node i > 0 hangs off a uniformly random earlier node; extra pairs are
    drawn uniformly until the graph has `n_edges` distinct edges.
    """
    if not n - 1 <= n_edges <= n * (n - 1) // 2:
        raise ValueError(f"cannot build {n_edges} edges on {n} connected nodes")
    child = np.arange(1, n, dtype=np.int64)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    codes = set((parent * n + child).tolist())
    while len(codes) < n_edges:
        batch = 2 * (n_edges - len(codes)) + 8
        u = rng.integers(0, n, batch)
        v = rng.integers(0, n, batch)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        for code in (lo * n + hi).tolist():
            if len(codes) == n_edges:
                break
            codes.add(code)
    ordered = np.array(sorted(codes), dtype=np.int64)
    return np.stack([ordered // n, ordered % n], axis=1)


def random_regular_edges(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random connected d-regular simple graph, sorted (configuration model).

    Stub pairings are redrawn until the graph has no self-loop, no repeated
    edge and one component.  Every node has degree d, so the compiled
    circuit's size does not depend on the draw.
    """
    if (n * d) % 2 or not 2 <= d < n:
        raise ValueError(f"no connected {d}-regular graph on {n} nodes")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while True:
        pairs = rng.permutation(stubs).reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        codes = np.unique(lo * n + hi)
        if (lo == hi).any() or len(codes) != len(pairs):
            continue
        edges = np.stack([codes // n, codes % n], axis=1)
        if _connected(n, edges):
            return edges


def _connected(n: int, edges: np.ndarray) -> bool:
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges.tolist():
        root[find(u)] = find(v)
    return len({find(x) for x in range(n)}) == 1


def write_edge_list(path, edges: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))
