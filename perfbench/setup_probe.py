"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR GRAPH:MODE [GRAPH:MODE ...]

Imports graphwalk from SRC_DIR, then loads each edge-list GRAPH the way the
CLI does (read, parse, starify when MODE is "node", greedy coloring,
polarity).  Prints the elapsed seconds, then the mean time of a fixed
pure-Python calibration loop run just before and just after the set-up, so
the caller can cancel the machine's speed of the moment.
"""

import sys
from time import perf_counter


def calibration_s() -> float:
    """Time a fixed interpreter loop; it imports nothing the set-up needs."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    table = {}
    for i in range(50_000):
        table[str(i)] = [i, i + 1]
    return perf_counter() - start


def main(argv: list[str]) -> int:
    before = calibration_s()
    start = perf_counter()
    sys.path.insert(0, argv[0])
    from graphwalk import greedy_coloring, parse_graph_document, polarity_from_coloring, starify

    for spec in argv[1:]:
        path, mode = spec.rsplit(":", 1)
        with open(path) as fh:
            g, _ = parse_graph_document(fh.read(), "edge-list")
        if mode == "node":
            g = starify(g).graph
        polarity_from_coloring(g, greedy_coloring(g))
    setup = perf_counter() - start
    print(setup, (before + calibration_s()) / 2)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
