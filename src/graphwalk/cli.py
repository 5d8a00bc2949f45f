"""Command-line interface.

Subcommands: search, sweep, analyze-star, analyze-complete, compile, verify.
Outputs are deterministic for fixed inputs and seed.  Exit codes: 0 success,
1 configuration problem, 2 graph problem, 3 oracle-call cap exceeded,
4 circuit-model equivalence failure.  Set GRAPHWALK_LOG=debug (or info,
warning, ...) to get progress logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .compiler import CircuitError, circuit_from_json, compile_step, locality_audit
from .graph import (
    Graph,
    GraphError,
    PolarityMap,
    StarifiedGraph,
    _count,
    greedy_coloring,
    parse_graph_document,
    polarity_from_coloring,
    starify,
)
from .spectral import _check_n, complete_graph_report, star_spectrum
from .simulator import SimulationError, verify_circuit_equivalence
from .walk import (
    CallCapExceededError,
    OracleSpec,
    WalkPlan,
    guaranteed_search,
    search as run_search,
    sweep as run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GRAPH = 2
EXIT_CALL_CAP = 3
EXIT_EQUIVALENCE = 4

log = logging.getLogger("graphwalk")


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with the config code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_graph_args(p: argparse.ArgumentParser, require_mark: bool) -> None:
    p.add_argument("--graph", required=True, help="path to the graph document")
    p.add_argument(
        "--format",
        choices=("edge-list", "json"),
        default="edge-list",
        help="graph document format (default: edge-list)",
    )
    group = p.add_mutually_exclusive_group(required=require_mark)
    group.add_argument(
        "--mark-edge",
        nargs=2,
        type=int,
        metavar=("U", "V"),
        help="mark the edge between nodes U and V",
    )
    group.add_argument(
        "--mark-node",
        type=int,
        metavar="U",
        help="mark node U (attaches virtual pendant edges and marks U's)",
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from None


def _read(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what} file: {exc}") from None


def _dump_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _load_marked_graph(args):
    """Read the graph and resolve marks.

    No walk output depends on the polarity, so the walk commands take the
    edge list's own (+ pole at each edge's lower endpoint) and ignore the
    colors; `compile` orients poles by them (`_color_polarity`), and so does
    `verify` when it compiles.

    Returns:
        (graph, colors, marked, star, node): the walk graph (starified in
        node mode), the supplied colors (already checked proper; None when
        there are none, and always in node mode), the marked edge set, the
        starified wrapper or None, and the marked node or None.
    """
    text = _read(args.graph, "graph")
    g, colors = parse_graph_document(text, args.format)
    log.info("parsed graph: %d nodes, %d edges", g.n, g.n_edges)
    star: StarifiedGraph | None = None
    node: int | None = None
    marked: frozenset[int] = frozenset()
    if args.mark_node is not None:
        node = args.mark_node
        star = starify(g)
        g = star.graph
        marked = frozenset({star.virtual_edge_of(node)})  # refuses a node outside g
        if colors is not None:
            log.info("supplied colors ignored: they do not cover node mode's extended graph")
            colors = None
        log.info("node mode: marked virtual edge %d of node %d", next(iter(marked)), node)
    elif args.mark_edge is not None:
        u, v = args.mark_edge
        marked = frozenset({g.edge_index(u, v)})
    return g, colors, marked, star, node


def _color_polarity(g: Graph, colors) -> PolarityMap:
    """The polarity whose poles `compile` names: + at the higher of the
    supplied colors, or of a greedy coloring when there are none."""
    return polarity_from_coloring(g, greedy_coloring(g) if colors is None else colors)


def _edge_payload(g: Graph, star: StarifiedGraph | None, k: int) -> dict:
    payload = {"edge_index": k, "edge": g.edges[k].tolist(), "node": None}
    if star is not None and star.is_virtual_edge(k):
        payload["node"] = k - star.real_edge_count
    return payload


def _trial(g, p, oracle, plan, star, seq, args) -> dict:
    if args.guaranteed:
        edge, calls = guaranteed_search(
            g, p, oracle, args.steps, seq, max_calls=args.max_calls, plan=plan
        )
        out = _edge_payload(g, star, edge)
        out["calls"] = calls
        out["is_marked"] = True
    else:
        edge = run_search(g, p, oracle, args.steps, seq, plan=plan)
        out = _edge_payload(g, star, edge)
        out["is_marked"] = edge in oracle.marked
    return out


def cmd_search(args) -> int:
    _count(args.steps, "--steps")
    _count(args.trials, "--trials", 1)
    _count(args.seed, "--seed")
    if args.guaranteed:
        _count(args.max_calls, "--max-calls", 1)
    g, _, marked, star, node = _load_marked_graph(args)
    p = PolarityMap(g.edges[:, 0])
    result = {
        "command": "search",
        "graph": {"nodes": g.n, "edges": g.n_edges},
        "marked_edges": sorted(marked),
        "marked_node": node,
        "steps": args.steps,
        "seed": args.seed,
        "guaranteed": bool(args.guaranteed),
        "trials": args.trials,
    }
    # Every trial measures the same evolved state, so one plan evolves it
    # once; each trial draws with its own child seed.
    oracle = OracleSpec(marked=marked)
    plan = WalkPlan(g, p, oracle)
    outcomes = [
        _trial(g, p, oracle, plan, star, seq, args)
        for seq in np.random.SeedSequence(args.seed).spawn(args.trials)
    ]
    if args.trials == 1:
        result.update(outcomes[0])
    else:
        for i, out in enumerate(outcomes):
            out["trial"] = i
        result["results"] = outcomes
        hits = sum(1 for out in outcomes if out["is_marked"])
        result["marked_frequency"] = hits / args.trials
    _dump_json(result, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _count(args.t_max, "--t-max")
    g, _, marked, star, node = _load_marked_graph(args)
    report = run_sweep(g, PolarityMap(g.edges[:, 0]), OracleSpec(marked=marked), args.t_max)
    log.info("sweep peak: t*=%d p*=%.6f", report.t_star, report.p_star)
    if args.out is not None and args.out.endswith(".json"):
        doc = report.to_json_dict()
        doc["marked_node"] = node
        _dump_json(doc, args.out)
    else:
        _emit(report.to_csv(), args.out)
    return EXIT_OK


def cmd_analyze_star(args) -> int:
    spectrum = star_spectrum(args.m)
    _dump_json(
        {
            "command": "analyze-star",
            "leaves": spectrum.m,
            "lambda": spectrum.lam,
            "eigenvalues": [[z.real, z.imag] for z in spectrum.eigenvalues],
            "t_opt": spectrum.t_opt,
            "p_asymptotic": spectrum.p_asymptotic,
        },
        args.out,
    )
    return EXIT_OK


def cmd_analyze_complete(args) -> int:
    n, t_max = _check_n(args.n), args.t_max  # n first: the default t_max takes n as a float
    if t_max is None:
        t_max = math.ceil(math.pi * n / 2)
    report = complete_graph_report(n, _count(t_max, "--t-max"))
    doc = report.to_json_dict()
    doc["peak_relative_error"] = abs(report.t_star - report.predicted_t) / report.predicted_t
    _dump_json(doc, args.out)
    return EXIT_OK


def _enumeration_seed(args) -> int | None:
    seed = args.enumeration_seed
    return None if seed is None else _count(seed, "--enumeration-seed")


def cmd_compile(args) -> int:
    seed = _enumeration_seed(args)
    g, colors, marked, star, node = _load_marked_graph(args)
    circuit = compile_step(g, _color_polarity(g, colors), marked, enumeration_seed=seed)
    audit = locality_audit(circuit)
    if not audit.ok:
        raise CircuitError("; ".join(audit.violations))
    log.info(
        "compiled %d instructions on %d qubits; locality audit clean",
        len(circuit.instructions), circuit.n_qubits,
    )
    for entry in audit.nodes:
        log.debug(
            "node %d (degree %d): %d cnot/mcx, %d diffusion",
            entry.node, entry.degree, entry.cnot_mcx, entry.diffusion,
        )
    if args.audit_out is not None:
        _emit(audit.to_json(), args.audit_out)
    _emit(circuit.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _enumeration_seed(args)
    g, colors, marked, star, node = _load_marked_graph(args)
    if args.circuit is None:
        p = _color_polarity(g, colors)
        circuit = compile_step(g, p, marked, enumeration_seed=seed)
    else:
        circuit = circuit_from_json(_read(args.circuit, "circuit"))
        p = circuit.layout.polarity()
    report = verify_circuit_equivalence(g, p, marked, circuit, tolerance=args.tolerance)
    _dump_json(report.to_json_dict(), args.out)
    if not report.ok:
        log.warning(
            "circuit deviates from the model: deviation %.3e, leakage %.3e, "
            "worst at edge %d pole %d",
            report.max_deviation, report.max_leakage, *report.worst_column,
        )
        return EXIT_EQUIVALENCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the walk and measure an edge")
    _add_graph_args(p, require_mark=True)
    p.add_argument("--steps", type=int, required=True, help="walk steps before measuring")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--trials", type=int, default=1, help="independent repetitions")
    p.add_argument(
        "--guaranteed",
        action="store_true",
        help="redraw until a marked edge is found, reporting the call count",
    )
    p.add_argument(
        "--max-calls",
        type=int,
        default=1_000_000,
        help="oracle-call cap for --guaranteed (default 1000000)",
    )
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="tabulate marked probability against steps")
    _add_graph_args(p, require_mark=False)
    p.add_argument("--t-max", type=int, required=True, help="largest step count")
    p.add_argument(
        "--out",
        help="output path: *.json for the JSON report, anything else CSV",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze-star", help="closed-form star search summary")
    p.add_argument("m", type=int, help="number of leaves")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze_star)

    p = sub.add_parser(
        "analyze-complete", help="node search sweep on the complete graph"
    )
    p.add_argument("n", type=int, help="number of nodes")
    p.add_argument(
        "--t-max", type=int, default=None,
        help="largest step count (default: ceil(pi*n/2))",
    )
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze_complete)

    p = sub.add_parser("compile", help="compile one walk step to a circuit")
    _add_graph_args(p, require_mark=False)
    p.add_argument(
        "--enumeration-seed", type=int, default=None,
        help="randomize each node's incident-edge enumeration",
    )
    p.add_argument("--out", help="write circuit JSON here instead of stdout")
    p.add_argument(
        "--audit-out",
        help="also write the locality audit and per-node gate counts here",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="check a compiled step against the model")
    _add_graph_args(p, require_mark=False)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--circuit", help="verify this circuit JSON instead of compiling")
    source.add_argument(
        "--enumeration-seed", type=int, default=None,
        help="enumeration seed when compiling the circuit here",
    )
    p.add_argument(
        "--tolerance", type=float, default=1e-10,
        help="deviation and leakage threshold (default 1e-10)",
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("GRAPHWALK_LOG", "")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits only through `exit`, with an int code
        return exc.code
    except CallCapExceededError as exc:
        print(f"graphwalk: {exc}", file=sys.stderr)
        return EXIT_CALL_CAP
    except GraphError as exc:
        print(f"graphwalk: graph error: {exc}", file=sys.stderr)
        return EXIT_GRAPH
    except SimulationError as exc:
        print(f"graphwalk: simulation error: {exc}", file=sys.stderr)
        return EXIT_EQUIVALENCE
    except (ValueError, OverflowError) as exc:  # OverflowError: a count too large for a float
        print(f"graphwalk: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
