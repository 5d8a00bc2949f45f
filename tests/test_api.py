"""The package's public names, pinned so that an export or a deletion is deliberate."""

from __future__ import annotations

import enum
import inspect

import graphwalk

PUBLIC_API = [
    "AuditReport",
    "CallCapExceededError",
    "Circuit",
    "CircuitError",
    "EquivalenceReport",
    "Gate",
    "Graph",
    "GraphError",
    "GraphParseError",
    "Instruction",
    "Locus",
    "OracleSpec",
    "PolarityMap",
    "QubitLayout",
    "SimulationError",
    "SparseState",
    "StarReducedState",
    "StarSpectrum",
    "StarifiedGraph",
    "SubspaceLeakageError",
    "SweepReport",
    "WalkPlan",
    "WalkState",
    "build_layout",
    "check_polarity",
    "check_proper",
    "circuit_from_json",
    "compile_coin",
    "compile_oracle",
    "compile_scatter",
    "compile_step",
    "complete_graph",
    "complete_graph_report",
    "cycle_graph",
    "diagonal_state",
    "edge_probabilities",
    "evolve",
    "greedy_coloring",
    "guaranteed_search",
    "init_walk_superposition",
    "locality_audit",
    "parse_graph",
    "parse_graph_document",
    "path_graph",
    "polarity_from_coloring",
    "project_to_walk_state",
    "random_connected_graph",
    "reduced_vs_full",
    "run",
    "search",
    "star_graph",
    "star_initial_state",
    "star_matrix",
    "star_predicted_prob",
    "star_reduced_step",
    "star_spectrum",
    "starify",
    "step",
    "step_matrix",
    "sweep",
    "to_edge_list",
    "to_json",
    "verify_circuit_equivalence",
]

# Each public function's and class constructor's parameters: names, kinds
# and defaults, without annotations, so that an option added or removed is
# deliberate too.  Exceptions and the Gate enum are left out.
SIGNATURES = {
    "AuditReport": "(nodes, violations)",
    "Circuit": "(layout, instructions)",
    "EquivalenceReport": "(max_deviation, max_leakage, tolerance, n_qubits, worst_column)",
    "Graph": "(n, edges)",
    "Instruction": "(gate, controls, targets, locus, d=None)",
    "Locus": "(kind, id)",
    "OracleSpec": "(marked=frozenset())",
    "PolarityMap": "(plus_node)",
    "QubitLayout": "(facing)",
    "SparseState": "(amps, n_qubits)",
    "StarReducedState": "(alpha_plus, alpha_minus, psi_plus, psi_minus, m, t=0)",
    "StarSpectrum": "(m, lam, eigenvalues, t_opt, p_asymptotic)",
    "StarifiedGraph": "(graph, real_node_count, real_edge_count)",
    "SweepReport": "(probs, t_star, p_star, n_nodes, n_edges, marked, t_max, predicted_t=None)",
    "WalkPlan": "(g, p, oracle=None)",
    "WalkState": "(psi, t=0)",
    "build_layout": "(g, p, enumeration_seed=None)",
    "check_polarity": "(g, p)",
    "check_proper": "(g, colors)",
    "circuit_from_json": "(text)",
    "compile_coin": "(layout)",
    "compile_oracle": "(layout, marked)",
    "compile_scatter": "(layout, node)",
    "compile_step": "(g, p, marked, enumeration_seed=None)",
    "complete_graph": "(n)",
    "complete_graph_report": "(n, t_max)",
    "cycle_graph": "(n)",
    "diagonal_state": "(g)",
    "edge_probabilities": "(state)",
    "evolve": "(g, p, oracle, steps, *, plan=None)",
    "greedy_coloring": "(g)",
    "guaranteed_search": "(g, p, oracle, steps, seed=None, max_calls=1000000, *, plan=None)",
    "init_walk_superposition": "(layout)",
    "locality_audit": "(circuit)",
    "parse_graph": "(text, fmt='edge-list')",
    "parse_graph_document": "(text, fmt='edge-list')",
    "path_graph": "(n)",
    "polarity_from_coloring": "(g, colors)",
    "project_to_walk_state": "(state, layout)",
    "random_connected_graph": "(n, extra_edges=0, seed=0)",
    "reduced_vs_full": "(m, t_max)",
    "run": "(circuit, state=None)",
    "search": "(g, p, oracle, steps, seed=None, *, plan=None)",
    "star_graph": "(m)",
    "star_initial_state": "(m)",
    "star_matrix": "(m)",
    "star_predicted_prob": "(m, t)",
    "star_reduced_step": "(s)",
    "star_spectrum": "(m)",
    "starify": "(g)",
    "step": "(state, g, p, oracle=None)",
    "step_matrix": "(g, p, oracle=None)",
    "sweep": "(g, p, oracle, t_max)",
    "to_edge_list": "(g)",
    "to_json": "(g)",
    "verify_circuit_equivalence": "(g, p, marked, circuit, tolerance=1e-10)",
}


def _parameters(f) -> str:
    params = inspect.signature(f).parameters.values()
    return str(inspect.Signature([p.replace(annotation=inspect.Parameter.empty) for p in params]))


def test_public_api_is_pinned():
    # Submodules (graph, walk, ..., and cli once something imports it) are
    # attributes too; they are left out so the list does not depend on
    # import order.
    names = [
        name
        for name in dir(graphwalk)
        if not name.startswith("_") and not inspect.ismodule(getattr(graphwalk, name))
    ]
    assert names == PUBLIC_API


def _pinned(f) -> bool:
    if inspect.isclass(f):
        return not issubclass(f, (Exception, enum.Enum))
    return inspect.isfunction(f)


def test_public_signatures_are_pinned():
    exports = {name: getattr(graphwalk, name) for name in PUBLIC_API}
    assert {name: _parameters(f) for name, f in exports.items() if _pinned(f)} == SIGNATURES
