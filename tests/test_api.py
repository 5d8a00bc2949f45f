"""The package's public names, pinned so that an export or a deletion is deliberate."""

from __future__ import annotations

import inspect

import graphwalk

PUBLIC_API = [
    "AuditReport",
    "CallCapExceededError",
    "Circuit",
    "CircuitError",
    "CoinSpec",
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
    "apply_instruction",
    "build_layout",
    "check_polarity",
    "check_proper",
    "circuit_from_json",
    "compile_coin",
    "compile_diffusion",
    "compile_oracle",
    "compile_scatter",
    "compile_step",
    "compile_transfer",
    "compile_transfer_k",
    "complete_graph",
    "complete_graph_report",
    "cycle_graph",
    "diagonal_state",
    "edge_probabilities",
    "evolve",
    "greedy_coloring",
    "guaranteed_search",
    "init_walk_superposition",
    "invert_instructions",
    "locality_audit",
    "measure_edge",
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
    "step_circuit_matrix",
    "step_matrix",
    "sweep",
    "to_edge_list",
    "to_json",
    "verify_circuit_equivalence",
]


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
