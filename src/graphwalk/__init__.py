"""Coined quantum walk search on graph edges.

The walk places two amplitudes on every edge of a connected graph, one per
pole, and advances by an oracle, a coin, and per-node Grover scattering.
This package simulates the walk, analyzes its closed forms on stars and
complete graphs, compiles steps into local quantum circuits, and simulates
those circuits sparsely to check the two pictures agree.
"""

from .graph import (
    Graph,
    GraphError,
    GraphParseError,
    PolarityMap,
    StarifiedGraph,
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
from .walk import (
    CallCapExceededError,
    OracleSpec,
    SweepReport,
    WalkPlan,
    WalkState,
    diagonal_state,
    edge_probabilities,
    evolve,
    guaranteed_search,
    search,
    step,
    step_matrix,
    sweep,
)
from .spectral import (
    StarReducedState,
    StarSpectrum,
    complete_graph_report,
    reduced_vs_full,
    star_initial_state,
    star_matrix,
    star_predicted_prob,
    star_reduced_step,
    star_spectrum,
)
from .compiler import (
    AuditReport,
    Circuit,
    CircuitError,
    Gate,
    Instruction,
    Locus,
    QubitLayout,
    build_layout,
    circuit_from_json,
    compile_coin,
    compile_oracle,
    compile_scatter,
    compile_step,
    locality_audit,
)
from .simulator import (
    EquivalenceReport,
    SimulationError,
    SparseState,
    SubspaceLeakageError,
    init_walk_superposition,
    project_to_walk_state,
    run,
    verify_circuit_equivalence,
)

__version__ = "0.1.0"
